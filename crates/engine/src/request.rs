//! The unified generation request vocabulary: [`GenerateRequest`] plus
//! the single validation checker shared by [`crate::Engine::run`] and the
//! `lm-serve` admission controller.
//!
//! Historically the engine exposed two batch-synchronous entry points
//! (`generate` and `generate_zigzag`, deleted in 0.2) whose copy-pasted
//! validation preambles `assert!`ed on malformed input — acceptable for
//! offline experiments, fatal for a serving process admitting untrusted
//! traffic. [`crate::Engine::run`] is the sole entry point, and every
//! check lives in [`validate_request`], which returns a typed
//! [`EngineError::InvalidRequest`] instead of panicking.

use crate::generate::EngineError;
use lm_models::ModelConfig;

/// A validated-on-entry generation request: the single argument of
/// [`crate::Engine::run`]. FlexGen's zig-zag block schedule is not a
/// separate entry point any more — it is just `num_batches > 1`.
///
/// ```
/// use lm_engine::GenerateRequest;
/// let req = GenerateRequest::new(vec![vec![1, 2, 3], vec![4, 5, 6]], 8)
///     .with_batches(2);
/// assert_eq!(req.num_batches, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateRequest {
    /// Prompt token ids, one row per sequence. All rows must share a
    /// length: nothing pads for the engine, and `lm-serve` runs each
    /// ragged request alone as its own one-row batch.
    pub prompts: Vec<Vec<u32>>,
    /// Tokens to generate per row (beyond the prompt).
    pub gen_len: usize,
    /// GPU batches per zig-zag block; `1` is the plain single-batch
    /// schedule, `> 1` amortises each layer fetch across the block.
    pub num_batches: usize,
}

impl GenerateRequest {
    /// A single-batch request.
    pub fn new(prompts: impl Into<Vec<Vec<u32>>>, gen_len: usize) -> Self {
        GenerateRequest {
            prompts: prompts.into(),
            gen_len,
            num_batches: 1,
        }
    }

    /// Split the prompts into `num_batches` zig-zag batches.
    pub fn with_batches(mut self, num_batches: usize) -> Self {
        self.num_batches = num_batches;
        self
    }

    /// Prompt length shared by every row, if the batch is well-formed.
    pub fn prompt_len(&self) -> Option<usize> {
        let s = self.prompts.first()?.len();
        self.prompts.iter().all(|p| p.len() == s).then_some(s)
    }

    /// Run the shared checker against `cfg` without an engine.
    pub fn validate_for(&self, cfg: &ModelConfig) -> Result<(), EngineError> {
        validate_request(cfg, &self.prompts, self.gen_len, self.num_batches)
    }
}

/// The one request checker: every malformed shape that used to trip an
/// `assert!` in the pre-0.2 entry-point preambles surfaces here
/// as [`EngineError::InvalidRequest`]. The `lm-serve` admission
/// controller calls this per request before leasing a slot, so bad
/// serving traffic is rejected instead of panicking the engine.
pub fn validate_request(
    cfg: &ModelConfig,
    prompts: &[Vec<u32>],
    gen_len: usize,
    num_batches: usize,
) -> Result<(), EngineError> {
    let invalid = |reason: String| Err(EngineError::InvalidRequest { reason });
    if num_batches < 1 {
        return invalid("need at least one batch".into());
    }
    if prompts.is_empty() {
        return invalid("empty batch".into());
    }
    if !prompts.len().is_multiple_of(num_batches) {
        return invalid(format!(
            "prompt count {} must divide into {num_batches} equal batches",
            prompts.len()
        ));
    }
    let s = prompts[0].len();
    if s == 0 {
        return invalid("empty prompt".into());
    }
    if gen_len == 0 {
        return invalid("gen_len must be at least 1".into());
    }
    if !prompts.iter().all(|p| p.len() == s) {
        return invalid(
            "prompts must share a length (nothing pads a batch; run ragged \
             prompts as separate requests)"
                .into(),
        );
    }
    if (s + gen_len) as u64 > cfg.max_seq_len {
        return invalid(format!(
            "context {s} + {gen_len} exceeds max_seq_len {}",
            cfg.max_seq_len
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::presets;

    fn reason(err: Result<(), EngineError>) -> String {
        match err {
            Err(EngineError::InvalidRequest { reason }) => reason,
            other => panic!("expected InvalidRequest, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn builder_defaults_to_single_batch() {
        let req = GenerateRequest::new(vec![vec![1, 2]], 4);
        assert_eq!(req.num_batches, 1);
        assert_eq!(req.prompt_len(), Some(2));
        assert_eq!(GenerateRequest::new(vec![vec![1], vec![2, 3]], 1).prompt_len(), None);
    }

    #[test]
    fn every_malformed_shape_is_a_typed_error() {
        let cfg = presets::tiny_test();
        assert!(reason(validate_request(&cfg, &[], 4, 1)).contains("empty batch"));
        assert!(reason(validate_request(&cfg, &[vec![]], 4, 1)).contains("empty prompt"));
        assert!(reason(validate_request(&cfg, &[vec![1, 2]], 0, 1)).contains("gen_len"));
        assert!(reason(validate_request(&cfg, &[vec![1], vec![2, 3]], 4, 1))
            .contains("share a length"));
        assert!(reason(validate_request(&cfg, &[vec![1, 2], vec![3, 4]], 4, 0))
            .contains("at least one batch"));
        let three = vec![vec![1u32]; 3];
        assert!(reason(validate_request(&cfg, &three, 4, 2)).contains("divide"));
        let long = vec![vec![7u32; 500]];
        assert!(reason(validate_request(&cfg, &long, 100, 1)).contains("max_seq_len"));
    }

    #[test]
    fn well_formed_requests_pass() {
        let cfg = presets::tiny_test();
        assert!(validate_request(&cfg, &[vec![1, 2], vec![3, 4]], 8, 2).is_ok());
        let req = GenerateRequest::new(vec![vec![1, 2, 3]], 4);
        assert!(req.validate_for(&cfg).is_ok());
    }
}
