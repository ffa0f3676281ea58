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
/// [`crate::Engine::run`]. Its rows are one batch of any prompt lengths:
/// every row crosses each fetched layer in the same call, so a layer's
/// weights are streamed once per sweep for all of them, and each row's
/// tokens equal that row run alone.
///
/// ```
/// use lm_engine::GenerateRequest;
/// let req = GenerateRequest::new(vec![vec![1, 2, 3], vec![4, 5, 6]], 8);
/// assert_eq!(req.prompts.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateRequest {
    /// Prompt token ids, one row per sequence, of any lengths: nothing
    /// pads, each row's K/V and positions are its own.
    pub prompts: Vec<Vec<u32>>,
    /// Tokens to generate per row (beyond the prompt).
    pub gen_len: usize,
}

impl GenerateRequest {
    /// `gen_len` tokens after each of `prompts`.
    pub fn new(prompts: impl Into<Vec<Vec<u32>>>, gen_len: usize) -> Self {
        GenerateRequest { prompts: prompts.into(), gen_len }
    }

    /// Run the shared checker against `cfg` without an engine.
    pub fn validate_for(&self, cfg: &ModelConfig) -> Result<(), EngineError> {
        validate_request(cfg, &self.prompts, self.gen_len)
    }
}

/// The one request checker: every malformed shape that used to trip an
/// `assert!` in the pre-0.2 entry-point preambles surfaces here
/// as [`EngineError::InvalidRequest`], as does a prompt token the
/// embedding has no row for. The `lm-serve` admission
/// controller calls this per request before leasing a slot, so bad
/// serving traffic is rejected instead of panicking the engine.
pub fn validate_request(
    cfg: &ModelConfig,
    prompts: &[Vec<u32>],
    gen_len: usize,
) -> Result<(), EngineError> {
    let invalid = |reason: String| Err(EngineError::InvalidRequest { reason });
    let Some(s) = prompts.iter().map(Vec::len).max() else {
        return invalid("empty batch".into());
    };
    if prompts.iter().any(Vec::is_empty) {
        return invalid("empty prompt".into());
    }
    if gen_len == 0 {
        return invalid("gen_len must be at least 1".into());
    }
    // The longest prompt bounds the context every row must fit.
    if (s + gen_len) as u64 > cfg.max_seq_len {
        return invalid(format!(
            "context {s} + {gen_len} exceeds max_seq_len {}",
            cfg.max_seq_len
        ));
    }
    if let Some(t) = prompts.iter().flatten().find(|&&t| u64::from(t) >= cfg.vocab_size) {
        return invalid(format!(
            "prompt token {t} is outside the vocabulary of {}",
            cfg.vocab_size
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
        assert_eq!(req, GenerateRequest { prompts: vec![vec![1, 2]], gen_len: 4 });
    }

    #[test]
    fn every_malformed_shape_is_a_typed_error() {
        let cfg = presets::tiny_test();
        assert!(reason(validate_request(&cfg, &[], 4)).contains("empty batch"));
        assert!(reason(validate_request(&cfg, &[vec![]], 4)).contains("empty prompt"));
        assert!(reason(validate_request(&cfg, &[vec![1, 2], vec![]], 4)).contains("empty prompt"));
        assert!(reason(validate_request(&cfg, &[vec![1, 2]], 0)).contains("gen_len"));
        let long = vec![vec![7u32; 500]];
        assert!(reason(validate_request(&cfg, &long, 100)).contains("max_seq_len"));
        let later_long = vec![vec![1], vec![7u32; 500]];
        assert!(reason(validate_request(&cfg, &later_long, 100)).contains("max_seq_len"));
        let unknown = reason(validate_request(&cfg, &[vec![1, 600, 2]], 4));
        assert!(unknown.contains("token 600") && unknown.contains("512"), "{unknown}");
    }

    #[test]
    fn well_formed_requests_pass() {
        let cfg = presets::tiny_test();
        assert!(validate_request(&cfg, &[vec![1, 2], vec![3, 4], vec![5, 6]], 8).is_ok());
        assert!(validate_request(&cfg, &[vec![1], vec![2, 3, 4]], 8).is_ok());
        let req = GenerateRequest::new(vec![vec![1, 2, 3]], 4);
        assert!(req.validate_for(&cfg).is_ok());
    }
}
