//! Serving backends: what produces the tokens and what the virtual clock
//! charges for them.
//!
//! The zig-zag equivalence tests (`tests/zigzag_block_schedule.rs`) prove
//! the engine's outputs are independent of batch composition — a
//! sequence generates the same tokens whether it runs alone or inside a
//! block. That licences the backend split used here: `materialize`
//! returns a request's full token stream up front (tokens are a function
//! of the request alone), while the *timing* of their delivery is the
//! scheduler's business, charged through [`ServeBackend::prefill_seconds`]
//! and [`ServeBackend::decode_step_seconds`] from the paper's analytic
//! cost model (Eq. 1-2, applied per-slot with the layer's weight stream
//! shared across the whole block — the amortisation serving exists for).

use crate::request::Request;
use lm_engine::{Engine, EngineError, EngineOptions, GenerateRequest};
use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_sim::{BaseCostModel, CostProvider, Policy, StepLoad};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// What the scheduler needs from an execution substrate: tokens,
/// per-task costs, and KV footprints.
///
/// `Send + Sync` because [`ServeSession::run_async`]
/// (crate::ServeSession::run_async) drives the scheduler on its own
/// thread while the caller's client code consumes token streams — both
/// backends are plain data or `Arc`-shared state, so the bound costs
/// nothing.
pub trait ServeBackend: Send + Sync {
    /// The model configuration requests are validated against.
    fn model(&self) -> &ModelConfig;

    /// The full token stream of one request run to completion. Must be a
    /// deterministic function of the request alone (batch-composition
    /// independence is what makes continuous batching output-transparent).
    fn materialize(&self, req: &Request) -> Result<Vec<u32>, EngineError>;

    /// Seconds to prefill a freshly admitted group of `batch` sequences
    /// padded to `padded_prompt_len`.
    fn prefill_seconds(&self, padded_prompt_len: usize, batch: usize) -> f64;

    /// Seconds for one decode step over the active slots, where
    /// `contexts[i]` is slot `i`'s current sequence length. Each layer's
    /// weight stream is charged once for the whole block; per-slot cache,
    /// activation and compute costs accumulate on their resources and the
    /// step takes the max (Eq. 2 with a heterogeneous batch).
    fn decode_step_seconds(&self, contexts: &[u64]) -> f64;

    /// At-rest KV bytes one sequence holds at context length `context`
    /// (all layers) — the size of its admission lease.
    fn kv_bytes_at(&self, context: usize) -> usize;
}

/// The analytic backend: OPT-30B-class costs from [`BaseCostModel`] with
/// synthetic, seed-derived token streams. This is the backend the
/// `repro serve` experiment runs — real byte-level execution at 30B scale
/// is exactly what offloading research cannot assume.
pub struct AnalyticBackend {
    cfg: ModelConfig,
    platform: Platform,
    policy: Policy,
    /// Per-slot decode model: `gpu_batch = 1`, `prompt_len = 1`, so
    /// `kv_elems_at(c - 1)` is one sequence's cache at context `c`.
    decode: BaseCostModel,
    /// One layer's weight stream under `decode`: what every decode
    /// step's load starts from. Held because it is the same at every step
    /// and asking `decode` again per step costs a sixth of the call
    /// (`sim.decode_cost_ns` 64 ns vs 80 ns).
    weights: StepLoad,
}

impl AnalyticBackend {
    pub fn new(platform: Platform, cfg: ModelConfig, policy: Policy) -> Self {
        let slot = Workload::new(1, 1, 1, 1);
        let decode = BaseCostModel::new(&platform, &cfg, &slot, policy);
        AnalyticBackend {
            cfg,
            platform,
            policy,
            weights: StepLoad::weights(&decode.tasks(0)),
            decode,
        }
    }

    /// The paper's serving target: OPT-30B on a single A100 host under
    /// the FlexGen default policy.
    pub fn opt_30b() -> Self {
        AnalyticBackend::new(
            lm_hardware::presets::single_gpu_a100(),
            lm_models::presets::opt_30b(),
            Policy::flexgen_default(),
        )
    }

    pub fn policy(&self) -> &Policy {
        &self.policy
    }
}

impl ServeBackend for AnalyticBackend {
    fn model(&self) -> &ModelConfig {
        &self.cfg
    }

    fn materialize(&self, req: &Request) -> Result<Vec<u32>, EngineError> {
        let mut rng = SmallRng::seed_from_u64(req.seed);
        Ok((0..req.gen_len)
            .map(|_| rng.gen_range(1u32..self.cfg.vocab_size as u32))
            .collect())
    }

    fn prefill_seconds(&self, padded_prompt_len: usize, batch: usize) -> f64 {
        let w = Workload::new(padded_prompt_len.max(1) as u64, 1, batch.max(1) as u64, 1);
        let m = BaseCostModel::new(&self.platform, &self.cfg, &w, self.policy);
        m.prefill_layer() * self.cfg.num_layers as f64
    }

    fn decode_step_seconds(&self, contexts: &[u64]) -> f64 {
        if contexts.is_empty() {
            return 0.0;
        }
        // One layer fetch serves every slot in the block (the zig-zag
        // amortisation); everything else accumulates per slot.
        let mut load = self.weights;
        for &c in contexts {
            load.add_batches(&self.decode.tasks(c.saturating_sub(1)), 1.0);
        }
        load.time() * self.cfg.num_layers as f64
    }

    fn kv_bytes_at(&self, context: usize) -> usize {
        let elems = 2 * context as u64 * self.cfg.hidden;
        self.policy.kv_dtype.bytes_for(elems) as usize * self.cfg.num_layers as usize
    }
}

/// A backend over the *real* miniature engine: tokens come from actual
/// `Engine::run` execution (so scheduler outputs are checkable against
/// solo runs token-for-token), while step timing reuses the analytic
/// model at the engine's model scale.
pub struct EngineBackend {
    engine: Engine,
    analytic: AnalyticBackend,
}

impl EngineBackend {
    /// Build over an engine with the given options; `strict: true`
    /// reuses the engine's pre-flight model analysis as the serving
    /// pre-flight (admission inherits the `LMA` gate).
    pub fn new(cfg: &ModelConfig, seed: u64, options: EngineOptions) -> Result<Self, EngineError> {
        let engine = Engine::new(cfg, seed, options)?;
        let analytic = AnalyticBackend::new(
            lm_hardware::presets::single_gpu_a100(),
            cfg.clone(),
            Policy::flexgen_default(),
        );
        Ok(EngineBackend { engine, analytic })
    }

    /// The tiny test model — the configuration integration tests serve.
    pub fn tiny_test(seed: u64) -> Result<Self, EngineError> {
        EngineBackend::new(&lm_models::presets::tiny_test(), seed, EngineOptions::default())
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl ServeBackend for EngineBackend {
    fn model(&self) -> &ModelConfig {
        self.engine.model()
    }

    fn materialize(&self, req: &Request) -> Result<Vec<u32>, EngineError> {
        let gen = self
            .engine
            .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len))?;
        Ok(gen.tokens.into_iter().next().unwrap_or_default())
    }

    fn prefill_seconds(&self, padded_prompt_len: usize, batch: usize) -> f64 {
        self.analytic.prefill_seconds(padded_prompt_len, batch)
    }

    fn decode_step_seconds(&self, contexts: &[u64]) -> f64 {
        self.analytic.decode_step_seconds(contexts)
    }

    fn kv_bytes_at(&self, context: usize) -> usize {
        self.analytic.kv_bytes_at(context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_tokens_are_seed_deterministic() {
        let b = AnalyticBackend::opt_30b();
        let req = Request::new(3, vec![1, 2, 3], 16).with_seed(99);
        let t1 = b.materialize(&req).unwrap();
        let t2 = b.materialize(&req).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 16);
        assert!(t1.iter().all(|&t| (t as u64) < b.model().vocab_size));
        let other = b.materialize(&req.clone().with_seed(100)).unwrap();
        assert_ne!(t1, other);
    }

    #[test]
    fn shared_weight_stream_makes_batched_steps_cheaper_per_token() {
        let b = AnalyticBackend::opt_30b();
        let solo = b.decode_step_seconds(&[64]);
        let eight = b.decode_step_seconds(&[64; 8]);
        // Eight slots in one step must be far cheaper than eight solo
        // steps — the weight stream is paid once, not eight times.
        assert!(eight < 8.0 * solo * 0.6, "eight {eight} vs solo {solo}");
        assert!(eight >= solo, "more slots cannot be cheaper than one");
        assert_eq!(b.decode_step_seconds(&[]), 0.0);
    }

    proptest::proptest! {
        /// The heterogeneous-batch fold and the homogeneous `t_gen` are the
        /// same `StepLoad`: one slot costs exactly `t_gen(.., 1)`, and `nb`
        /// equal slots cost `t_gen(.., nb)` up to the one rounding each of
        /// the `nb` per-slot additions makes where `t_gen` multiplies once
        /// (both summations are committed to `results/`, so neither moves).
        #[test]
        fn equal_contexts_match_t_gen(
            c in 1u64..4096,
            nb in 1usize..64,
            gpu_attention in proptest::prelude::any::<bool>(),
            int4_kv in proptest::prelude::any::<bool>(),
        ) {
            let mut policy = Policy::flexgen_default();
            if gpu_attention {
                policy.attention = lm_sim::AttentionPlacement::Gpu;
            }
            if int4_kv {
                policy.kv_dtype = lm_models::DType::Int4;
            }
            let platform = lm_hardware::presets::single_gpu_a100();
            let cfg = lm_models::presets::opt_30b();
            let slot = BaseCostModel::new(&platform, &cfg, &Workload::new(1, 1, 1, 1), policy);
            let step = AnalyticBackend::new(platform, cfg.clone(), policy)
                .decode_step_seconds(&vec![c; nb]);
            let homogeneous = lm_sim::t_gen(&slot, c - 1, nb as u64) * cfg.num_layers as f64;
            let slack = if nb == 1 { 0.0 } else { nb as f64 * f64::EPSILON };
            proptest::prop_assert!(
                (step - homogeneous).abs() <= slack * homogeneous,
                "{} slots at context {}: {} vs {}", nb, c, step, homogeneous
            );
        }
    }

    #[test]
    fn kv_lease_grows_with_context() {
        let b = AnalyticBackend::opt_30b();
        assert!(b.kv_bytes_at(128) > b.kv_bytes_at(64));
        assert_eq!(b.kv_bytes_at(0), 0);
    }

    #[test]
    fn engine_backend_materializes_real_tokens() {
        let b = EngineBackend::tiny_test(11).unwrap();
        let req = Request::new(0, vec![1, 2, 3, 4], 5);
        let tokens = b.materialize(&req).unwrap();
        assert_eq!(tokens.len(), 5);
        // Same prompt through the engine directly: identical stream.
        let solo = b
            .engine()
            .run(&GenerateRequest::new(vec![vec![1, 2, 3, 4]], 5))
            .unwrap();
        assert_eq!(tokens, solo.tokens[0]);
    }

    #[test]
    fn engine_backend_surfaces_typed_validation_errors() {
        let b = EngineBackend::tiny_test(11).unwrap();
        let req = Request::new(0, vec![7; 500], 100);
        match b.materialize(&req) {
            Err(EngineError::InvalidRequest { reason }) => {
                assert!(reason.contains("max_seq_len"), "{reason}")
            }
            other => panic!("expected InvalidRequest, got ok={}", other.is_ok()),
        }
    }
}
