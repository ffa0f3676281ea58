//! The six decode-phase tasks of Algorithm 1 and the cost-provider
//! abstraction the simulator executes against.
//!
//! Frameworks differ in how they *choose* policies; the simulator is the
//! shared ground truth that executes any policy. A [`CostProvider`] maps
//! each task instance to a duration; `lm-offload` layers the paper's
//! quantization overheads (Eq. 3-7) on top of the base transfer/compute
//! costs via [`TaskExtras`]. The costs travel as one [`TaskCosts`] vector
//! (declared next to [`TaskKind`] in `lm-trace`, re-exported here);
//! [`t_gen`] is its [`StepLoad`] reduction (Eq. 2) and [`total_latency`]
//! Eq. 1 over that.

use serde::{Deserialize, Serialize};

pub use lm_trace::{Resource, StepLoad, TaskCosts, TaskKind};

/// Additive per-task overheads in seconds — how quantization costs enter
/// the six-task model (Eq. 4, 6, 7): `load_weight += dequan_wgt`,
/// `load_cache += dequan_old_cache`, `store_cache += quan_new_cache`.
/// The KV extras are per-element costs: the provider multiplies them by
/// the exact element counts, so `load_cache`'s grows with the decode step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskExtras {
    /// Constant addition to load_weight per layer (weight dequantization).
    pub load_weight: f64,
    /// Dequantization cost per old-KV element loaded (seconds/element).
    pub dequant_per_kv_elem: f64,
    /// Quantization cost per newly generated KV element (seconds/element).
    pub quant_per_kv_elem: f64,
    /// CPU-side dequantization cost per old-KV element when the cache is
    /// stored compressed and attention runs on the CPU (FlexGen's
    /// compress_cache path: the offloaded attention must decompress in
    /// host memory).
    pub cpu_kv_dequant_per_elem: f64,
    /// CPU-side quantization cost per new-KV element in the same path.
    pub cpu_kv_quant_per_elem: f64,
    /// One-time addition to initialisation (weight quantization, Eq. 3).
    pub init: f64,
    /// Per-layer addition to prefill (prefill KV quantization, Eq. 5).
    pub prefill_per_layer: f64,
}

/// A provider of task durations. All durations are seconds.
pub trait CostProvider {
    /// The six-task vector at 0-based decode step `token`: `LoadWeight`
    /// per *layer* (streamed weights, including any dequantization
    /// serialised into the task, Eq. 4), every other kind per
    /// *(layer, batch)* — zero when the policy has no such task (cache
    /// traffic under CPU attention, `ComputeCpu` under GPU attention).
    fn tasks(&self, token: u64) -> TaskCosts;

    /// Prefill time for one layer (whole block).
    fn prefill_layer(&self) -> f64;
    /// One-time initialisation (loading weights from disk, quantizing
    /// them — Eq. 3).
    fn init_time(&self) -> f64;
}

/// One layer's per-resource load at decode step `token` for a block of
/// `num_batches` identical batches.
pub fn step_load(provider: &impl CostProvider, token: u64, num_batches: u64) -> StepLoad {
    let tasks = provider.tasks(token);
    let mut load = StepLoad::weights(&tasks);
    load.add_batches(&tasks, num_batches as f64);
    load
}

/// Per-step analytic decode latency for one layer, Eq. 2.
pub fn t_gen(provider: &impl CostProvider, token: u64, num_batches: u64) -> f64 {
    step_load(provider, token, num_batches).time()
}

/// Whole-inference analytic latency, Eq. 1:
/// `T = T_init + T_pf·l + Σ_i T_gen(i)·l` (the paper's `T_gen·(n-1)·l`
/// with the step dependence kept explicit, since KV costs grow with `i`).
pub fn total_latency(
    provider: &impl CostProvider,
    num_layers: u32,
    gen_len: u64,
    num_batches: u64,
    include_init: bool,
) -> f64 {
    let l = num_layers as f64;
    let prefill = provider.prefill_layer() * l;
    let decode: f64 = (0..gen_len.saturating_sub(1))
        .map(|i| t_gen(provider, i, num_batches) * l)
        .sum();
    let init = if include_init { provider.init_time() } else { 0.0 };
    init + prefill + decode
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A provider with fixed costs for exercising the aggregation logic.
    struct Fixed;
    impl CostProvider for Fixed {
        fn tasks(&self, t: u64) -> TaskCosts {
            let mut c = TaskCosts::default();
            c[TaskKind::LoadWeight] = 0.10;
            c[TaskKind::LoadCache] = 0.01 * (1.0 + t as f64);
            c[TaskKind::LoadActivation] = 0.001;
            c[TaskKind::StoreCache] = 0.002;
            c[TaskKind::StoreActivation] = 0.001;
            c[TaskKind::ComputeCpu] = 0.004;
            c[TaskKind::ComputeGpu] = 0.003;
            c
        }
        fn prefill_layer(&self) -> f64 {
            0.5
        }
        fn init_time(&self) -> f64 {
            30.0
        }
    }

    #[test]
    fn t_gen_is_max_over_shared_resources() {
        // Token 0, 4 batches: H2D = 0.10 + 4·(0.01 + 0.001) = 0.144
        // dominates D2H (0.012), CPU (0.016) and GPU (0.012).
        assert!((t_gen(&Fixed, 0, 4) - 0.144).abs() < 1e-12);
        // Token 20: H2D = 0.10 + 4·(0.21 + 0.001) = 0.944.
        assert!((t_gen(&Fixed, 20, 4) - 0.944).abs() < 1e-12);
    }

    #[test]
    fn total_latency_composition() {
        // l=2 layers, n=3 tokens (2 decode steps), 1 batch.
        let no_init = total_latency(&Fixed, 2, 3, 1, false);
        let with_init = total_latency(&Fixed, 2, 3, 1, true);
        let prefill = 0.5 * 2.0;
        // H2D dominates each step: 0.10 + cache(i) + 0.001.
        let decode = ((0.10 + 0.01 + 0.001) + (0.10 + 0.02 + 0.001)) * 2.0;
        assert!((no_init - (prefill + decode)).abs() < 1e-12);
        assert!((with_init - no_init - 30.0).abs() < 1e-12);
    }

    #[test]
    fn single_token_generation_has_no_decode() {
        let t = total_latency(&Fixed, 4, 1, 2, false);
        assert!((t - 0.5 * 4.0).abs() < 1e-12);
    }

    #[test]
    fn cost_dispatch_matches_methods() {
        for kind in TaskKind::ALL {
            assert!(Fixed.tasks(3)[kind] > 0.0, "{}", kind.name());
        }
        assert_eq!(Fixed.tasks(0)[TaskKind::LoadWeight], 0.10);
        assert_eq!(Fixed.tasks(9)[TaskKind::ComputeCpu], 0.004);
        assert_eq!(Fixed.tasks(9)[TaskKind::LoadCache], 0.01 * 10.0);
    }
}
