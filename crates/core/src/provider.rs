//! The quantization-aware cost provider: the ground truth the simulator
//! executes, regardless of which framework *chose* the policy.
//!
//! Builds a [`BaseCostModel`] (transfer sizes already honour the policy's
//! dtypes) and folds the Eq. 3-7 quantization overheads into the six
//! tasks via [`TaskExtras`]:
//!
//! - Eq. 3: `T_init += quan_pf_wgt`
//! - Eq. 4: `load_weight += dequan_wgt`
//! - Eq. 5: `T_pf += quan_pf_cache`
//! - Eq. 6: `load_cache += dequan_old_cache`
//! - Eq. 7: `store_cache += quan_new_cache`

use crate::quant_model::{QuantCostParams, QuantModel};
use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_sim::{AttentionPlacement, BaseCostModel, Policy, TaskExtras};

/// Thread-setting quality applied to the base model's CPU/link factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadFactors {
    /// Default PyTorch threading (oversubscribed, cache-thrashing).
    Default,
    /// LM-Offload's parallelism control (Algorithm 3's plan).
    Controlled,
}

impl ThreadFactors {
    /// (cpu_attention_factor, link_factor).
    ///
    /// Calibration (EXPERIMENTS.md): the paper's measured FlexGen
    /// throughputs imply the PyTorch CPU-attention path sustains only
    /// ~10 GFLOP/s on the dual Xeon under default threading (launch-bound
    /// per-head GEMVs — the very pathology §4 exists to fix), i.e. a
    /// factor of ~0.005 of the platform's sustained CPU FLOP/s.
    /// Parallelism control recovers the Fig. 8 gaps: compute −32%
    /// (0.005 → 0.0074) and transfer staging −20% (0.8 → 1.0).
    pub fn factors(self) -> (f64, f64) {
        match self {
            ThreadFactors::Default => (0.005, 0.80),
            ThreadFactors::Controlled => (0.0074, 1.0),
        }
    }
}

/// Build the ground-truth cost provider for a policy.
///
/// `params` is the kernel quality of the runtime executing the policy;
/// `threads` is its thread-setting quality.
pub fn quant_aware_provider(
    platform: &Platform,
    model: &ModelConfig,
    workload: &Workload,
    policy: Policy,
    params: QuantCostParams,
    threads: ThreadFactors,
) -> BaseCostModel {
    let mut base = BaseCostModel::new(platform, model, workload, policy);
    let (cpu_factor, link_factor) = threads.factors();
    base.cpu_attention_factor = cpu_factor;
    base.link_factor = link_factor;

    let quant = QuantModel::new(platform, model, workload, params);
    let wc = 1.0 - policy.wg;
    let mut extras = TaskExtras::default();

    if policy.weights_dtype.is_quantized() {
        extras.init = quant.quan_pf_wgt_total(wc); // Eq. 3
        extras.load_weight = quant.dequan_wgt_per_layer(wc); // Eq. 4
    }
    if policy.kv_dtype.is_quantized() {
        match policy.attention {
            AttentionPlacement::Gpu => {
                extras.prefill_per_layer = quant.quan_pf_cache_per_layer(); // Eq. 5
                extras.dequant_per_kv_elem = quant.kv_dequant_per_elem(); // Eq. 6
                extras.quant_per_kv_elem = quant.kv_quant_per_elem(); // Eq. 7
            }
            AttentionPlacement::Cpu => {
                // Compressed cache consumed by CPU attention: the
                // (de)quantization moves into the compute task, in host
                // memory (the "always performs worse" bars of Fig. 3's
                // attention-offloading cluster).
                extras.cpu_kv_dequant_per_elem = quant.kv_dequant_per_elem_cpu();
                extras.cpu_kv_quant_per_elem = quant.kv_quant_per_elem_cpu();
            }
        }
    }
    base.extras = extras;
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_hardware::presets;
    use lm_models::presets as models;
    use lm_models::DType;
    use lm_sim::tasks::{CostProvider, TaskKind};

    fn build(policy: Policy, threads: ThreadFactors) -> BaseCostModel {
        quant_aware_provider(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &Workload::motivation(),
            policy,
            QuantCostParams::flexgen_kernels(),
            threads,
        )
    }

    #[test]
    fn fp16_policy_has_no_quant_extras() {
        let m = build(Policy::flexgen_default(), ThreadFactors::Default);
        assert_eq!(m.extras, TaskExtras::default());
    }

    #[test]
    fn quantized_weights_add_init_and_load_costs() {
        let mut p = Policy::flexgen_default();
        p.weights_dtype = DType::Int4;
        p.wg = 0.5;
        let with = build(p, ThreadFactors::Default);
        let mut p16 = p;
        p16.weights_dtype = DType::F16;
        let without = build(p16, ThreadFactors::Default);
        assert!(with.extras.init > 0.0);
        assert!(with.extras.load_weight > 0.0);
        assert_eq!(without.extras.init, 0.0);
        // Init = quarter-size disk read plus the one-time quantization
        // (Eq. 3): strictly more than the bare Int4 disk read.
        assert!(with.init_time() > without.init_time() / 4.0);
    }

    #[test]
    fn kv_quant_extras_follow_attention_placement() {
        let mut p = Policy::flexgen_default();
        p.kv_dtype = DType::Int4;
        // CPU attention: the (de)quant moves into the CPU compute task.
        let cpu = build(p, ThreadFactors::Default);
        assert_eq!(cpu.extras.dequant_per_kv_elem, 0.0);
        assert!(cpu.extras.cpu_kv_dequant_per_elem > 0.0);
        assert!(cpu.extras.cpu_kv_quant_per_elem > 0.0);
        p.attention = AttentionPlacement::Gpu;
        let gpu = build(p, ThreadFactors::Default);
        assert!(gpu.extras.dequant_per_kv_elem > 0.0);
        assert!(gpu.extras.quant_per_kv_elem > 0.0);
        assert!(gpu.extras.prefill_per_layer > 0.0);
        assert_eq!(gpu.extras.cpu_kv_dequant_per_elem, 0.0);
    }

    #[test]
    fn kv_quant_with_cpu_attention_slows_the_compute_task() {
        // Fig. 3's attention-offloading cluster: a compressed cache makes
        // the offloaded attention strictly slower.
        let mut p = Policy::flexgen_default();
        let plain = build(p, ThreadFactors::Default);
        p.kv_dtype = DType::Int4;
        let compressed = build(p, ThreadFactors::Default);
        assert!(compressed.tasks(8)[TaskKind::ComputeCpu] > plain.tasks(8)[TaskKind::ComputeCpu]);
        assert!(compressed.throughput() < plain.throughput());
    }

    #[test]
    fn controlled_threads_speed_up_cpu_attention() {
        let d = build(Policy::flexgen_default(), ThreadFactors::Default);
        let c = build(Policy::flexgen_default(), ThreadFactors::Controlled);
        let (c, d) = (c.tasks(8), d.tasks(8));
        assert!(c[TaskKind::ComputeCpu] < d[TaskKind::ComputeCpu]);
        assert!(c[TaskKind::LoadWeight] < d[TaskKind::LoadWeight]);
    }

    #[test]
    fn fig3_with_attention_offloading_quantization_hurts() {
        // §3.1 Observation 1, first half: with attention offloading,
        // weight quantization lowers throughput (41 -> 32 tokens/s in the
        // paper).
        let no_quant = build(Policy::flexgen_default(), ThreadFactors::Default);
        let mut p = Policy::flexgen_default();
        p.weights_dtype = DType::Int4;
        let quant = build(p, ThreadFactors::Default);
        assert!(
            quant.throughput() < no_quant.throughput(),
            "quant {} vs no-quant {}",
            quant.throughput(),
            no_quant.throughput()
        );
    }

    #[test]
    fn fig3_without_attention_offloading_kv_quant_wins() {
        // §3.1 Observation 1, second half + Observation 2: without
        // attention offloading, KV-cache quantization alone is the best
        // strategy (82 vs 46/35/55 tokens/s in the paper).
        let mut base = Policy::flexgen_default();
        base.attention = AttentionPlacement::Gpu;

        let no_quant = build(base, ThreadFactors::Default).throughput();
        let mut kv = base;
        kv.kv_dtype = DType::Int4;
        let kv_only = build(kv, ThreadFactors::Default).throughput();
        let mut wgt = base;
        wgt.weights_dtype = DType::Int4;
        let wgt_only = build(wgt, ThreadFactors::Default).throughput();
        let mut both = base;
        both.kv_dtype = DType::Int4;
        both.weights_dtype = DType::Int4;
        let both_q = build(both, ThreadFactors::Default).throughput();

        assert!(kv_only > no_quant * 1.3, "kv {kv_only} vs none {no_quant}");
        assert!(wgt_only < no_quant, "wgt {wgt_only} vs none {no_quant}");
        assert!(both_q < kv_only, "both {both_q} vs kv {kv_only}");
        assert!(both_q > wgt_only, "both {both_q} vs wgt {wgt_only}");
    }
}
