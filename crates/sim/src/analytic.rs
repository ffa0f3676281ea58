//! The base analytic cost model: FlexGen's six-task accounting (Eq. 1-2)
//! for an arbitrary [`Policy`], *without* quantization overheads.
//!
//! `lm-offload` extends this with the paper's quantization cost models by
//! filling [`TaskExtras`]; the fields here already honour the policy's
//! dtypes for transfer *sizes* (a 4-bit KV cache moves 4× fewer bytes),
//! which is the benefit side of the quantization ledger.

use crate::policy::{AttentionPlacement, Policy};
use crate::tasks::{total_latency, CostProvider, TaskCosts, TaskExtras, TaskKind};
use lm_hardware::Platform;
use lm_models::{DType, ModelConfig, Workload};

/// Sustained disk→host bandwidth for `T_init` (weights from HDD to CPU
/// memory, step 1.1 of Figure 2).
pub const DISK_BW: f64 = 2e9;

/// Per-task framework dispatch overhead (kernel launches, stream sync) —
/// the constant that separates a Python-framework runtime from raw
/// hardware speeds.
pub const TASK_OVERHEAD: f64 = 1e-4;

/// The base cost model for one (platform, model, workload, policy).
#[derive(Debug, Clone)]
pub struct BaseCostModel {
    pub platform: Platform,
    pub model: ModelConfig,
    pub workload: Workload,
    pub policy: Policy,
    /// Multiplier on effective CPU FLOP/s for offloaded attention.
    ///
    /// The constructor default (0.01) is the *planning belief* FlexGen's
    /// cost model holds — about 2x optimistic versus the measured 0.005
    /// of the PyTorch CPU-attention path ("inaccurately estimating the
    /// performance impact of asynchronous execution", §2.2). Ground-truth
    /// providers overwrite it from `lm_offload::ThreadFactors`.
    pub cpu_attention_factor: f64,
    /// Multiplier on link bandwidth capturing transfer-staging quality
    /// (thread assignment to load/store tasks).
    pub link_factor: f64,
    /// Additive quantization overheads (Eq. 3-7), zero by default.
    pub extras: TaskExtras,
}

impl BaseCostModel {
    pub fn new(
        platform: &Platform,
        model: &ModelConfig,
        workload: &Workload,
        policy: Policy,
    ) -> Self {
        policy.validate().expect("invalid policy");
        model.validate().expect("invalid model");
        BaseCostModel {
            platform: platform.clone(),
            model: model.clone(),
            workload: *workload,
            policy,
            cpu_attention_factor: 0.01,
            link_factor: 1.0,
            extras: TaskExtras::default(),
        }
    }

    /// Streamed weight bytes per layer (the `1-wg` share at the weights'
    /// at-rest precision).
    pub fn weight_bytes_per_layer(&self) -> u64 {
        let full = self
            .policy
            .weights_dtype
            .bytes_for(self.model.weights_per_layer());
        ((1.0 - self.policy.wg) * full as f64) as u64
    }

    /// KV-cache entries held per batch per layer at decode step `i`
    /// (prompt + generated so far + the current token).
    pub fn kv_elems_at(&self, token: u64) -> u64 {
        2 * (self.workload.prompt_len + token + 1) * self.model.hidden * self.workload.gpu_batch
    }

    /// Newly produced KV elements per batch per layer per step.
    pub fn new_kv_elems(&self) -> u64 {
        2 * self.model.hidden * self.workload.gpu_batch
    }

    /// Activation bytes per batch per layer boundary (always fp16 in
    /// flight).
    pub fn activation_bytes(&self) -> u64 {
        ((1.0 - self.policy.hg)
            * DType::F16.bytes_for(self.model.hidden * self.workload.gpu_batch) as f64)
            as u64
    }

    fn h2d(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.platform.h2d_time(bytes) / self.link_factor
        }
    }

    fn d2h(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            0.0
        } else {
            self.platform.d2h_time(bytes) / self.link_factor
        }
    }

    /// Attention FLOPs per batch per layer at step `i`: `QKᵀ` and `A·V`
    /// against `s+i+1` cached positions.
    pub fn attention_flops(&self, token: u64) -> f64 {
        4.0 * (self.workload.prompt_len + token + 1) as f64
            * self.model.hidden as f64
            * self.workload.gpu_batch as f64
    }

    /// Projection + MLP FLOPs per batch per layer (always on GPU).
    pub fn gpu_linear_flops(&self) -> f64 {
        let h1 = self.model.hidden as f64;
        let h2 = self.model.ffn_hidden as f64;
        let b = self.workload.gpu_batch as f64;
        2.0 * (4.0 * h1 * h1 + self.model.mlp_matrices() as f64 * h1 * h2) * b
    }

    /// Effective CPU FLOP/s for offloaded attention under the current
    /// thread-setting quality.
    pub fn cpu_attention_flops(&self) -> f64 {
        self.platform.cpu_flops() * self.cpu_attention_factor
    }

    /// Generated tokens per full run.
    pub fn tokens(&self) -> u64 {
        self.workload.tokens_generated()
    }

    /// End-to-end analytic latency (Eq. 1), excluding `T_init` by default
    /// (steady-state serving reuses resident weights).
    pub fn latency(&self, include_init: bool) -> f64 {
        total_latency(
            self,
            self.model.num_layers,
            self.workload.gen_len,
            self.workload.num_batches,
            include_init,
        )
    }

    /// Analytic inference throughput in tokens/second (the paper's
    /// `bls·n / T` objective).
    pub fn throughput(&self) -> f64 {
        self.tokens() as f64 / self.latency(false)
    }
}

impl CostProvider for BaseCostModel {
    // Forced inline: the serve step cost calls this once per slot, and
    // only when inlined does everything that does not depend on `token`
    // hoist out of that loop (`sim.decode_cost_ns` 80 ns vs 570 ns).
    #[inline(always)]
    fn tasks(&self, token: u64) -> TaskCosts {
        let mut t = TaskCosts::default();
        // Weights for one layer, shared by the whole block.
        t[TaskKind::LoadWeight] =
            self.h2d(self.weight_bytes_per_layer()) + self.extras.load_weight + TASK_OVERHEAD;
        let act = self.activation_bytes();
        if act > 0 {
            t[TaskKind::LoadActivation] = self.h2d(act) + TASK_OVERHEAD;
            t[TaskKind::StoreActivation] = self.d2h(act) + TASK_OVERHEAD;
        }
        let mut gpu_flops = self.gpu_linear_flops();
        match self.policy.attention {
            // Attention on the GPU: the host-resident share of the KV
            // cache crosses the links every step.
            AttentionPlacement::Gpu => {
                let kv = |elems: u64| ((1.0 - self.policy.cg) * elems as f64) as u64;
                let (old, new) = (kv(self.kv_elems_at(token)), kv(self.new_kv_elems()));
                t[TaskKind::LoadCache] = self.h2d(self.policy.kv_dtype.bytes_for(old))
                    + self.extras.dequant_per_kv_elem * old as f64
                    + TASK_OVERHEAD;
                t[TaskKind::StoreCache] = self.d2h(self.policy.kv_dtype.bytes_for(new))
                    + self.extras.quant_per_kv_elem * new as f64
                    + TASK_OVERHEAD;
                gpu_flops += self.attention_flops(token);
            }
            // Offloaded attention: the cache never moves; the CPU pays
            // for attention and for any (de)quantization in host memory.
            AttentionPlacement::Cpu => {
                let quant = self.extras.cpu_kv_dequant_per_elem * self.kv_elems_at(token) as f64
                    + self.extras.cpu_kv_quant_per_elem * self.new_kv_elems() as f64;
                t[TaskKind::ComputeCpu] =
                    self.attention_flops(token) / self.cpu_attention_flops() + quant + TASK_OVERHEAD;
            }
        }
        t[TaskKind::ComputeGpu] = gpu_flops / self.platform.gpu_flops() + TASK_OVERHEAD;
        t
    }

    fn prefill_layer(&self) -> f64 {
        let s = self.workload.prompt_len as f64;
        let bls = self.workload.block_size() as f64;
        let h1 = self.model.hidden as f64;
        // Projections/MLP over s tokens for the whole block, plus the
        // quadratic attention term.
        let linear = self.gpu_linear_flops() * s * self.workload.num_batches as f64;
        let attn = 4.0 * s * s * h1 * bls / 2.0; // causal half
        let compute = (linear + attn) / self.platform.gpu_flops();
        // Prefilled KV leaves the GPU: to CPU memory under both
        // placements (Figure 2 step 1.3).
        let kv_bytes = self
            .policy
            .kv_dtype
            .bytes_for(2 * (self.workload.prompt_len + 1) * self.model.hidden)
            * self.workload.block_size();
        let kv_store = self.d2h(((1.0 - self.policy.cg) * kv_bytes as f64) as u64);
        let weights = self.h2d(self.weight_bytes_per_layer());
        compute.max(kv_store).max(weights) + self.extras.prefill_per_layer + TASK_OVERHEAD
    }

    fn init_time(&self) -> f64 {
        let bytes = self
            .policy
            .weights_dtype
            .bytes_for(self.model.layer_params());
        bytes as f64 / DISK_BW + self.extras.init
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{step_load, t_gen, Resource};
    use lm_hardware::presets;
    use lm_models::presets as models;

    fn motivation(policy: Policy) -> BaseCostModel {
        BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &Workload::motivation(),
            policy,
        )
    }

    #[test]
    fn cpu_attention_zeroes_cache_traffic() {
        let m = motivation(Policy::flexgen_default());
        let t = m.tasks(5);
        assert_eq!(t[TaskKind::LoadCache], 0.0);
        assert_eq!(t[TaskKind::StoreCache], 0.0);
        assert!(t[TaskKind::ComputeCpu] > 0.0);
    }

    #[test]
    fn gpu_attention_cache_traffic_grows_with_token() {
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let m = motivation(p);
        assert!(m.tasks(10)[TaskKind::LoadCache] > m.tasks(0)[TaskKind::LoadCache]);
        assert_eq!(m.tasks(3)[TaskKind::ComputeCpu], 0.0);
        assert!(m.tasks(3)[TaskKind::ComputeGpu] > 0.0);
    }

    #[test]
    fn quantized_kv_moves_fewer_bytes() {
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let f16 = motivation(p);
        let mut p4 = p;
        p4.kv_dtype = DType::Int4;
        let i4 = motivation(p4);
        // 4x fewer bytes -> load_cache nearly 4x cheaper (minus overheads).
        assert!(i4.tasks(50)[TaskKind::LoadCache] < f16.tasks(50)[TaskKind::LoadCache] * 0.35);
    }

    #[test]
    fn wg_reduces_weight_load() {
        let mut p = Policy::flexgen_default();
        let all_stream = motivation(p);
        p.wg = 0.55;
        let partial = motivation(p);
        let ratio = partial.weight_bytes_per_layer() as f64
            / all_stream.weight_bytes_per_layer() as f64;
        assert!((ratio - 0.45).abs() < 0.01);
        assert!(partial.tasks(0)[TaskKind::LoadWeight] < all_stream.tasks(0)[TaskKind::LoadWeight]);
    }

    #[test]
    fn motivation_no_quant_is_weight_bound_with_cpu_attention() {
        // §3.1: with attention offloading and no quantization, the weight
        // stream dominates T_gen (activations add only a few percent).
        let m = motivation(Policy::flexgen_default());
        let t = t_gen(&m, 64, m.workload.num_batches);
        let lw = m.tasks(64)[TaskKind::LoadWeight];
        assert!(
            t >= lw && t < lw * 1.10,
            "weights should dominate: t_gen {t} vs load_weight {lw}"
        );
    }

    #[test]
    fn binding_resource_follows_the_bottleneck() {
        // The FlexGen default streams every weight: the H2D link binds —
        // until offloaded attention gets 10x slower, then the CPU does.
        let mut m = motivation(Policy::flexgen_default());
        let nb = m.workload.num_batches;
        assert_eq!(step_load(&m, 64, nb).binding(), Resource::H2d);
        m.cpu_attention_factor /= 10.0;
        let load = step_load(&m, 64, nb);
        assert_eq!(load.binding(), Resource::Cpu);
        assert_eq!(load.time(), nb as f64 * m.tasks(64)[TaskKind::ComputeCpu]);
    }

    #[test]
    fn gpu_attention_without_quant_is_kv_bound_late() {
        // Table 1 (without attention offloading): KV traffic dwarfs
        // weights late in generation.
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let m = motivation(p);
        let nb = m.workload.num_batches as f64;
        let t = m.tasks(100);
        assert!(t[TaskKind::LoadCache] * nb > t[TaskKind::LoadWeight] * 2.0);
    }

    #[test]
    fn throughput_positive_and_scale_sane() {
        let m = motivation(Policy::flexgen_default());
        let tput = m.throughput();
        // Shape-level sanity: tens to thousands of tokens/s.
        assert!(tput > 5.0 && tput < 20_000.0, "tput {tput}");
    }

    #[test]
    fn init_time_scales_with_dtype() {
        let f16 = motivation(Policy::flexgen_default());
        let mut p = Policy::flexgen_default();
        p.weights_dtype = DType::Int4;
        let i4 = motivation(p);
        assert!((f16.init_time() / i4.init_time() - 4.0).abs() < 0.1);
    }

    #[test]
    fn latency_includes_init_only_on_request() {
        let m = motivation(Policy::flexgen_default());
        assert!(m.latency(true) > m.latency(false));
        assert!((m.latency(true) - m.latency(false) - m.init_time()).abs() < 1e-9);
    }
}
