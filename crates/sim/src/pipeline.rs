//! Pipeline-parallel multi-GPU simulation (§5.5, Fig. 9).
//!
//! Layers are split into one stage per GPU; the zig-zag block's batches
//! flow through the stages as micro-batches. Host resources (the CPU
//! threads doing offloaded attention and transfer staging) are *shared*
//! by all stages — the contention term that separates LM-Offload's
//! per-stage thread partitioning from FlexGen's default threading as the
//! GPU count grows.

use crate::exec::link_faults;
use crate::tasks::{CostProvider, Resource, StepLoad, TaskKind};
use lm_fault::FaultInjector;
use lm_models::Workload;
use serde::{Deserialize, Serialize};

/// Result of a pipeline-parallel run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineReport {
    pub num_gpus: u32,
    /// Seconds per decode step in steady state.
    pub step_time: f64,
    /// Decode-phase time for the whole generation.
    pub decode_time: f64,
    /// Tokens generated.
    pub tokens: u64,
    /// Aggregate throughput, tokens/second.
    pub throughput: f64,
    /// Pipeline-fill overhead fraction (idle bubbles).
    pub bubble_fraction: f64,
}

/// CPU-sharing contention multiplier applied to the CPU-side task times of
/// each stage when `num_gpus` stages share the host.
///
/// `per_stage_threads` = true models LM-Offload's controller, which
/// partitions the host threads across stages (near-flat contention);
/// false models default threading where every stage's operators fight
/// over all threads (superlinear contention).
pub fn host_contention(num_gpus: u32, per_stage_threads: bool) -> f64 {
    let g = num_gpus as f64;
    if per_stage_threads {
        // Partitioned: each stage gets 1/G of the threads, but attention
        // work per stage also shrinks with layers/G, so contention is a
        // mild constant factor for coordination.
        1.0 + 0.05 * (g - 1.0)
    } else {
        // Oversubscribed: every stage launches operators over all
        // threads; cache thrash and scheduler churn compound.
        1.0 + 0.45 * (g - 1.0)
    }
}

/// Simulate pipeline-parallel decode. The provider describes *one layer*
/// of cost on one GPU (as in the single-GPU simulator); this function
/// aggregates stages of `num_layers / num_gpus` layers with shared-host
/// contention on CPU-side tasks.
pub fn simulate_pipeline(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    num_gpus: u32,
    per_stage_threads: bool,
) -> PipelineReport {
    pipeline_impl(provider, w, num_layers, num_gpus, per_stage_threads, None)
}

/// Like [`simulate_pipeline`], with an attached fault injector: per
/// decode step, the stage links may run degraded (`"sim.h2d"` /
/// `"sim.d2h"` sites, keyed by step) and the weight stream may stall.
/// A disabled injector reproduces [`simulate_pipeline`] bit-for-bit.
pub fn simulate_pipeline_faulted(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    num_gpus: u32,
    per_stage_threads: bool,
    fault: &FaultInjector,
) -> PipelineReport {
    pipeline_impl(
        provider,
        w,
        num_layers,
        num_gpus,
        per_stage_threads,
        Some(fault),
    )
}

fn pipeline_impl(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    num_gpus: u32,
    per_stage_threads: bool,
    fault: Option<&FaultInjector>,
) -> PipelineReport {
    assert!(num_gpus >= 1, "need at least one GPU");
    assert!(
        num_layers >= num_gpus,
        "fewer layers than pipeline stages"
    );
    let layers_per_stage = (num_layers as f64 / num_gpus as f64).ceil();
    let nb = w.num_batches.max(1) as f64;
    let contention = host_contention(num_gpus, per_stage_threads);
    let decode_steps = w.gen_len.saturating_sub(1);

    // Steady-state: with nb micro-batches in flight, each decode step's
    // time is governed by the slowest stage; pipeline fill/drain adds
    // (G-1)/nb bubbles per step.
    let bubble = (num_gpus as f64 - 1.0) / nb;
    let mut decode_time = 0.0;
    for i in 0..decode_steps {
        let (tasks, stall_s) = link_faults(provider.tasks(i), fault, i);
        // One batch's load per resource. Every host-side task — offloaded
        // attention *and* the transfer staging copies feeding the links —
        // contends for the shared CPU.
        let mut batch = StepLoad::default();
        batch.add_batches(&tasks, 1.0);
        let cpu_side = batch[Resource::Cpu] * contention;
        let link_loads = batch[Resource::H2d] * contention;
        let link_stores = batch[Resource::D2h] * contention;
        let gpu_side = batch[Resource::Gpu];
        let weights = tasks[TaskKind::LoadWeight] * contention + stall_s;
        // Per-stage step time: per-batch tasks serialise over nb batches,
        // weights stream once per layer.
        let stage = layers_per_stage
            * (weights.max(link_loads * nb).max(link_stores * nb).max((cpu_side + gpu_side) * nb));
        decode_time += stage * (1.0 + bubble);
    }
    let prefill = provider.prefill_layer() * layers_per_stage * (1.0 + bubble);
    let tokens = w.tokens_generated();
    let total = prefill + decode_time;
    PipelineReport {
        num_gpus,
        step_time: if decode_steps > 0 {
            decode_time / decode_steps as f64
        } else {
            0.0
        },
        decode_time,
        tokens,
        throughput: tokens as f64 / total.max(f64::MIN_POSITIVE),
        bubble_fraction: bubble / (1.0 + bubble),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::BaseCostModel;
    use crate::policy::Policy;
    use lm_hardware::presets;
    use lm_models::presets as models;

    /// Fig. 9's setup: OPT-13B, s=256, n=64, weak scaling (batch doubles
    /// with GPU count).
    fn weak_scaling_workload(num_gpus: u32) -> Workload {
        Workload::new(256, 64, 8 * num_gpus as u64, 4)
    }

    fn model(num_gpus: u32) -> BaseCostModel {
        BaseCostModel::new(
            &presets::multi_gpu_v100(num_gpus),
            &models::opt_13b(),
            &weak_scaling_workload(num_gpus),
            Policy::flexgen_default(),
        )
    }

    #[test]
    fn host_contention_shapes() {
        // Partitioned threading stays near-flat; shared threading
        // compounds with GPU count; both are 1.0 on a single stage.
        assert_eq!(host_contention(1, true), 1.0);
        assert_eq!(host_contention(1, false), 1.0);
        for g in 2..=4 {
            let part = host_contention(g, true);
            let shared = host_contention(g, false);
            assert!(part < shared, "g={g}");
            assert!(part < 1.25, "partitioned must stay mild: {part}");
        }
        assert!(host_contention(4, false) > host_contention(2, false));
    }

    #[test]
    fn weak_scaling_throughput_grows() {
        let mut last = 0.0;
        for g in 1..=4 {
            let m = model(g);
            let r = simulate_pipeline(&m, &m.workload, m.model.num_layers, g, true);
            assert!(
                r.throughput > last,
                "throughput must grow under weak scaling: g={g}, {} vs {last}",
                r.throughput
            );
            last = r.throughput;
        }
    }

    #[test]
    fn partitioned_threads_beat_shared_threads_and_gap_grows() {
        let mut last_gap = 0.0;
        for g in [2u32, 4] {
            let m = model(g);
            let tuned = simulate_pipeline(&m, &m.workload, m.model.num_layers, g, true);
            let default = simulate_pipeline(&m, &m.workload, m.model.num_layers, g, false);
            let gap = tuned.throughput / default.throughput;
            assert!(gap > 1.0, "g={g}: tuned must win ({gap})");
            assert!(gap > last_gap, "gap must grow with GPUs");
            last_gap = gap;
        }
    }

    #[test]
    fn bubbles_shrink_with_more_microbatches() {
        let m = model(4);
        let few = Workload::new(256, 64, 8, 2);
        let many = Workload::new(256, 64, 8, 16);
        let r_few = simulate_pipeline(&m, &few, 40, 4, true);
        let r_many = simulate_pipeline(&m, &many, 40, 4, true);
        assert!(r_many.bubble_fraction < r_few.bubble_fraction);
    }

    #[test]
    fn single_gpu_pipeline_matches_no_bubbles() {
        let m = model(1);
        let r = simulate_pipeline(&m, &m.workload, m.model.num_layers, 1, true);
        assert_eq!(r.bubble_fraction, 0.0);
        assert_eq!(r.num_gpus, 1);
    }

    #[test]
    fn faulted_pipeline_slows_and_disabled_matches_exactly() {
        use lm_fault::{FaultConfig, FaultInjector};
        let m = model(2);
        let clean = simulate_pipeline(&m, &m.workload, m.model.num_layers, 2, true);
        let off = simulate_pipeline_faulted(
            &m,
            &m.workload,
            m.model.num_layers,
            2,
            true,
            &FaultInjector::disabled(),
        );
        assert_eq!(clean.decode_time, off.decode_time);
        assert_eq!(clean.throughput, off.throughput);
        let fault = FaultInjector::new(FaultConfig {
            link_degrade_rate: 0.5,
            link_degrade_factor: 0.25,
            ..FaultConfig::quiescent(23)
        });
        let degraded =
            simulate_pipeline_faulted(&m, &m.workload, m.model.num_layers, 2, true, &fault);
        assert!(degraded.decode_time > clean.decode_time);
        assert!(fault.stats().link_degrades > 0);
    }

    #[test]
    #[should_panic(expected = "fewer layers than pipeline stages")]
    fn too_many_stages_rejected() {
        let m = model(2);
        simulate_pipeline(&m, &m.workload, 1, 2, true);
    }
}
