//! Event-driven execution of the decode loop (Algorithm 1).
//!
//! Where the analytic model assumes perfect overlap (`T_gen = max(...)`),
//! this simulator *executes* the six tasks against explicit hardware
//! resources — the H2D link, the D2H link, the CPU and the GPU — with
//! FIFO queueing, per-batch dependency chains, and layer-to-layer
//! pipelining (loading layer `j+1`'s weights while layer `j` computes).
//! The integration tests check the analytic model against this timeline.

use crate::tasks::{CostProvider, Resource, TaskCosts, TaskKind};
use lm_fault::FaultInjector;
use lm_models::Workload;
use lm_trace::Span;
use serde::{Deserialize, Serialize};

/// Result of a simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Decode-phase makespan, seconds.
    pub decode_time: f64,
    /// Prefill-phase time, seconds.
    pub prefill_time: f64,
    /// Tokens generated (block size × generation length).
    pub tokens: u64,
    /// Per-task busy time (Fig. 8's bars).
    pub breakdown: TaskCosts,
    /// tokens / (prefill + decode).
    pub throughput: f64,
}

/// Simulate prefill + decode for `num_layers` layers under `provider`.
///
/// The decode phase follows Algorithm 1's triple loop. Dependencies:
/// - `compute(i, j, k)` needs layer `j`'s weights for step `i`, that
///   batch's cache/activation loads, and `compute(i, j-1, k)` (its input
///   activations) — with layer `-1` of step `i` chaining to layer `l-1`
///   of step `i-1`;
/// - stores follow their batch's compute;
/// - loads/stores queue FIFO on the links, compute queues on CPU/GPU.
pub fn simulate(provider: &impl CostProvider, w: &Workload, num_layers: u32) -> SimReport {
    simulate_impl(provider, w, num_layers, None, None)
}

/// Like [`simulate`], but with an attached fault injector: per
/// `(step, layer)` window, the H2D/D2H links may run degraded
/// (`"sim.h2d"` / `"sim.d2h"` sites — transfer durations stretch by the
/// inverse bandwidth factor) and the weight stream may stall (virtual
/// extra latency, no wall-clock sleep). The FIFO resources then re-form
/// the overlap around the stretched tasks, so the schedule degrades
/// gracefully instead of serialising. A disabled injector reproduces
/// [`simulate`] bit-for-bit.
pub fn simulate_faulted(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    fault: &FaultInjector,
) -> SimReport {
    simulate_impl(provider, w, num_layers, None, Some(fault))
}

/// Like [`simulate`], additionally recording per-task [`Span`]s for the
/// first `trace_steps` decode steps (timelines of long runs are huge; the
/// overlap structure repeats per step).
pub fn simulate_traced(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    trace_steps: u64,
) -> (SimReport, Vec<Span>) {
    let mut spans = Vec::new();
    let report = simulate_impl(provider, w, num_layers, Some((&mut spans, trace_steps)), None);
    (report, spans)
}

/// Per-task busy seconds the analytic cost model predicts for the first
/// `steps` decode steps — the "predicted" side of an `lm_trace` drift
/// report against the spans from [`simulate_traced`]: per step, every
/// layer streams its weights once and runs each per-batch task once per
/// batch, `Σᵢ l·(weights + nb·per-batch)`.
pub fn predicted_task_totals(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    steps: u64,
) -> TaskCosts {
    let l = num_layers as f64;
    let nb = w.num_batches as f64;
    let mut totals = TaskCosts::default();
    for i in 0..w.gen_len.saturating_sub(1).min(steps) {
        let tasks = provider.tasks(i);
        for kind in TaskKind::ALL {
            let runs = if kind == TaskKind::LoadWeight { l } else { l * nb };
            totals[kind] += runs * tasks[kind];
        }
    }
    totals
}

/// `tasks` as one fault window sees them, and the seconds the weight
/// stream stalls in it: a degraded link stretches every transfer in the
/// window by the inverse bandwidth factor, a stall adds fixed latency on
/// top. With faults off the stretches are exactly 1.0 and the stall 0.0,
/// so the arithmetic they enter is bit-identical to a clean run.
pub(crate) fn link_faults(
    tasks: TaskCosts,
    fault: Option<&FaultInjector>,
    key: u64,
) -> (TaskCosts, f64) {
    let Some(fi) = fault else {
        return (tasks, 0.0);
    };
    let stretch = |site| {
        fi.bandwidth_factor(site, key)
            .map_or(1.0, |factor| 1.0 / factor.max(1e-9))
    };
    let (h2d, d2h) = (stretch("sim.h2d"), stretch("sim.d2h"));
    let stall = fi.transfer_stall("sim.h2d", key);
    (tasks.stretched(h2d, d2h), stall.map_or(0.0, |s| s.as_secs_f64()))
}

/// Algorithm 1's per-batch body in issue order: prefetch the batch's
/// cache and activations, compute (the CPU half, offloaded attention,
/// first), write back. `LoadWeight` precedes it once per layer.
const PER_BATCH: [TaskKind; 6] = [
    TaskKind::LoadCache,
    TaskKind::LoadActivation,
    TaskKind::ComputeCpu,
    TaskKind::ComputeGpu,
    TaskKind::StoreCache,
    TaskKind::StoreActivation,
];

/// The four serially-reusable hardware resources (FIFO each), with the
/// busy-time ledger and the optional span recorder every task passes.
struct Timeline<'a> {
    /// When each [`Resource`] next falls idle.
    free_at: [f64; Resource::ALL.len()],
    breakdown: TaskCosts,
    /// Span sink and the number of leading decode steps it records.
    trace: Option<(&'a mut Vec<Span>, u64)>,
}

impl Timeline<'_> {
    /// Occupy `kind`'s resource for `dur` seconds no earlier than
    /// `ready`; returns the completion time.
    fn run(
        &mut self,
        kind: TaskKind,
        (step, layer, batch): (u64, u32, Option<u32>),
        ready: f64,
        dur: f64,
    ) -> f64 {
        let free_at = &mut self.free_at[kind.resource() as usize];
        let end = ready.max(*free_at) + dur;
        *free_at = end;
        self.breakdown[kind] += dur;
        if let Some((spans, cap)) = &mut self.trace {
            if step < *cap {
                spans.push(Span {
                    kind,
                    step,
                    layer,
                    batch,
                    start: end - dur,
                    end,
                });
            }
        }
        end
    }
}

fn simulate_impl(
    provider: &impl CostProvider,
    w: &Workload,
    num_layers: u32,
    trace: Option<(&mut Vec<Span>, u64)>,
    fault: Option<&FaultInjector>,
) -> SimReport {
    let decode_steps = w.gen_len.saturating_sub(1);
    let mut timeline = Timeline {
        free_at: [0.0; Resource::ALL.len()],
        breakdown: TaskCosts::default(),
        trace,
    };

    // Prefill: layer-sequential on the GPU (all batches together).
    let prefill_time = provider.prefill_layer() * num_layers as f64;

    // compute_done[k]: completion time of batch k's previous-layer GPU
    // compute (the activation dependency chain).
    let mut compute_done = vec![prefill_time; w.num_batches as usize];

    for i in 0..decode_steps {
        let clean = provider.tasks(i);
        for j in 0..num_layers {
            let (tasks, stall_s) = link_faults(clean, fault, i * num_layers as u64 + j as u64);
            // Weights for this layer stream once per (step, layer); they
            // were prefetchable since the previous layer started, so they
            // queue on the link as soon as it frees.
            let lw = tasks[TaskKind::LoadWeight] + stall_s;
            let weights_ready = timeline.run(TaskKind::LoadWeight, (i, j, None), 0.0, lw);

            for (k, batch_done) in compute_done.iter_mut().enumerate() {
                // `at`: when this batch's next dependent task may start.
                let mut at = weights_ready.max(*batch_done);
                for kind in PER_BATCH {
                    let dur = tasks[kind];
                    // A zero cost means the policy has no such task.
                    if dur > 0.0 {
                        let id = (i, j, Some(k as u32));
                        match kind.resource() {
                            // Loads prefetch: they queue as soon as the
                            // link frees, and compute waits for them.
                            Resource::H2d => at = at.max(timeline.run(kind, id, 0.0, dur)),
                            // The compute halves chain.
                            Resource::Cpu | Resource::Gpu => at = timeline.run(kind, id, at, dur),
                            // Stores trail the compute on the D2H link.
                            Resource::D2h => {
                                timeline.run(kind, id, at, dur);
                            }
                        }
                    }
                }
                *batch_done = at;
            }
        }
    }

    // The run ends when every batch's last compute and all transfers
    // drain.
    let end = compute_done
        .iter()
        .copied()
        .fold(prefill_time, f64::max)
        .max(timeline.free_at[Resource::D2h as usize])
        .max(timeline.free_at[Resource::H2d as usize]);
    let decode_time = (end - prefill_time).max(0.0);
    let tokens = w.tokens_generated();
    let total = prefill_time + decode_time;
    SimReport {
        decode_time,
        prefill_time,
        tokens,
        breakdown: timeline.breakdown,
        throughput: tokens as f64 / total.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::BaseCostModel;
    use crate::policy::{AttentionPlacement, Policy};
    use lm_hardware::presets;
    use lm_models::presets as models;
    use lm_models::Workload;

    fn run(policy: Policy, w: Workload) -> (SimReport, BaseCostModel) {
        let m = BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &w,
            policy,
        );
        (simulate(&m, &w, m.model.num_layers), m)
    }

    #[test]
    fn simulated_close_to_analytic_when_one_task_dominates() {
        // Weight-stream-bound configuration: the analytic max() model and
        // the event-driven timeline should agree within pipeline slack.
        let w = Workload::new(64, 16, 64, 4);
        let (report, model) = run(Policy::flexgen_default(), w);
        let analytic = model.latency(false);
        let simulated = report.prefill_time + report.decode_time;
        let rel = (simulated - analytic).abs() / analytic;
        assert!(
            rel < 0.30,
            "analytic {analytic:.3}s vs simulated {simulated:.3}s (rel {rel:.2})"
        );
    }

    #[test]
    fn breakdown_accounts_all_six_tasks_gpu_attention() {
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let w = Workload::new(16, 4, 8, 2);
        let (report, _) = run(p, w);
        for kind in TaskKind::ALL {
            let absent = kind == TaskKind::ComputeCpu;
            assert_eq!(report.breakdown[kind] == 0.0, absent, "{}", kind.name());
        }
    }

    #[test]
    fn cpu_attention_has_no_cache_tasks() {
        let w = Workload::new(16, 4, 8, 2);
        let (report, _) = run(Policy::flexgen_default(), w);
        assert_eq!(report.breakdown[TaskKind::LoadCache], 0.0);
        assert_eq!(report.breakdown[TaskKind::StoreCache], 0.0);
        assert!(report.breakdown[TaskKind::ComputeCpu] > 0.0);
    }

    #[test]
    fn throughput_improves_with_gpu_resident_weights() {
        let w = Workload::new(64, 8, 64, 4);
        let (all_stream, _) = run(Policy::flexgen_default(), w);
        let mut p = Policy::flexgen_default();
        p.wg = 0.8;
        let (mostly_resident, _) = run(p, w);
        assert!(mostly_resident.throughput > all_stream.throughput * 1.5);
    }

    #[test]
    fn single_token_run_is_prefill_only() {
        let w = Workload::new(16, 1, 8, 2);
        let (report, _) = run(Policy::flexgen_default(), w);
        assert_eq!(report.decode_time, 0.0);
        assert!(report.prefill_time > 0.0);
    }

    #[test]
    fn traced_spans_respect_resource_exclusivity() {
        use lm_trace::resource_overlaps;
        let w = Workload::new(16, 4, 8, 3);
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let m = BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &w,
            p,
        );
        let (report, spans) = simulate_traced(&m, &w, 4, 2);
        assert!(!spans.is_empty());
        assert!(resource_overlaps(&spans).is_empty(), "FIFO resources must not overlap");
        // Tracing must not change the result.
        let untraced = simulate(&m, &w, 4);
        assert_eq!(report.throughput, untraced.throughput);
        // Span cap respected: only steps 0 and 1 recorded.
        assert!(spans.iter().all(|s| s.step < 2));
    }

    #[test]
    fn traced_spans_cover_all_six_tasks_under_gpu_attention() {
        let w = Workload::new(16, 3, 8, 2);
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let m = BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &w,
            p,
        );
        let (_, spans) = simulate_traced(&m, &w, 3, 10);
        let kinds: std::collections::HashSet<&str> =
            spans.iter().map(|s| s.kind.name()).collect();
        for k in ["load_weight", "load_cache", "load_activation", "store_cache", "store_activation", "compute_gpu"] {
            assert!(kinds.contains(k), "missing {k}");
        }
    }

    #[test]
    fn predicted_totals_match_traced_spans_exactly() {
        let w = Workload::new(16, 4, 8, 3);
        let mut p = Policy::flexgen_default();
        p.attention = AttentionPlacement::Gpu;
        let m = BaseCostModel::new(&presets::single_gpu_a100(), &models::opt_30b(), &w, p);
        let steps = 3;
        let (_, spans) = simulate_traced(&m, &w, 6, steps);
        let predicted = predicted_task_totals(&m, &w, 6, steps);
        let observed = TaskCosts::from_spans(&spans);
        for kind in TaskKind::ALL {
            let (pred, obs) = (predicted[kind], observed[kind]);
            assert!(
                (obs - pred).abs() <= 1e-9 * pred.max(1.0),
                "{}: predicted {pred} vs observed {obs}",
                kind.name()
            );
        }
    }

    #[test]
    fn disabled_injector_reproduces_clean_run_exactly() {
        use lm_fault::FaultInjector;
        let w = Workload::new(32, 8, 16, 2);
        let m = BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &w,
            Policy::flexgen_default(),
        );
        let clean = simulate(&m, &w, m.model.num_layers);
        let off = simulate_faulted(&m, &w, m.model.num_layers, &FaultInjector::disabled());
        assert_eq!(clean.decode_time, off.decode_time);
        assert_eq!(clean.prefill_time, off.prefill_time);
        assert_eq!(clean.throughput, off.throughput);
    }

    #[test]
    fn link_degradation_slows_decode_but_schedule_reoverlaps() {
        use lm_fault::{FaultConfig, FaultInjector};
        let w = Workload::new(64, 16, 64, 4);
        let m = BaseCostModel::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &w,
            Policy::flexgen_default(),
        );
        let clean = simulate(&m, &w, m.model.num_layers);
        let cfg = FaultConfig {
            link_degrade_rate: 0.4,
            link_degrade_factor: 0.25,
            stall_rate: 0.1,
            stall_ms: 5,
            ..FaultConfig::quiescent(17)
        };
        let fault = FaultInjector::new(cfg.clone());
        let degraded = simulate_faulted(&m, &w, m.model.num_layers, &fault);
        assert!(
            degraded.decode_time > clean.decode_time * 1.05,
            "degraded {} vs clean {}",
            degraded.decode_time,
            clean.decode_time
        );
        let stats = fault.stats();
        assert!(stats.link_degrades > 0);
        assert!(stats.transfer_stalls > 0);
        // The six-task schedule must re-form the overlap around the
        // stretched transfers, not serialise: makespan < serial sum.
        assert!(
            degraded.decode_time < degraded.breakdown.total(),
            "schedule must still overlap under degradation"
        );
        // Deterministic by seed: a fresh injector with the same config
        // reproduces the exact timeline and event sequence.
        let fault2 = FaultInjector::new(cfg);
        let again = simulate_faulted(&m, &w, m.model.num_layers, &fault2);
        assert_eq!(degraded.decode_time, again.decode_time);
        assert_eq!(fault.events(), fault2.events());
    }

    #[test]
    fn longer_generation_takes_longer() {
        let (short, _) = run(Policy::flexgen_default(), Workload::new(64, 4, 32, 2));
        let (long, _) = run(Policy::flexgen_default(), Workload::new(64, 16, 32, 2));
        assert!(long.decode_time > short.decode_time * 3.0);
    }
}
