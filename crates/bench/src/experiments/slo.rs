//! `repro slo` — SLO enforcement under overload (DESIGN.md §9.2): the
//! same seeded traffic trace is served twice under an aggressive TTFT
//! objective — once in *observe* mode (the monitor predicts violations
//! but never acts) and once *enforcing* with every actuator armed
//! (deadline-aware shedding, lowest-priority preemption, and the
//! model-guided degrade ladder from `lm_offload::degrade`). The gate:
//! observe mode must violate the objective, enforcing mode must meet it
//! with at least one actuator visibly firing, and continuous batching
//! must still out-run the sequential baseline.
//!
//! TTFT percentiles are computed exactly from the responses' virtual
//! timestamps (nearest rank), not from the ~9%-error log-scale trace
//! histograms, so the verdicts are sharp.

use lm_offload::{DegradationController, QuantCostParams};
use lm_serve::preflight::{preflight, ttft_floor_s};
use lm_serve::{
    conform, synth_traffic, AnalyticBackend, DegradeRung, RejectReason, ServeBackend, ServeConfig,
    ServeMode, ServeOutcome, ServePlan, ServeSession, SloPolicy,
};
use super::Conformed;
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};

/// SLO target as a multiple of the plan's physical TTFT floor (one
/// padded-group prefill plus one full-occupancy decode step). Low enough
/// that unprotected overload violates it, high enough that shedding and
/// preemption can hold it.
pub const SLO_FLOOR_HEADROOM: f64 = 3.0;

/// One serving mode (observe or enforcing) under the objective.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloModeRow {
    pub mode: String,
    pub completed: usize,
    pub rejected: usize,
    pub cancelled: usize,
    /// Requests shed at admission with `WouldMissDeadline`.
    pub shed: u64,
    pub preemptions: u64,
    pub degradations: u64,
    /// Boundaries where the monitor predicted a p99 TTFT violation.
    pub predicted_violations: u64,
    pub deadline_misses: u64,
    /// Exact nearest-rank p99 TTFT over completed requests, seconds.
    pub achieved_ttft_p99_s: f64,
    pub meets_slo: bool,
    pub tokens_per_s: f64,
}

/// Everything `repro slo` writes to `results/slo.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloReport {
    pub seed: u64,
    pub rps: f64,
    pub requests: usize,
    pub plan: ServePlan,
    /// The TTFT objective, virtual seconds.
    pub ttft_p99_slo_s: f64,
    /// The plan's physical TTFT floor the objective is derived from.
    pub floor_ttft_s: f64,
    /// Rungs of the model-guided degrade ladder handed to the scheduler.
    pub ladder_rungs: usize,
    pub observe: SloModeRow,
    pub enforced: SloModeRow,
    pub sequential_tokens_per_s: f64,
    /// Enforcing-mode throughput ≥ the sequential baseline's.
    pub continuous_beats_sequential: bool,
    /// The `repro slo` gate: observe violates, enforcing meets, actuators
    /// fired, and continuous still dominates sequential.
    pub slo_ok: bool,
}

/// Exact nearest-rank percentile over the responses' TTFTs, seconds.
fn ttft_percentile(out: &ServeOutcome, q: f64) -> f64 {
    let mut ttfts: Vec<f64> = out.responses.iter().map(|r| r.ttft_s()).collect();
    if ttfts.is_empty() {
        return 0.0;
    }
    ttfts.sort_by(f64::total_cmp);
    let rank = ((ttfts.len() as f64) * q).ceil() as usize;
    ttfts[rank.saturating_sub(1).min(ttfts.len() - 1)]
}

fn mode_row(mode: &str, slo_s: f64, out: &ServeOutcome) -> SloModeRow {
    let shed = out
        .rejections
        .iter()
        .filter(|r| matches!(r.reason, RejectReason::WouldMissDeadline { .. }))
        .count() as u64;
    let p99 = ttft_percentile(out, 0.99);
    SloModeRow {
        mode: mode.to_string(),
        completed: out.responses.len(),
        rejected: out.rejections.len(),
        cancelled: out.cancellations.len(),
        shed,
        preemptions: out.stats.preemptions,
        degradations: out.stats.degradations,
        predicted_violations: out.stats.predicted_violations,
        deadline_misses: out.deadline_misses,
        achieved_ttft_p99_s: p99,
        meets_slo: p99 <= slo_s,
        tokens_per_s: out.tokens_per_s(),
    }
}

/// The model-guided ladder for the analytic backend's own policy,
/// scored by the same evaluator that ranks engine fallbacks.
pub fn model_guided_ladder(backend: &AnalyticBackend) -> Vec<DegradeRung> {
    let controller = DegradationController::new(
        &lm_hardware::presets::single_gpu_a100(),
        backend.model(),
        &lm_models::Workload::motivation(),
        QuantCostParams::lm_offload_kernels(),
    );
    controller.serve_ladder(backend.policy())
}

/// Serve `n` seeded requests at `rps` in observe and enforcing mode.
/// Returns the report and the lifecycle verdict on both runs.
pub fn run(seed: u64, rps: f64, n: usize) -> (SloReport, Vec<Conformed>) {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let ladder = model_guided_ladder(&backend);
    let ladder_rungs = ladder.len();

    // Derive the floor from the same plan both modes share.
    let base_plan = preflight(&backend, &ServeConfig::default(), None)
        .unwrap_or_else(|e| panic!("admission planning failed: {e}"));
    let floor_ttft_s = ttft_floor_s(&base_plan, &backend);
    let slo_s = floor_ttft_s * SLO_FLOOR_HEADROOM;

    let observe_cfg = ServeConfig {
        tracer: Tracer::new(),
        slo: Some(SloPolicy::observe(slo_s)),
        ..ServeConfig::default()
    };
    let (plan, observe_out) = ServeSession::new(&backend)
        .config(observe_cfg)
        .run(traffic.clone())
        .unwrap_or_else(|e| panic!("observe-mode serving failed: {e}"))
        .into_continuous();

    let enforced_cfg = ServeConfig {
        tracer: Tracer::new(),
        slo: Some(SloPolicy::enforcing(slo_s)),
        ladder,
        ..ServeConfig::default()
    };
    let (enforced_plan, enforced_out) = ServeSession::new(&backend)
        .config(enforced_cfg)
        .run(traffic.clone())
        .unwrap_or_else(|e| panic!("enforcing-mode serving failed: {e}"))
        .into_continuous();

    let seq = ServeSession::new(&backend)
        .mode(ServeMode::Sequential)
        .run(traffic)
        .unwrap_or_else(|e| panic!("sequential baseline failed: {e}"))
        .outcome;

    let conformed = vec![
        ("observe", conform(&plan, &observe_out)),
        ("enforcing", conform(&enforced_plan, &enforced_out)),
    ];
    let observe = mode_row("observe", slo_s, &observe_out);
    let enforced = mode_row("enforcing", slo_s, &enforced_out);
    let continuous_beats_sequential = enforced.tokens_per_s >= seq.tokens_per_s();
    let actuators_fired = enforced.shed + enforced.preemptions + enforced.degradations > 0;
    let slo_ok =
        !observe.meets_slo && enforced.meets_slo && actuators_fired && continuous_beats_sequential;

    let report = SloReport {
        seed,
        rps,
        requests: n,
        plan,
        ttft_p99_slo_s: slo_s,
        floor_ttft_s,
        ladder_rungs,
        observe,
        enforced,
        sequential_tokens_per_s: seq.tokens_per_s(),
        continuous_beats_sequential,
        slo_ok,
    };
    (report, conformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_REQUESTS, DEFAULT_RPS, DEFAULT_SEED};

    #[test]
    fn enforcement_meets_the_slo_observe_mode_violates() {
        let (r, conformed) = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        for (run, verdict) in &conformed {
            assert!(verdict.is_ok(), "{run}: {verdict:?}");
        }
        assert!(
            r.slo_ok,
            "observe p99 {:.1}s (meets={}), enforced p99 {:.1}s (meets={}), slo {:.1}s, \
             actuators shed={} preempt={} degrade={}, cont {:.2} vs seq {:.2} tok/s",
            r.observe.achieved_ttft_p99_s,
            r.observe.meets_slo,
            r.enforced.achieved_ttft_p99_s,
            r.enforced.meets_slo,
            r.ttft_p99_slo_s,
            r.enforced.shed,
            r.enforced.preemptions,
            r.enforced.degradations,
            r.enforced.tokens_per_s,
            r.sequential_tokens_per_s
        );
        assert!(
            r.observe.predicted_violations > 0,
            "the monitor must see the overload in observe mode"
        );
    }

    #[test]
    fn model_guided_ladder_has_usable_rungs() {
        let ladder = model_guided_ladder(&AnalyticBackend::opt_30b());
        for rung in &ladder {
            assert!(rung.step_time_factor > 0.0 && rung.step_time_factor < 1.0);
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        let b = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        assert_eq!(a, b);
    }
}
