//! `repro verify` — exhaustive bounded verification (DESIGN.md §10):
//! the `lm-verify` planner-space sweep proves lint/ground-truth
//! consistency over the whole bounded lattice, the protocol model
//! checker explores the paged-KV and scheduler state machines under a
//! CHESS preemption bound, and the run self-calibrates by seeding a
//! known defect (one over-granted page per admission) that MUST come
//! back as an `LMA291` witness. Gates, all deterministic:
//!
//! 1. the sweep clears its config floor with no degenerate axis
//!    (`LMA290` clean) and **zero** unsoundness witnesses on the
//!    shipped planner (`LMA291` clean);
//! 2. the seeded mutation IS caught (the instrument detects the defect
//!    class it exists for);
//! 3. both protocol explorations finish their bounded trees untruncated,
//!    violate no invariant, and exercise every declared transition
//!    (`LMA292` clean), with at least [`MIN_INTERLEAVINGS`] total
//!    interleavings;
//! 4. zero-cost-off: the virtual-clock serve throughput recomputed here
//!    equals the committed `results/serve.json` snapshot — verification
//!    instrumentation must cost the serve path nothing.
//!
//! `repro verify` sweeps the full lattice and writes the deterministic
//! `results/verify.json`; `SweepDepth::Quick` is for debug-mode tests.

use super::{serve, DEFAULT_REQUESTS, DEFAULT_RPS, DEFAULT_SEED};
use lm_analyze::{lint_verify, Diagnostic, UnsoundnessWitness};
use lm_serve::{synth_traffic, AnalyticBackend, ServeBackend, ServeSession};
use lm_verify::{
    build_probe, check_kvpool_protocol, check_scheduler_protocol, run_sweep, Mutation,
    ProtocolReport, SweepDepth, CONFIGS_FLOOR,
};
use serde::{Deserialize, Serialize};

/// Floor on total explored interleavings across both protocol machines.
pub const MIN_INTERLEAVINGS: u64 = 10_000;

/// Exploration bounds of the lane: preemption bound 3 lands ~28k
/// interleavings across the two machines in seconds; bound 2 (the unit
/// suites) would fall short of [`MIN_INTERLEAVINGS`].
pub const PREEMPTION_BOUND: usize = 3;
pub const MAX_ITERATIONS: usize = 200_000;

/// Relative tolerance for the zero-cost-off throughput comparison. The
/// quantity is virtual-clock deterministic, so the only slack granted is
/// float formatting round-trip noise.
pub const ZERO_COST_REL_TOL: f64 = 1e-9;

/// The zero-cost-off verdict: verification hooks must not change the
/// serve path's deterministic virtual throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZeroCostCheck {
    /// `continuous_paged` tokens/s from the committed
    /// `results/serve.json`; `None` when no snapshot exists yet (pass —
    /// nothing to regress against).
    pub snapshot_tokens_per_s: Option<f64>,
    /// The same quantity recomputed by this run.
    pub measured_tokens_per_s: f64,
    /// |measured - snapshot| / snapshot, when a snapshot exists.
    pub rel_delta: Option<f64>,
    pub ok: bool,
}

/// Everything `repro verify` writes to `results/verify.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyReport {
    pub sweep_depth: String,
    /// `(axis, distinct values)` of the lattice.
    pub axes: Vec<(String, u64)>,
    pub configs_explored: u64,
    pub configs_floor: u64,
    /// Points where verdict and ground truth agreed.
    pub consistent: u64,
    /// Points the lints rejected although every invariant held.
    pub incompleteness: u64,
    /// Lint-unsoundness witnesses on the shipped planner (gated zero).
    pub unsoundness: Vec<UnsoundnessWitness>,
    /// Witnesses produced by the seeded over-grant mutation (gated > 0).
    pub mutation_witnesses: u64,
    pub mutation_caught: bool,
    /// One entry per protocol state machine explored.
    pub protocols: Vec<ProtocolReport>,
    pub interleavings_total: u64,
    pub interleavings_floor: u64,
    /// `LMA29x` verdict over the assembled probe (gated clean).
    pub lint_errors: usize,
    pub lint_warnings: usize,
    pub diagnostics: Vec<Diagnostic>,
    /// The mutated run's probe must trip `LMA291`.
    pub mutated_lint_has_lma291: bool,
    pub zero_cost: ZeroCostCheck,
    pub verify_ok: bool,
}

fn lane_opts() -> loom::Options {
    loom::Options {
        preemption_bound: PREEMPTION_BOUND,
        max_iterations: MAX_ITERATIONS,
    }
}

/// Recompute the deterministic serve throughput and compare it against
/// the committed snapshot (read from `serve_json`, normally
/// `results/serve.json`, whose default run is the same trace).
fn zero_cost_check(serve_json: &str) -> ZeroCostCheck {
    let backend = AnalyticBackend::opt_30b();
    let (seed, rps, n) = (DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let measured = match ServeSession::new(&backend).run(traffic) {
        Ok(r) => r.outcome.tokens_per_s(),
        Err(_) => {
            return ZeroCostCheck {
                snapshot_tokens_per_s: None,
                measured_tokens_per_s: 0.0,
                rel_delta: None,
                ok: false,
            }
        }
    };
    let snapshot = std::fs::read_to_string(serve_json)
        .ok()
        .and_then(|json| serde_json::from_str::<serve::ServeReport>(&json).ok())
        // A `repro serve` run with other flags overwrites the file with
        // a different trace; that is no snapshot of this one.
        .filter(|report| (report.seed, report.rps, report.requests) == (seed, rps, n))
        .and_then(|report| {
            report
                .modes
                .iter()
                .find(|m| m.mode == "continuous_paged")
                .map(|m| m.tokens_per_s)
        });
    match snapshot {
        Some(snap) if snap > 0.0 => {
            let rel = (measured - snap).abs() / snap;
            ZeroCostCheck {
                snapshot_tokens_per_s: Some(snap),
                measured_tokens_per_s: measured,
                rel_delta: Some(rel),
                ok: rel <= ZERO_COST_REL_TOL,
            }
        }
        _ => ZeroCostCheck {
            snapshot_tokens_per_s: None,
            measured_tokens_per_s: measured,
            rel_delta: None,
            ok: true,
        },
    }
}

/// Run the whole verification lane at `depth`.
pub fn run(depth: SweepDepth, serve_json: &str) -> VerifyReport {
    // Clean sweep: the shipped planner against executable ground truth.
    let sweep = run_sweep(depth, Mutation::None);
    // Mutated sweep: the instrument must catch the seeded over-grant.
    let mutated = run_sweep(depth, Mutation::OvergrantPage);

    let protocols = vec![
        check_kvpool_protocol(lane_opts()),
        check_scheduler_protocol(lane_opts()),
    ];
    let interleavings_total: u64 = protocols.iter().map(|p| p.interleavings).sum();

    let probe = build_probe(&sweep, &protocols);
    let report = lint_verify(&probe);

    let mutated_probe = build_probe(&mutated, &protocols);
    let mutated_report = lint_verify(&mutated_probe);
    let mutated_lint_has_lma291 =
        mutated_report.has(lm_analyze::LintCode::Lma291LintUnsoundnessWitness);

    let zero_cost = zero_cost_check(serve_json);

    let protocols_ok = protocols
        .iter()
        .all(|p| p.passed() && p.declared.iter().all(|t| p.exercised.contains(t)));
    let mutation_caught = !mutated.unsoundness.is_empty() && mutated_lint_has_lma291;
    let verify_ok = report.is_clean()
        && sweep.unsoundness.is_empty()
        && sweep.configs >= CONFIGS_FLOOR
        && mutation_caught
        && protocols_ok
        && interleavings_total >= MIN_INTERLEAVINGS
        && zero_cost.ok;

    VerifyReport {
        sweep_depth: match depth {
            SweepDepth::Quick => "quick".to_string(),
            SweepDepth::Full => "full".to_string(),
        },
        axes: sweep.axes.clone(),
        configs_explored: sweep.configs,
        configs_floor: CONFIGS_FLOOR,
        consistent: sweep.consistent,
        incompleteness: sweep.incompleteness,
        unsoundness: sweep.unsoundness.clone(),
        mutation_witnesses: mutated.unsoundness.len() as u64,
        mutation_caught,
        protocols,
        interleavings_total,
        interleavings_floor: MIN_INTERLEAVINGS,
        lint_errors: report.error_count(),
        lint_warnings: report.warning_count(),
        diagnostics: report.diagnostics,
        mutated_lint_has_lma291,
        zero_cost,
        verify_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed snapshot, wherever the test binary's cwd is.
    const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/serve.json");

    #[test]
    fn quick_lane_passes_every_gate() {
        let r = run(SweepDepth::Quick, SNAPSHOT);
        assert!(
            r.verify_ok,
            "gates: lint_errors={} unsoundness={:?} mutation_caught={} \
             interleavings={} zero_cost={:?}",
            r.lint_errors, r.unsoundness, r.mutation_caught, r.interleavings_total, r.zero_cost
        );
        assert!(r.configs_explored >= 200);
        assert!(r.interleavings_total >= MIN_INTERLEAVINGS);
        assert!(r.mutation_witnesses > 0);
    }

    #[test]
    fn report_is_byte_deterministic() {
        let a = serde_json::to_string(&run(SweepDepth::Quick, SNAPSHOT)).unwrap();
        let b = serde_json::to_string(&run(SweepDepth::Quick, SNAPSHOT)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_snapshot_is_a_pass_not_a_crash() {
        let z = zero_cost_check("/nonexistent/serve.json");
        assert!(z.ok);
        assert!(z.snapshot_tokens_per_s.is_none());
        assert!(z.measured_tokens_per_s > 0.0);
    }
}
