//! `repro obs` — the serve-path observability gate (DESIGN.md §8):
//! one default continuous-batching run is audited end to end through
//! every observability surface this repo ships, and the experiment
//! exits non-zero unless all four verdicts hold:
//!
//! 1. **Drift** — the scheduler's own `ServeObs` record is audited
//!    against the `TtftModel`/admission-plan predictions; every
//!    metric's obs/pred ratio must land within its documented tolerance
//!    at the default seed;
//! 2. **Exposition** — the run's metrics registry renders to
//!    OpenMetrics text, parses back, and re-renders byte-identically;
//! 3. **Flight recorder** — an injected overload (floor-level TTFT
//!    objective on a starved two-slot config) must freeze a post-mortem
//!    dump whose JSON round-trips losslessly;
//! 4. **Lints** — the audited config passes `lm-analyze`'s `LMA27x`
//!    observability lints clean.
//!
//! `results/obs.json` carries all the evidence; the Perfetto serve
//! timeline of the audited run goes to `results/serve_timeline.json`.

use lm_serve::preflight::{obs_report, preflight, ttft_floor_s};
use lm_serve::{
    conform, serve_timeline, synth_traffic, AnalyticBackend, ServeBackend, ServeConfig, ServePlan,
    ServeSession, SloPolicy,
};
use super::Conformed;
use lm_trace::{expo, DriftReport, FlightDump, FlightRecorder, Tracer};
use serde::{Deserialize, Serialize};

/// Per-metric drift tolerances (DESIGN.md §8). The TTFT predictor is a
/// queueing estimate, not a replay, so the bars are documented per
/// metric rather than a single epsilon: tails are noisier than means,
/// and Little's-law queue depth inherits the TTFT error twice.
pub const DRIFT_TOLERANCES: [(&str, f64); 4] = [
    ("ttft_mean_s", 0.35),
    ("ttft_p99_s", 0.50),
    ("slot_occupancy_mean", 0.15),
    ("queue_depth_mean", 0.50),
];

/// One audited metric against its documented tolerance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftGate {
    pub metric: String,
    /// Documented `|ratio - 1|` bound.
    pub tolerance: f64,
    pub ratio: f64,
    pub ok: bool,
}

/// Everything `repro obs` writes to `results/obs.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsReport {
    pub seed: u64,
    pub rps: f64,
    pub requests: usize,
    pub plan: ServePlan,
    /// Lifecycle events / boundary samples / TTFT pairs collected.
    pub lifecycle_events: usize,
    pub boundary_samples: usize,
    pub ttft_samples: usize,
    /// The full predicted-vs-observed audit.
    pub drift: DriftReport,
    pub drift_gates: Vec<DriftGate>,
    /// The `repro obs` drift gate: every metric within its tolerance.
    pub drift_ok: bool,
    /// OpenMetrics rendering of the audited run's registry.
    pub exposition: String,
    /// render → parse → re-render is byte-identical.
    pub expo_round_trip_ok: bool,
    /// Post-mortem frozen by the injected overload.
    pub flight: FlightDump,
    /// The dump's JSON round-trips losslessly.
    pub flight_round_trip_ok: bool,
    pub lint_errors: usize,
    pub lint_warnings: usize,
    pub obs_ok: bool,
}

/// Gate the audit's ratios against [`DRIFT_TOLERANCES`]. A metric with
/// an undefined ratio (zero prediction) fails its gate: at the default
/// seed every audited metric must be live.
fn gate_drift(drift: &DriftReport) -> (Vec<DriftGate>, bool) {
    let gates: Vec<DriftGate> = DRIFT_TOLERANCES
        .iter()
        .map(|&(metric, tolerance)| {
            let ratio = drift
                .metric(metric)
                .and_then(|m| m.ratio)
                .unwrap_or(f64::INFINITY);
            DriftGate {
                metric: metric.to_string(),
                tolerance,
                ratio,
                ok: (ratio - 1.0).abs() <= tolerance,
            }
        })
        .collect();
    let ok = gates.iter().all(|g| g.ok);
    (gates, ok)
}

/// Starve the default workload onto two slots under a floor-level
/// observe-only objective: queueing past the floor is guaranteed, the
/// first realized breach freezes the recorder, no actuator fires.
fn flight_pass(seed: u64, rps: f64, n: usize) -> (FlightDump, Conformed) {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let flight = FlightRecorder::new(256);
    let mut cfg = ServeConfig {
        flight: flight.clone(),
        tracer: Tracer::new(),
        max_slots: 2,
        ..ServeConfig::default()
    };
    let plan = preflight(&backend, &cfg, None)
        .unwrap_or_else(|e| panic!("flight-pass planning failed: {e}"));
    cfg.slo = Some(SloPolicy::observe(ttft_floor_s(&plan, &backend) * 1.01));
    let (plan, out) = ServeSession::new(&backend)
        .config(cfg)
        .run(traffic)
        .unwrap_or_else(|e| panic!("flight-pass serving failed: {e}"))
        .into_continuous();
    let dump = flight
        .dump()
        .unwrap_or_else(|| panic!("injected overload did not freeze the flight recorder"));
    (dump, ("flight", conform(&plan, &out)))
}

/// Run the audit. Returns the report, the Perfetto serve timeline of
/// the audited run as JSON, and the lifecycle verdict on both runs.
pub fn run(seed: u64, rps: f64, n: usize) -> (ObsReport, String, Vec<Conformed>) {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let cfg = ServeConfig {
        tracer: Tracer::new(),
        flight: FlightRecorder::new(256),
        ..ServeConfig::default()
    };
    let (plan, out) = ServeSession::new(&backend)
        .config(cfg.clone())
        .run(traffic)
        .unwrap_or_else(|e| panic!("obs serving failed: {e}"))
        .into_continuous();

    // 1. Drift: the scheduler's own record vs the model's predictions.
    let drift = out.obs.audit(&plan);
    let (drift_gates, drift_ok) = gate_drift(&drift);

    // 2. Exposition: render → parse → re-render must be byte-identical.
    let snap = cfg.tracer.snapshot().metrics;
    let exposition = expo::render(&snap);
    let expo_round_trip_ok = expo::parse(&exposition)
        .map(|parsed| expo::render(&parsed) == exposition)
        .unwrap_or(false);

    // 3. Flight recorder: an injected overload freezes a dump that
    //    survives a JSON round-trip.
    let (flight, flight_conformed) = flight_pass(seed, rps, n);
    let conformed = vec![("audited", conform(&plan, &out)), flight_conformed];
    let flight_round_trip_ok = serde_json::to_string(&flight)
        .ok()
        .and_then(|json| serde_json::from_str::<FlightDump>(&json).ok())
        .is_some_and(|back| back == flight);

    // 4. The audited config itself lints clean.
    let lint = obs_report(&cfg);
    let lint_errors = lint.error_count();
    let lint_warnings = lint.warning_count();

    let obs_ok = drift_ok && expo_round_trip_ok && flight_round_trip_ok && lint_errors == 0;
    let timeline = serve_timeline(&plan, &out.obs).to_json_string();
    let report = ObsReport {
        seed,
        rps,
        requests: n,
        plan,
        lifecycle_events: out.obs.lifecycle.len(),
        boundary_samples: out.obs.boundaries.len(),
        ttft_samples: out.obs.ttft.len(),
        drift,
        drift_gates,
        drift_ok,
        exposition,
        expo_round_trip_ok,
        flight,
        flight_round_trip_ok,
        lint_errors,
        lint_warnings,
        obs_ok,
    };
    (report, timeline, conformed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_REQUESTS, DEFAULT_RPS, DEFAULT_SEED};

    #[test]
    fn default_seed_passes_every_gate() {
        let (r, timeline, conformed) = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        for (run, verdict) in &conformed {
            assert!(verdict.is_ok(), "{run}: {verdict:?}");
        }
        assert!(
            r.obs_ok,
            "drift_ok={} gates={:?} expo={} flight={} lint_errors={}",
            r.drift_ok, r.drift_gates, r.expo_round_trip_ok, r.flight_round_trip_ok, r.lint_errors
        );
        assert!(r.ttft_samples > 0 && r.boundary_samples > 0);
        assert!(r.exposition.contains("serve_ttft_s"), "{}", r.exposition);
        assert!(r.flight.reason.starts_with("slo_breach"), "{}", r.flight.reason);
        assert!(timeline.contains("traceEvents"));
    }

    #[test]
    fn report_is_deterministic_up_to_the_flight_clock() {
        // Everything in the report derives from the virtual clock, so
        // two runs serialise byte-identically.
        let a = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        let b = serde_json::to_string(&run(DEFAULT_SEED, DEFAULT_RPS, 16).0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drift_gate_fails_on_undefined_ratio() {
        let empty = lm_trace::drift_report(&[("ttft_mean_s", 0.0, 1.0)]);
        let (gates, ok) = gate_drift(&empty);
        assert!(!ok);
        assert!(gates.iter().any(|g| !g.ok && g.metric == "ttft_mean_s"));
    }
}
