//! Serve-path observability on the *real* miniature engine (DESIGN.md
//! §8): the drift audit must hold on the `EngineBackend`, not just on
//! the analytic backend the scheduler was tuned against — the TTFT
//! predictor reads the backend's own cost quotes, so its error must not
//! grow when those quotes come from the engine's offloading plan.
#![allow(clippy::unwrap_used)]

use lm_serve::{
    conform, serve_timeline, synth_traffic, EngineBackend, ServeBackend, ServeConfig,
    ServeSession,
};
use lm_trace::Tracer;

const SEED: u64 = 7;

/// The documented serve-path TTFT tolerance (DESIGN.md §8): the
/// queueing estimate must land within 35% of the realized mean.
const TTFT_TOLERANCE: f64 = 0.35;

#[test]
fn engine_backend_drift_audit_holds_at_the_default_seed() {
    let backend = EngineBackend::tiny_test(SEED).unwrap();
    // 500 rps puts the tiny engine in the same arrival-saturated regime
    // the default analytic workload runs in (the TtftModel is a queueing
    // estimate: under no load its padded-group prefill quote is
    // deliberately pessimistic, which the tolerance does not cover).
    let traffic = synth_traffic(SEED, 500.0, 16, backend.model());
    let cfg = ServeConfig {
        tracer: Tracer::new(),
        ..ServeConfig::default()
    };
    let (plan, out) = ServeSession::new(&backend)
        .config(cfg)
        .run(traffic)
        .unwrap()
        .into_continuous();
    assert!(!out.responses.is_empty());
    assert!(!out.obs.ttft.is_empty(), "first tokens must be audited");

    let report = out.obs.audit(&plan);
    let ttft = report.metric("ttft_mean_s").unwrap();
    assert!(ttft.predicted > 0.0 && ttft.observed > 0.0, "{ttft:?}");
    let ratio = ttft.ratio.unwrap();
    assert!(
        (ratio - 1.0).abs() <= TTFT_TOLERANCE,
        "engine-path TTFT drift ratio {ratio} exceeds ±{TTFT_TOLERANCE}: {ttft:?}"
    );
    let occ = report.metric("slot_occupancy_mean").unwrap();
    assert!(
        (occ.ratio.unwrap() - 1.0).abs() <= 0.15,
        "engine-path occupancy drift: {occ:?}"
    );
}

#[test]
fn engine_backend_lifecycle_balances_and_exports_a_timeline() {
    let backend = EngineBackend::tiny_test(SEED).unwrap();
    let traffic = synth_traffic(SEED, 4.0, 12, backend.model());
    let (plan, out) = ServeSession::new(&backend).run(traffic).unwrap().into_continuous();
    assert_eq!(conform(&plan, &out).unwrap().requests, 12);

    let v = serve_timeline(&plan, &out.obs).to_value();
    let events = v["traceEvents"].as_array().unwrap();
    assert!(events
        .iter()
        .any(|e| e["name"].as_str().is_some_and(|n| n.ends_with("[done]"))));
}
