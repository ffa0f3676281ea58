//! Acceptance tests for the unified observability layer (`lm-trace`):
//!
//! - A traced `Engine::run` emits exactly one task span per
//!   (decode step, layer, task) and the Perfetto export round-trips
//!   through the JSON parser with the right event shapes.
//! - Drift golden: replaying the analytic model against the simulator's
//!   own traced timeline yields observed/predicted ratios of 1.0 (within
//!   1e-9) for all six paper decode tasks.
//! - Tracing disabled is the default and must stay (near) zero-cost: the
//!   disabled handle changes neither tokens nor wall-clock beyond noise.
//! - Fault events are stamped on the tracer's clock, so instants and
//!   spans land on one timeline.

#![allow(clippy::unwrap_used)]
use lm_engine::{Engine, EngineOptions, GenerateRequest};
use lm_fault::{FaultConfig, FaultInjector};
use lm_models::{presets, Workload};
use lm_sim::policy::AttentionPlacement;
use lm_sim::{predicted_task_totals, simulate_traced, BaseCostModel, Policy};
use lm_trace::{task_drift, PerfettoTrace, TaskKind, Tracer};
use std::time::Instant;

fn prompts() -> Vec<Vec<u32>> {
    vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6]]
}

/// One load_weight span and one compute span per (decode step, layer) —
/// `gen_len - 1` steps, one between each pair of samples — and the
/// Perfetto document round-trips serde_json with complete events carrying
/// step/layer args.
#[test]
fn traced_generate_spans_cover_every_token_layer_and_roundtrip_perfetto() {
    let cfg = presets::tiny_test();
    let tracer = Tracer::new();
    let engine = Engine::new(
        &cfg,
        42,
        EngineOptions {
            tracer: tracer.clone(),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let gen_len = 3usize;
    let g = engine.run(&GenerateRequest::new(prompts().to_vec(), gen_len)).unwrap();
    let report = tracer.snapshot();

    let l = cfg.num_layers as usize;
    let lw: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == TaskKind::LoadWeight)
        .collect();
    let cg: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.kind == TaskKind::ComputeGpu)
        .collect();
    let steps = gen_len - 1;
    assert_eq!(lw.len(), steps * l, "one load_weight per (decode step, layer)");
    assert_eq!(cg.len(), steps * l, "one compute per (decode step, layer)");
    // Every (step, layer) pair appears exactly once per task.
    for step in 0..steps as u64 {
        for layer in 0..cfg.num_layers {
            for (name, spans) in [("load_weight", &lw), ("compute_gpu", &cg)] {
                let n = spans
                    .iter()
                    .filter(|s| s.step == step && s.layer == layer)
                    .count();
                assert_eq!(n, 1, "{name} span for step {step} layer {layer}");
            }
        }
    }
    // Spans are well-formed intervals on one monotonic clock.
    assert!(report.spans.iter().all(|s| s.end >= s.start && s.start >= 0.0));

    // Perfetto round-trip: parse the exported JSON back and check shape.
    let mut doc = PerfettoTrace::new("test-engine");
    doc.add_report(&report);
    let text = doc.to_json_string();
    let back: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = back["traceEvents"].as_array().unwrap();
    assert_eq!(events.len(), doc.event_count());
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .collect();
    // Task spans + prefill/decode scopes all become complete events.
    assert_eq!(complete.len(), report.spans.len() + report.scopes.len());
    assert!(complete.iter().any(|e| {
        e["name"].as_str() == Some("load_weight") && e["args"]["layer"].as_u64().is_some()
    }));
    // Tracing must not perturb generation.
    let clean = Engine::new(&cfg, 42, EngineOptions::default()).unwrap();
    assert_eq!(g.tokens, clean.run(&GenerateRequest::new(prompts().to_vec(), gen_len)).unwrap().tokens);
}

/// Drift golden: the simulator *is* the analytic model executed against
/// FIFO resources, so replaying the model over its own timeline must give
/// ratio 1.0 for every paper task — all six present under GPU attention.
#[test]
fn drift_golden_sim_ratios_are_unity_for_all_six_tasks() {
    let w = Workload::new(64, 4, 16, 2);
    let mut policy = Policy::flexgen_default();
    policy.attention = AttentionPlacement::Gpu;
    let m = BaseCostModel::new(
        &lm_hardware::presets::single_gpu_a100(),
        &presets::opt_30b(),
        &w,
        policy,
    );
    let model = presets::opt_30b();
    let steps = w.gen_len - 1;
    let (_, spans) = simulate_traced(&m, &w, model.num_layers, steps);
    let predicted = predicted_task_totals(&m, &w, model.num_layers, steps);
    let report = task_drift(&predicted, &spans);

    assert_eq!(report.metrics.len(), 6, "one row per paper decode task");
    for name in TaskKind::PAPER_TASKS {
        let row = report.metric(name).unwrap_or_else(|| panic!("missing {name}"));
        assert!(row.predicted > 0.0, "{name} predicted nothing");
        let ratio = row.ratio.expect("observed and predicted both nonzero");
        assert!(
            (ratio - 1.0).abs() < 1e-9,
            "{name}: ratio {ratio} (predicted {} observed {})",
            row.predicted,
            row.observed
        );
    }
    assert!(report.ok_within(1e-9));
    assert!(report.max_ratio_error < 1e-9);
}

/// The default (disabled) tracer is a `None` handle: token output is
/// identical and wall-clock is not slower than a fully traced run beyond
/// generous noise. min-of-N defeats scheduler jitter.
#[test]
fn disabled_tracer_is_zero_cost_on_the_generate_path() {
    let cfg = presets::tiny_test();
    let gen_len = 4usize;
    let time_min = |options_for: &dyn Fn() -> EngineOptions| {
        (0..5)
            .map(|_| {
                let e = Engine::new(&cfg, 42, options_for()).unwrap();
                let t0 = Instant::now();
                let g = e.run(&GenerateRequest::new(prompts().to_vec(), gen_len)).unwrap();
                assert_eq!(g.tokens.len(), 2);
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let disabled = time_min(&EngineOptions::default);
    let traced = time_min(&|| EngineOptions {
        tracer: Tracer::new(),
        ..EngineOptions::default()
    });
    // Disabled must never be meaningfully slower than enabled tracing;
    // 1.5x headroom keeps the test robust on noisy CI hosts.
    assert!(
        disabled <= traced * 1.5 + 1e-3,
        "disabled tracer ({disabled:.6}s) slower than traced run ({traced:.6}s)"
    );
    // And the handle really is off: no spans accumulate anywhere.
    let off = Tracer::disabled();
    assert!(!off.is_enabled());
    {
        let _s = off.task_span(TaskKind::LoadWeight, 0, 0, None);
        let _c = off.scope("noop");
    }
    assert!(off.snapshot().spans.is_empty());
}

/// Fault events recorded by an engine-owned injector carry timestamps on
/// the tracer's clock, so they align with the span timeline.
#[test]
fn fault_events_are_stamped_on_the_tracer_clock() {
    let cfg = presets::tiny_test();
    let tracer = Tracer::new();
    let fault = FaultInjector::new(FaultConfig {
        stall_rate: 0.5,
        stall_ms: 1,
        ..FaultConfig::quiescent(11)
    });
    let engine = Engine::new(
        &cfg,
        42,
        EngineOptions {
            tracer: tracer.clone(),
            fault: fault.clone(),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    engine.run(&GenerateRequest::new(prompts().to_vec(), 3)).unwrap();
    let events = fault.events();
    assert!(!events.is_empty(), "stall profile fired no faults");
    let report = tracer.snapshot();
    let span_end_us = report
        .spans
        .iter()
        .map(|s| (s.end * 1e6) as u64)
        .max()
        .unwrap_or(0);
    let mut last = 0u64;
    for e in &events {
        let t = e.t_us.expect("engine wires the tracer clock into faults");
        assert!(t >= last, "fault timestamps are monotonic");
        last = t;
        // Faults happen while work happens: on the same clock as spans
        // (small slack for the post-decode bookkeeping window).
        assert!(
            t <= span_end_us + 1_000_000,
            "fault at {t}us far beyond last span end {span_end_us}us"
        );
    }
}
