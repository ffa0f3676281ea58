//! Tracing & drift experiment — the observability counterpart of the
//! paper tables: exercise the unified `lm-trace` layer end to end and
//! quantify how well the analytic cost model predicts what actually ran.
//!
//! Two phases, two artifacts:
//!
//! 1. **Sim drift golden** (`results/trace_drift.json`): run the
//!    event-driven simulator with span tracing on a paper-scale policy
//!    that exercises all six decode tasks (GPU attention, so the KV
//!    cache crosses the links), take the analytic model's closed-form
//!    per-task busy time (`predicted_task_totals`), and report per-task
//!    observed/predicted ratios. Because the simulator *is* the model
//!    executed against FIFO resources, every ratio must be 1.0 — the
//!    golden property the integration tests pin. Against the real engine
//!    the same report form measures genuine model error.
//! 2. **Engine timeline** (`results/trace.json`): a real traced
//!    zig-zag `Engine::run` exported as Chrome/Perfetto trace
//!    JSON — `load_weight` spans from the prefetch loader thread,
//!    compute spans per (step, layer, batch), prefill/decode scopes, and
//!    the run's metrics snapshot.

use lm_engine::{Engine, EngineOptions, GenerateRequest};
use lm_models::{presets as models, Workload};
use lm_sim::policy::{AttentionPlacement, Policy};
use lm_sim::{predicted_task_totals, simulate_traced, BaseCostModel};
use lm_trace::{drift_report, DriftReport, MetricsSnapshot, PerfettoTrace, TaskKind, Tracer};
use serde::{Deserialize, Serialize};

/// Default token count when `--tokens` is not given.
pub const DEFAULT_TOKENS: u64 = 8;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimDriftPhase {
    /// Decode steps traced (= tokens - 1).
    pub steps: u64,
    /// Task spans recorded by the simulator.
    pub spans: usize,
    /// Simulated decode makespan, seconds.
    pub decode_s: f64,
    pub drift: DriftReport,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineTracePhase {
    pub tokens_generated: u64,
    /// Task spans in the real timeline (load_weight + compute).
    pub spans: usize,
    /// prefill/decode scopes.
    pub scopes: usize,
    /// Observed busy seconds summed over `load_weight` spans.
    pub load_weight_s: f64,
    /// Observed busy seconds summed over compute spans.
    pub compute_s: f64,
    /// Events in the exported Perfetto document.
    pub perfetto_events: usize,
    pub metrics: MetricsSnapshot,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceResult {
    pub tokens: u64,
    pub sim: SimDriftPhase,
    pub engine: EngineTracePhase,
}

/// Phase 1: simulator drift on a policy that exercises all six tasks.
pub fn sim_drift(tokens: u64) -> SimDriftPhase {
    let platform = lm_hardware::presets::single_gpu_a100();
    let model = models::opt_30b();
    let w = Workload::new(64, tokens.max(2), 16, 2);
    let mut policy = Policy::flexgen_default();
    // GPU attention sends the KV cache across both links: all six paper
    // tasks appear in the schedule.
    policy.attention = AttentionPlacement::Gpu;
    let m = BaseCostModel::new(&platform, &model, &w, policy);
    let steps = w.gen_len - 1;
    let (report, spans) = simulate_traced(&m, &w, model.num_layers, steps);
    let predicted = predicted_task_totals(&m, &w, model.num_layers, steps);
    let drift = drift_report(&predicted, &spans);
    SimDriftPhase {
        steps,
        spans: spans.len(),
        decode_s: report.decode_time,
        drift,
    }
}

/// Phase 2: real traced engine run, returning the phase summary and the
/// Perfetto JSON document.
pub fn engine_trace(tokens: u64) -> (EngineTracePhase, String) {
    let cfg = models::tiny_test();
    let tracer = Tracer::new();
    let e = Engine::new(
        &cfg,
        42,
        EngineOptions {
            tracer: tracer.clone(),
            ..EngineOptions::default()
        },
    )
    .expect("engine construction");
    let prompts = vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6]];
    let g = e
        .run(&GenerateRequest::new(prompts, tokens as usize).with_batches(2))
        .expect("traced generation");
    let report = tracer.snapshot();
    let totals = report.observed_task_totals();
    let mut perfetto = PerfettoTrace::new("lm-offload-engine");
    perfetto.add_report(&report);
    (
        EngineTracePhase {
            tokens_generated: g.tokens.iter().map(|r| r.len() as u64).sum(),
            spans: report.spans.len(),
            scopes: report.scopes.len(),
            load_weight_s: totals[TaskKind::LoadWeight],
            compute_s: totals[TaskKind::ComputeCpu] + totals[TaskKind::ComputeGpu],
            perfetto_events: perfetto.event_count(),
            metrics: report.metrics,
        },
        perfetto.to_json_string(),
    )
}

/// Run both phases. Returns the result plus the engine's Perfetto JSON
/// (written to `results/trace.json` by the `repro` binary).
pub fn run(tokens: u64) -> (TraceResult, String) {
    let sim = sim_drift(tokens);
    let (engine, perfetto_json) = engine_trace(tokens);
    (
        TraceResult {
            tokens,
            sim,
            engine,
        },
        perfetto_json,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_drift_is_unity_across_all_six_tasks() {
        let phase = sim_drift(4);
        assert_eq!(phase.drift.tasks.len(), 6);
        for t in &phase.drift.tasks {
            assert!(t.predicted_s > 0.0, "{} predicted nothing", t.task);
            let r = t.ratio.expect("ratio defined");
            assert!(
                (r - 1.0).abs() < 1e-6,
                "{}: ratio {r} (predicted {} observed {})",
                t.task,
                t.predicted_s,
                t.observed_s
            );
        }
        assert!(phase.drift.ok_within(1e-6));
        assert!(phase.spans > 0);
    }

    #[test]
    fn engine_phase_produces_loadable_perfetto_json() {
        let (phase, json) = engine_trace(3);
        assert_eq!(phase.tokens_generated, 6); // 2 rows x 3 tokens
        assert!(phase.spans > 0);
        assert!(phase.load_weight_s > 0.0);
        assert!(phase.compute_s > 0.0);
        let doc: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), phase.perfetto_events);
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("load_weight")));
    }
}
