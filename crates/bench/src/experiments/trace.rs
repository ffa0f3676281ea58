//! Tracing & drift experiment — the observability counterpart of the
//! paper tables: exercise the unified `lm-trace` layer end to end and
//! put what the analytic cost model predicts beside what actually ran.
//!
//! One traced run, two artifacts. A two-row `Engine::run` on the tiny
//! test model, built through [`EngineBackend`] so the run and its price
//! share one configuration:
//!
//! - `results/trace.json`: the run's Chrome/Perfetto timeline —
//!   `load_weight` spans from the prefetch loader thread, one compute
//!   span per (decode step, layer) covering both rows, prefill/decode
//!   scopes, and the run's metrics snapshot;
//! - `results/trace_drift.json`: per paper task, the busy seconds the
//!   engine's spans measured beside `predicted_task_totals` under
//!   [`EngineBackend::cost_model`] — the model the serving path prices
//!   this engine by — for the same decode steps (the engine emits task
//!   spans for decode steps only). That model is the A100 preset, not
//!   this host, so the ratios measure model error: they sit far from 1.0
//!   until the platform is calibrated. The simulator's replay of the
//!   model, which is 1.0 by construction, is a test
//!   (`tests/trace_observability.rs`), not part of this lane.

use lm_engine::{EngineOptions, GenerateRequest};
use lm_models::{presets as models, Workload};
use lm_serve::{EngineBackend, ServeBackend};
use lm_sim::predicted_task_totals;
use lm_trace::{task_drift, DriftReport, MetricsSnapshot, PerfettoTrace, Tracer};
use serde::{Deserialize, Serialize};

/// Default token count when `--tokens` is not given.
pub const DEFAULT_TOKENS: u64 = 8;

/// The traced run's prompts: two rows of four tokens.
fn prompts() -> Vec<Vec<u32>> {
    vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6]]
}

/// The most tokens [`run`] can generate per row: the tiny test model's
/// context window less the prompt.
pub fn max_tokens() -> u64 {
    models::tiny_test().max_seq_len - prompts()[0].len() as u64
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceResult {
    pub tokens: u64,
    pub tokens_generated: u64,
    /// Task spans in the real timeline (load_weight + compute).
    pub spans: usize,
    /// prefill/decode scopes.
    pub scopes: usize,
    /// Events in the exported Perfetto document.
    pub perfetto_events: usize,
    /// The platform the predicted side is priced on.
    pub platform: String,
    /// Six paper-task rows: predicted vs observed busy seconds.
    pub drift: DriftReport,
    pub metrics: MetricsSnapshot,
}

/// Run the traced generation of `tokens` tokens per row (at least 2: one
/// token has no decode step and so no task span; at most
/// [`max_tokens`]). Returns the result
/// plus the Perfetto JSON (written to `results/trace.json` by the
/// `repro` binary).
pub fn run(tokens: u64) -> (TraceResult, String) {
    let cfg = models::tiny_test();
    let tracer = Tracer::new();
    let backend = EngineBackend::new(
        &cfg,
        42,
        EngineOptions {
            tracer: tracer.clone(),
            ..EngineOptions::default()
        },
    )
    .expect("engine construction");
    let g = backend
        .engine()
        .run(&GenerateRequest::new(prompts(), tokens as usize))
        .expect("traced generation");
    let report = tracer.snapshot();

    let w = Workload::new(4, tokens, 2, 1);
    let model = backend.cost_model(&w);
    let predicted = predicted_task_totals(&model, &w, backend.model().num_layers, w.gen_len - 1);

    let mut perfetto = PerfettoTrace::new("lm-offload-engine");
    perfetto.add_report(&report);
    (
        TraceResult {
            tokens,
            tokens_generated: g.tokens.iter().map(|r| r.len() as u64).sum(),
            spans: report.spans.len(),
            scopes: report.scopes.len(),
            perfetto_events: perfetto.event_count(),
            platform: model.platform.name.clone(),
            drift: task_drift(&predicted, &report.spans),
            metrics: report.metrics,
        },
        perfetto.to_json_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_trace::TaskKind;

    #[test]
    fn engine_phase_produces_loadable_perfetto_json() {
        let (r, json) = run(3);
        assert_eq!(r.tokens_generated, 6); // 2 rows x 3 tokens
        assert!(r.spans > 0);
        let doc: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = doc["traceEvents"].as_array().expect("traceEvents array");
        assert_eq!(events.len(), r.perfetto_events);
        assert!(events
            .iter()
            .any(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some("load_weight")));

        // The drift rows: the engine's spans beside its own priced model.
        assert_eq!(r.drift.metrics.len(), 6, "one row per paper task");
        for task in ["load_weight", "compute"] {
            let row = r.drift.metric(task).unwrap();
            assert!(row.predicted > 0.0 && row.observed > 0.0, "{row:?}");
        }
        for task in ["load_cache", "store_cache"] {
            let row = r.drift.metric(task).unwrap();
            assert_eq!((row.predicted, row.observed), (0.0, 0.0), "{row:?}");
        }
        let backend = EngineBackend::tiny_test(42).unwrap();
        let w = Workload::new(4, 3, 2, 1);
        let model = backend.cost_model(&w);
        assert_eq!(r.platform, model.platform.name);
        let predicted = predicted_task_totals(&model, &w, backend.model().num_layers, 2);
        for (row, task) in r.drift.metrics.iter().zip(TaskKind::PAPER_TASKS) {
            assert_eq!(row.metric, task);
            let want: f64 = TaskKind::ALL
                .into_iter()
                .filter(|k| k.paper_task() == task)
                .map(|k| predicted[k])
                .sum();
            assert_eq!(row.predicted.to_bits(), want.to_bits(), "{task}");
        }
    }
}
