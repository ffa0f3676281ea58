//! # lm-trace
//!
//! Unified tracing and metrics for every execution layer of the
//! LM-Offload reproduction (DESIGN.md §8): the engine, the event-driven
//! simulator, the parallelism executor, and the fault injector all speak
//! one span vocabulary, so a single timeline shows what the system
//! actually did — and the drift report shows how far that is from what
//! the analytic model (Eq. 1-24) *said* it would do.
//!
//! Pieces:
//!
//! - [`task`]: the six decode tasks of Algorithm 1 ([`TaskKind`], one
//!   table row each), their costs as one vector ([`TaskCosts`]) and the
//!   per-[`Resource`] Eq. 2 reduction ([`StepLoad`]) — here rather than
//!   in `lm-sim` so every crate shares one vocabulary;
//! - [`span`]: the [`Span`] record (virtual or wall-clock), the
//!   resource-exclusivity checker and the ASCII Gantt renderer;
//! - [`clock`]: [`TraceClock`], a run-origin monotonic clock shared by
//!   the tracer and the fault injector so their events align;
//! - [`tracer`]: the [`Tracer`] — zero-cost when disabled (a `None`
//!   check per probe, like `lm-fault`'s injector), hierarchical scopes,
//!   per-thread lock-cheap buffers, task spans, instants;
//! - [`metrics`]: counters, gauges, and log-scale histograms with
//!   p50/p95/p99 summaries, snapshotted to JSON;
//! - [`expo`]: Prometheus/OpenMetrics text exposition of a metrics
//!   snapshot, with a parser closing the round-trip;
//! - [`flight`]: the bounded flight recorder — a ring of recent events
//!   frozen into a post-mortem [`FlightDump`] on first failure;
//! - [`perfetto`]: Chrome/Perfetto `trace.json` export (open in
//!   <https://ui.perfetto.dev>);
//! - [`drift`]: predicted-vs-observed ratios in one [`DriftReport`] —
//!   per paper task ([`task_drift`]: the number that says whether the
//!   cost model still describes the pipeline) and per serve-path metric
//!   ([`drift_report`]).
//!
//! ```
//! use lm_trace::{TaskKind, Tracer};
//!
//! let tracer = Tracer::new();
//! {
//!     let _phase = tracer.scope("decode");
//!     let _span = tracer.task_span(TaskKind::LoadWeight, 0, 3, None);
//!     // ... stream layer 3's weights for token 0 ...
//! }
//! let report = tracer.snapshot();
//! assert_eq!(report.spans.len(), 1);
//! assert_eq!(report.scopes[0].name, "decode");
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod clock;
pub mod drift;
pub mod expo;
pub mod flight;
pub mod metrics;
pub mod perfetto;
pub mod span;
pub mod task;
pub mod tracer;

pub use clock::TraceClock;
pub use drift::{drift_report, task_drift, DriftReport, MetricDrift};
pub use expo::ExpoError;
pub use flight::{FlightDump, FlightEvent, FlightRecorder};
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use perfetto::PerfettoTrace;
pub use span::{render_gantt, resource_overlaps, Span};
pub use task::{Resource, StepLoad, TaskCosts, TaskKind};
pub use tracer::{InstantEvent, ScopeEvent, ScopeGuard, TaskSpanGuard, TraceReport, Tracer};
