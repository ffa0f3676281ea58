//! The [`Tracer`]: span recording for real (wall-clock) execution.
//!
//! Design constraints, mirroring `lm-fault`'s injector:
//!
//! 1. **Zero-cost when disabled.** A disabled tracer is a `None`; every
//!    probe is an inlined null check and returns a no-op guard. Hot
//!    paths traced with a disabled tracer are bit- and branch-identical
//!    to untraced code plus one predictable branch.
//! 2. **Lock-cheap when enabled.** Each thread writes into its own
//!    buffer behind its own mutex — uncontended in steady state — and
//!    buffers are only walked when a snapshot is taken. The prefetch
//!    loader thread therefore never contends with the compute thread.
//! 3. **One time base.** All events are stamped by the tracer's
//!    [`TraceClock`]; hand the same clock to the fault injector
//!    (`FaultInjector::set_clock`) and fault instants align with spans.

use crate::clock::TraceClock;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::span::Span;
use crate::task::TaskKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A completed named scope (phase, operator, ...): coarser than task
/// spans, tagged with the emitting thread's track and its nesting depth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeEvent {
    pub name: String,
    /// Per-tracer thread ordinal (0 = first thread that emitted).
    pub track: u32,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
    /// Seconds since the tracer clock origin.
    pub start: f64,
    pub end: f64,
}

/// A point event (fault injection, retry, policy switch, ...).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstantEvent {
    pub name: String,
    pub category: String,
    pub track: u32,
    /// Seconds since the tracer clock origin.
    pub t: f64,
}

/// Everything a tracer collected: task spans, scopes, instants, and a
/// metrics snapshot.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceReport {
    pub spans: Vec<Span>,
    pub scopes: Vec<ScopeEvent>,
    pub instants: Vec<InstantEvent>,
    pub metrics: MetricsSnapshot,
}

#[derive(Default)]
struct Buf {
    spans: Vec<Span>,
    scopes: Vec<ScopeEvent>,
    instants: Vec<InstantEvent>,
}

struct ThreadBuf {
    track: u32,
    buf: Mutex<Buf>,
}

struct Inner {
    /// Distinguishes tracers in the thread-local buffer cache.
    id: u64,
    clock: TraceClock,
    metrics: MetricsRegistry,
    bufs: Mutex<Vec<Arc<ThreadBuf>>>,
    next_track: AtomicU32,
}

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (tracer id → buffer) cache; tiny, scanned linearly.
    static TLS_BUFS: RefCell<Vec<(u64, Arc<ThreadBuf>)>> = const { RefCell::new(Vec::new()) };
    /// Scope nesting depth of the current thread.
    static TLS_DEPTH: Cell<u32> = const { Cell::new(0) };
}

impl Inner {
    /// This thread's buffer for this tracer, registering one on first use.
    fn thread_buf(self: &Arc<Self>) -> Arc<ThreadBuf> {
        TLS_BUFS.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, buf)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(buf);
            }
            let buf = Arc::new(ThreadBuf {
                track: self.next_track.fetch_add(1, Ordering::Relaxed),
                buf: Mutex::new(Buf::default()),
            });
            self.bufs.lock().push(Arc::clone(&buf));
            cache.push((self.id, Arc::clone(&buf)));
            buf
        })
    }
}

/// Handle threaded through the pipeline. Clones share buffers, metrics
/// and the clock. `Tracer::disabled()` (and `Default`) produce the
/// zero-cost null tracer.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// The null tracer: every probe is an inlined `None` check; no
    /// allocation, no atomics, no clock reads.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer whose clock origin is "now".
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                clock: TraceClock::start(),
                metrics: MetricsRegistry::new(),
                bufs: Mutex::new(Vec::new()),
                next_track: AtomicU32::new(0),
            })),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The run-origin clock, for aligning other event sources (the fault
    /// injector) with this tracer's spans.
    pub fn clock(&self) -> Option<TraceClock> {
        self.inner.as_deref().map(|i| i.clock)
    }

    /// Open a task span; it records itself (and its duration histogram)
    /// when the guard drops.
    #[inline]
    pub fn task_span(
        &self,
        kind: TaskKind,
        step: u64,
        layer: u32,
        batch: Option<u32>,
    ) -> TaskSpanGuard {
        TaskSpanGuard {
            ctx: self.inner.as_ref().map(|inner| TaskCtx {
                inner: Arc::clone(inner),
                kind,
                step,
                layer,
                batch,
                start: inner.clock.now_s(),
            }),
        }
    }

    /// Open a named hierarchical scope (phase, operator, ...); closes
    /// when the guard drops. Nesting depth is tracked per thread.
    #[inline]
    pub fn scope(&self, name: &str) -> ScopeGuard {
        ScopeGuard {
            ctx: self.inner.as_ref().map(|inner| {
                let depth = TLS_DEPTH.with(|d| {
                    let v = d.get();
                    d.set(v + 1);
                    v
                });
                ScopeCtx {
                    inner: Arc::clone(inner),
                    name: name.to_string(),
                    depth,
                    start: inner.clock.now_s(),
                }
            }),
        }
    }

    /// Record a point event at "now".
    #[inline]
    pub fn instant(&self, name: &str, category: &str) {
        if let Some(inner) = self.inner.as_ref() {
            let t = inner.clock.now_s();
            let buf = inner.thread_buf();
            let track = buf.track;
            buf.buf.lock().instants.push(InstantEvent {
                name: name.to_string(),
                category: category.to_string(),
                track,
                t,
            });
        }
    }

    // ---- metrics ----------------------------------------------------

    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.counter_add(name, n);
        }
    }

    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.gauge_set(name, v);
        }
    }

    #[inline]
    pub fn histogram_record(&self, name: &str, v: f64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.metrics.histogram_record(name, v);
        }
    }

    /// Snapshot everything recorded so far (buffers are left intact).
    /// Events are sorted by start time for deterministic output.
    pub fn snapshot(&self) -> TraceReport {
        let Some(inner) = self.inner.as_deref() else {
            return TraceReport::default();
        };
        let mut report = TraceReport {
            metrics: inner.metrics.snapshot(),
            ..TraceReport::default()
        };
        for tb in inner.bufs.lock().iter() {
            let buf = tb.buf.lock();
            report.spans.extend_from_slice(&buf.spans);
            report.scopes.extend_from_slice(&buf.scopes);
            report.instants.extend_from_slice(&buf.instants);
        }
        report.spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        report.scopes.sort_by(|a, b| a.start.total_cmp(&b.start));
        report.instants.sort_by(|a, b| a.t.total_cmp(&b.t));
        report
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.as_deref() {
            Some(inner) => write!(f, "Tracer(enabled, id={})", inner.id),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

struct TaskCtx {
    inner: Arc<Inner>,
    kind: TaskKind,
    step: u64,
    layer: u32,
    batch: Option<u32>,
    start: f64,
}

/// Guard for an open task span; records on drop.
#[must_use = "the span closes when this guard drops"]
pub struct TaskSpanGuard {
    ctx: Option<TaskCtx>,
}

impl Drop for TaskSpanGuard {
    fn drop(&mut self) {
        if let Some(c) = self.ctx.take() {
            let end = c.inner.clock.now_s();
            c.inner
                .metrics
                .histogram_record(c.kind.hist_name(), end - c.start);
            let buf = c.inner.thread_buf();
            buf.buf.lock().spans.push(Span {
                kind: c.kind,
                step: c.step,
                layer: c.layer,
                batch: c.batch,
                start: c.start,
                end,
            });
        }
    }
}

struct ScopeCtx {
    inner: Arc<Inner>,
    name: String,
    depth: u32,
    start: f64,
}

/// Guard for an open scope; records on drop.
#[must_use = "the scope closes when this guard drops"]
pub struct ScopeGuard {
    ctx: Option<ScopeCtx>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(c) = self.ctx.take() {
            let end = c.inner.clock.now_s();
            TLS_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            let buf = c.inner.thread_buf();
            let track = buf.track;
            buf.buf.lock().scopes.push(ScopeEvent {
                name: c.name,
                track,
                depth: c.depth,
                start: c.start,
                end,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskCosts;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _s = t.task_span(TaskKind::LoadWeight, 0, 0, None);
            let _p = t.scope("phase");
            t.instant("x", "y");
            t.counter_add("c", 1);
            t.gauge_set("g", 1.0);
            t.histogram_record("h", 1.0);
        }
        let r = t.snapshot();
        assert!(r.spans.is_empty());
        assert!(r.scopes.is_empty());
        assert!(r.instants.is_empty());
        assert!(r.metrics.counters.is_empty());
        assert!(!t.is_enabled());
        assert!(t.clock().is_none());
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = Tracer::new();
        {
            let _outer = t.scope("decode");
            {
                let _inner = t.scope("layer");
                let _task = t.task_span(TaskKind::ComputeGpu, 3, 7, Some(1));
            }
        }
        let r = t.snapshot();
        assert_eq!(r.scopes.len(), 2);
        let outer = r.scopes.iter().find(|s| s.name == "decode").unwrap();
        let inner = r.scopes.iter().find(|s| s.name == "layer").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        // Nested scope is contained in its parent.
        assert!(inner.start >= outer.start && inner.end <= outer.end);
        assert_eq!(r.spans.len(), 1);
        let s = r.spans[0];
        assert_eq!(
            (s.kind, s.step, s.layer, s.batch),
            (TaskKind::ComputeGpu, 3, 7, Some(1))
        );
        assert!(s.end >= s.start);
        // Task spans auto-record their duration histogram.
        assert_eq!(r.metrics.histograms["task.compute_gpu.seconds"].count, 1);
    }

    #[test]
    fn depth_rebalances_after_close() {
        let t = Tracer::new();
        {
            let _a = t.scope("a");
        }
        {
            let _b = t.scope("b");
        }
        let r = t.snapshot();
        assert!(r.scopes.iter().all(|s| s.depth == 0), "{:?}", r.scopes);
    }

    #[test]
    fn threads_get_distinct_tracks_and_all_events_survive() {
        let t = Tracer::new();
        t.instant("main", "test");
        let clones: Vec<_> = (0..3)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let _s = t.scope(&format!("worker-{i}"));
                    let _task = t.task_span(TaskKind::LoadWeight, i as u64, 0, None);
                })
            })
            .collect();
        for c in clones {
            c.join().unwrap();
        }
        let r = t.snapshot();
        assert_eq!(r.spans.len(), 3);
        assert_eq!(r.scopes.len(), 3);
        assert_eq!(r.instants.len(), 1);
        let tracks: std::collections::HashSet<u32> = r.scopes.iter().map(|s| s.track).collect();
        assert_eq!(tracks.len(), 3, "each thread gets its own track");
    }

    #[test]
    fn snapshot_is_sorted_and_non_destructive() {
        let t = Tracer::new();
        for i in 0..5 {
            let _s = t.task_span(TaskKind::LoadWeight, i, 0, None);
        }
        let a = t.snapshot();
        let b = t.snapshot();
        assert_eq!(a.spans.len(), 5);
        assert_eq!(b.spans.len(), 5);
        assert!(a.spans.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn observed_totals_sum_durations_by_kind() {
        let t = Tracer::new();
        {
            let _a = t.task_span(TaskKind::LoadWeight, 0, 0, None);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        {
            let _b = t.task_span(TaskKind::ComputeGpu, 0, 0, None);
        }
        let totals = TaskCosts::from_spans(&t.snapshot().spans);
        assert!(totals[TaskKind::LoadWeight] >= 0.001);
        assert!(totals[TaskKind::ComputeGpu] >= 0.0);
        assert_eq!(totals[TaskKind::StoreCache], 0.0);
    }

    #[test]
    fn two_tracers_do_not_cross_talk() {
        let t1 = Tracer::new();
        let t2 = Tracer::new();
        {
            let _s = t1.task_span(TaskKind::LoadWeight, 0, 0, None);
        }
        assert_eq!(t1.snapshot().spans.len(), 1);
        assert!(t2.snapshot().spans.is_empty());
    }
}
