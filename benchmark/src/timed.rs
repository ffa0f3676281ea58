//! `TimedBackend`: the serve layer measured from outside. It forwards
//! every [`ServeBackend`] call to the wrapped backend; `materialize` —
//! where the engine does a request's whole generation — gets a span and
//! a wall-time total, and the three cost/footprint methods, which run in
//! ~100 ns and hundreds of thousands of times per run, are only counted:
//! timing each would cost more than the call itself.

use crate::spans::{Recorder, SpanId};
use lm_engine::EngineError;
use lm_models::ModelConfig;
use lm_serve::{Request, ServeBackend};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct TimedBackend<'a, B: ServeBackend> {
    inner: &'a B,
    recorder: &'a Recorder,
    parent: Option<SpanId>,
    // Statistics only: nothing is published through these, so Relaxed.
    materialize_ns: AtomicU64,
    materialize_calls: AtomicU64,
    prefill_cost_calls: AtomicU64,
    decode_cost_calls: AtomicU64,
    kv_bytes_calls: AtomicU64,
}

/// What one pass through a [`TimedBackend`] added up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendTotals {
    pub materialize_ns: u64,
    pub materialize_calls: u64,
    pub prefill_cost_calls: u64,
    pub decode_cost_calls: u64,
    pub kv_bytes_calls: u64,
}

impl<'a, B: ServeBackend> TimedBackend<'a, B> {
    /// Spans recorded by this wrapper name `parent` as their cause.
    pub fn new(inner: &'a B, recorder: &'a Recorder, parent: Option<SpanId>) -> Self {
        TimedBackend {
            inner,
            recorder,
            parent,
            materialize_ns: AtomicU64::new(0),
            materialize_calls: AtomicU64::new(0),
            prefill_cost_calls: AtomicU64::new(0),
            decode_cost_calls: AtomicU64::new(0),
            kv_bytes_calls: AtomicU64::new(0),
        }
    }

    pub fn totals(&self) -> BackendTotals {
        BackendTotals {
            materialize_ns: self.materialize_ns.load(Ordering::Relaxed),
            materialize_calls: self.materialize_calls.load(Ordering::Relaxed),
            prefill_cost_calls: self.prefill_cost_calls.load(Ordering::Relaxed),
            decode_cost_calls: self.decode_cost_calls.load(Ordering::Relaxed),
            kv_bytes_calls: self.kv_bytes_calls.load(Ordering::Relaxed),
        }
    }
}

impl<B: ServeBackend> ServeBackend for TimedBackend<'_, B> {
    fn model(&self) -> &ModelConfig {
        self.inner.model()
    }

    fn materialize(&self, req: &Request) -> Result<Vec<u32>, EngineError> {
        let _span = self
            .recorder
            .span("materialize", "lm-engine", self.parent, Some(req.id));
        let t = Instant::now();
        let out = self.inner.materialize(req);
        self.materialize_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.materialize_calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn prefill_seconds(&self, padded_prompt_len: usize, batch: usize) -> f64 {
        self.prefill_cost_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.prefill_seconds(padded_prompt_len, batch)
    }

    fn decode_step_seconds(&self, contexts: &[u64]) -> f64 {
        self.decode_cost_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_step_seconds(contexts)
    }

    fn kv_bytes_at(&self, context: usize) -> usize {
        self.kv_bytes_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.kv_bytes_at(context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_serve::AnalyticBackend;

    #[test]
    fn forwards_counts_and_spans() {
        let inner = AnalyticBackend::opt_30b();
        let rec = Recorder::new(true);
        let root = rec.span("run", "harness", None, None);
        let timed = TimedBackend::new(&inner, &rec, root.id());
        let req = Request::new(5, vec![1, 2, 3], 6);
        assert_eq!(
            timed.materialize(&req).unwrap(),
            inner.materialize(&req).unwrap()
        );
        assert_eq!(
            timed.decode_step_seconds(&[64, 32]),
            inner.decode_step_seconds(&[64, 32])
        );
        assert_eq!(timed.prefill_seconds(48, 2), inner.prefill_seconds(48, 2));
        assert_eq!(timed.kv_bytes_at(17), inner.kv_bytes_at(17));
        assert_eq!(timed.model().name, inner.model().name);
        let t = timed.totals();
        assert_eq!(
            (
                t.materialize_calls,
                t.prefill_cost_calls,
                t.decode_cost_calls,
                t.kv_bytes_calls
            ),
            (1, 1, 1, 1)
        );
        drop(root);
        let spans = rec.snapshot();
        assert_eq!(spans[1].name, "materialize");
        assert_eq!((spans[1].parent, spans[1].request), (Some(0), Some(5)));
    }
}
