//! The flight recorder (DESIGN.md §8): a bounded ring buffer of recent
//! spans, fault events, and scheduler decisions that survives a crash of
//! the *run* (not the process — everything is in memory) as a post-mortem
//! JSON dump, so a chaos-invariant violation, SLO breach, or
//! `EngineError` is diagnosable from the black box instead of a rerun.
//!
//! Shape follows the crate's null-object convention ([`crate::Tracer`],
//! `lm-fault`'s injector): a disabled recorder is a `None` check per
//! probe and clones are cheap handle copies sharing one ring. The ring
//! keeps the newest `capacity` events and counts what it had to drop;
//! [`FlightRecorder::trigger`] freezes the first failure (first trigger
//! wins — later failures are usually the first one's wreckage) together
//! with a metrics snapshot into a serialisable [`FlightDump`].
//!
//! Timestamps are supplied by the caller (the serve scheduler's virtual
//! clock or [`crate::TraceClock`]), so dumps are deterministic under the
//! seeded chaos harness.

use crate::metrics::MetricsSnapshot;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// One black-box entry: something the system just did or decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotone sequence number over the recorder's lifetime (survives
    /// ring eviction, so gaps reveal dropped history).
    pub seq: u64,
    /// Microseconds on the caller's clock (virtual or wall).
    pub t_us: u64,
    /// Event family: `"span"`, `"fault"`, `"sched"`, `"slo"`, `"engine"`.
    pub category: String,
    /// Human-readable description with the values inline.
    pub label: String,
}

/// The frozen post-mortem: why, when, what the black box held, and the
/// metrics at the moment of failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// What tripped the recorder (invariant name, SLO breach, error).
    pub reason: String,
    /// Trigger time in caller-clock microseconds.
    pub t_us: u64,
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Total events ever recorded (`events.len() + dropped`).
    pub recorded: u64,
    /// Events evicted by the ring before the trigger.
    pub dropped: u64,
    /// The ring's contents, oldest first.
    pub events: Vec<FlightEvent>,
    /// Metrics registry snapshot at trigger time.
    pub metrics: MetricsSnapshot,
}

#[derive(Default)]
struct State {
    events: VecDeque<FlightEvent>,
    recorded: u64,
    dropped: u64,
    dump: Option<FlightDump>,
}

struct Inner {
    capacity: usize,
    state: Mutex<State>,
}

/// Cheaply clonable handle to one shared bounded event ring; disabled
/// (the default) every probe is a single `None` check.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A recorder that records nothing and never triggers.
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// An armed recorder keeping the newest `capacity` events. Capacity
    /// 0 is accepted but useless — every event drops on the floor and
    /// dumps carry no history; `lm-analyze` flags it (LMA271).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                capacity,
                state: Mutex::new(State::default()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Ring capacity; `None` when disabled.
    pub fn capacity(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.capacity)
    }

    /// Append one event, evicting the oldest past capacity. No-op once
    /// a dump is frozen — the black box stops at the first failure.
    pub fn record(&self, t_us: u64, category: &str, label: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let mut st = inner.state.lock();
        if st.dump.is_some() {
            return;
        }
        let seq = st.recorded;
        st.recorded += 1;
        if inner.capacity == 0 {
            st.dropped += 1;
            return;
        }
        if st.events.len() == inner.capacity {
            st.events.pop_front();
            st.dropped += 1;
        }
        st.events.push_back(FlightEvent {
            seq,
            t_us,
            category: category.to_string(),
            label: label.into(),
        });
    }

    /// Freeze a post-mortem dump. The first trigger wins; returns
    /// whether *this* call captured it (`false` when disabled or when a
    /// dump already exists).
    pub fn trigger(&self, reason: &str, t_us: u64, metrics: MetricsSnapshot) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let mut st = inner.state.lock();
        if st.dump.is_some() {
            return false;
        }
        let dump = FlightDump {
            reason: reason.to_string(),
            t_us,
            capacity: inner.capacity,
            recorded: st.recorded,
            dropped: st.dropped,
            events: st.events.iter().cloned().collect(),
            metrics,
        };
        st.dump = Some(dump);
        true
    }

    /// The frozen dump, if any trigger fired.
    pub fn dump(&self) -> Option<FlightDump> {
        self.inner
            .as_ref()
            .and_then(|i| i.state.lock().dump.clone())
    }

    /// Events currently held in the ring.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.state.lock().events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted (or refused at capacity 0) so far.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().dropped)
    }

    /// Total events ever offered to the ring.
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.state.lock().recorded)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "FlightRecorder(disabled)"),
            Some(i) => {
                let st = i.state.lock();
                write!(
                    f,
                    "FlightRecorder(cap={}, held={}, dropped={}, dumped={})",
                    i.capacity,
                    st.events.len(),
                    st.dropped,
                    st.dump.is_some()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        fr.record(1, "sched", "admit 0");
        assert!(!fr.is_enabled());
        assert_eq!(fr.len(), 0);
        assert!(!fr.trigger("boom", 2, MetricsSnapshot::default()));
        assert!(fr.dump().is_none());
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(i, "sched", format!("e{i}"));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        assert_eq!(fr.recorded(), 5);
        assert!(fr.trigger("overflow test", 9, MetricsSnapshot::default()));
        let d = fr.dump().unwrap();
        assert_eq!(d.events.len(), 3);
        assert_eq!(d.events[0].label, "e2");
        assert_eq!(d.events[0].seq, 2, "seq survives eviction");
        assert_eq!(d.events[2].label, "e4");
        assert_eq!(d.recorded, 5);
        assert_eq!(d.dropped, 2);
    }

    #[test]
    fn first_trigger_wins_and_freezes_the_ring() {
        let fr = FlightRecorder::new(8);
        fr.record(1, "fault", "slot_crash slot=2");
        assert!(fr.trigger("invariant: leaked lease", 5, MetricsSnapshot::default()));
        fr.record(6, "sched", "after the crash");
        assert!(!fr.trigger("second failure", 7, MetricsSnapshot::default()));
        let d = fr.dump().unwrap();
        assert_eq!(d.reason, "invariant: leaked lease");
        assert_eq!(d.t_us, 5);
        assert_eq!(d.events.len(), 1, "post-trigger records are refused");
    }

    #[test]
    fn capacity_zero_is_armed_but_holds_nothing() {
        let fr = FlightRecorder::new(0);
        fr.record(1, "sched", "lost");
        assert!(fr.is_enabled());
        assert_eq!(fr.capacity(), Some(0));
        assert_eq!(fr.len(), 0);
        assert_eq!(fr.dropped(), 1);
        assert!(fr.trigger("boom", 2, MetricsSnapshot::default()));
        assert!(fr.dump().unwrap().events.is_empty());
    }

    #[test]
    fn clones_share_the_ring_and_dump_serde_round_trips() {
        let fr = FlightRecorder::new(4);
        let tee = fr.clone();
        tee.record(3, "fault", "transfer_stall");
        assert_eq!(fr.len(), 1);
        assert!(fr.trigger("engine error: Timeout", 4, MetricsSnapshot::default()));
        let d = tee.dump().unwrap();
        let v = serde::Serialize::serialize(&d);
        let back: FlightDump = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, d);
    }
}
