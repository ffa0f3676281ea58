//! Deterministic fault injection for the LM-Offload pipeline.
//!
//! The paper's performance model assumes a well-behaved platform: disks
//! deliver checkpoints, links run at nominal bandwidth, memory pools
//! have the capacity the policy planner budgeted for. This crate
//! supplies the machinery to violate those assumptions on purpose — in
//! the real engine, in the discrete-event simulator, and in the policy
//! layer — so recovery paths (retry with backoff, prefetch
//! backpressure, model-guided degradation) can be exercised and tested.
//!
//! Design constraints, in order:
//!
//! 1. **Zero-cost when off.** A disabled [`FaultInjector`] is a `None`;
//!    every probe is an inlined null check. Token streams with faults
//!    disabled are bit-identical to a build that never heard of this
//!    crate.
//! 2. **Deterministic by seed.** Decisions are *stateless hashes* of
//!    `(seed, kind, site key, attempt)`, not draws from a shared
//!    mutable RNG. Thread interleaving therefore cannot perturb which
//!    operations fail: the same seed produces the same fault pattern
//!    whether the prefetcher wins or loses its races.
//! 3. **Shared accounting.** All layers count injected faults and
//!    recovery actions into one [`FaultStats`], surfaced through
//!    `lm_offload::report` and the `repro` binary.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
mod plan;
mod retry;

pub use plan::{FaultConfig, FaultProfile, StormProfile, DEFAULT_EVENT_LOG_CAP};
pub use retry::{RetryError, RetryPolicy};

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Categories of injected misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A disk read returns an I/O error.
    DiskIo,
    /// A disk read delivers only a prefix of the requested bytes.
    TornRead,
    /// A link's effective bandwidth drops for a window.
    LinkDegrade,
    /// A transfer stalls (wall-clock sleep in the engine, extra latency
    /// in the simulator) before completing.
    TransferStall,
    /// A transient allocation claims pool headroom, making the next
    /// allocations see an exhausted pool.
    PoolPressure,
    /// A prefetched layer is dropped between loader and consumer.
    PrefetchDrop,
    /// A serving client disconnects mid-generation: the request must be
    /// cancelled and its KV lease reclaimed immediately.
    ClientDisconnect,
    /// A serving slot crashes mid-generation: the request loses its slot
    /// and must be re-queued to resume from its generated prefix.
    SlotCrash,
}

impl FaultKind {
    const COUNT: usize = 8;

    fn index(self) -> usize {
        match self {
            FaultKind::DiskIo => 0,
            FaultKind::TornRead => 1,
            FaultKind::LinkDegrade => 2,
            FaultKind::TransferStall => 3,
            FaultKind::PoolPressure => 4,
            FaultKind::PrefetchDrop => 5,
            FaultKind::ClientDisconnect => 6,
            FaultKind::SlotCrash => 7,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FaultKind::DiskIo => "disk_io",
            FaultKind::TornRead => "torn_read",
            FaultKind::LinkDegrade => "link_degrade",
            FaultKind::TransferStall => "transfer_stall",
            FaultKind::PoolPressure => "pool_pressure",
            FaultKind::PrefetchDrop => "prefetch_drop",
            FaultKind::ClientDisconnect => "client_disconnect",
            FaultKind::SlotCrash => "slot_crash",
        }
    }
}

/// One injected fault, for event-sequence assertions in tests and for
/// instant markers on trace timelines.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    pub kind: FaultKind,
    /// Which injection point fired (e.g. `"engine.load_layer"`).
    pub site: &'static str,
    /// The caller's natural key for the operation (layer index, task
    /// sequence number, ...).
    pub key: u64,
    /// Retry attempt at the time of injection (0 for first tries).
    pub attempt: u32,
    /// Microseconds since the attached [`lm_trace::TraceClock`] origin
    /// (`None` when no clock is attached), so fault instants line up
    /// with tracer spans in the Perfetto view.
    pub t_us: Option<u64>,
}

/// Timestamps are excluded from equality: which faults fire where is
/// deterministic by seed, *when* they fire is wall-clock noise. This is
/// what lets determinism tests assert `a.events() == b.events()` across
/// runs with clocks attached.
impl PartialEq for FaultEvent {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.site == other.site
            && self.key == other.key
            && self.attempt == other.attempt
    }
}

impl Eq for FaultEvent {}

/// Injected-fault and recovery counters, serialised into results JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    pub seed: u64,
    pub disk_io_faults: u64,
    pub torn_reads: u64,
    pub link_degrades: u64,
    pub transfer_stalls: u64,
    pub pool_pressure_spikes: u64,
    pub prefetch_drops: u64,
    pub client_disconnects: u64,
    pub slot_crashes: u64,
    /// Retries attempted by recovery wrappers.
    pub retries: u64,
    /// Retries that ended in success.
    pub retry_successes: u64,
    /// Times the degradation controller switched to a fallback policy.
    pub degradations: u64,
    /// Total wall/virtual milliseconds added by injected stalls.
    pub stall_ms_total: u64,
    /// Events evicted from the bounded log (counters never drop).
    pub dropped_events: u64,
}

impl FaultStats {
    /// Total injected faults of all kinds.
    pub fn total_faults(&self) -> u64 {
        self.disk_io_faults
            + self.torn_reads
            + self.link_degrades
            + self.transfer_stalls
            + self.pool_pressure_spikes
            + self.prefetch_drops
            + self.client_disconnects
            + self.slot_crashes
    }
}

struct Inner {
    cfg: FaultConfig,
    injected: [AtomicU64; FaultKind::COUNT],
    retries: AtomicU64,
    retry_successes: AtomicU64,
    degradations: AtomicU64,
    stall_ms_total: AtomicU64,
    /// Pressure probes observed across every pool sharing this injector
    /// — the clock the bounded pressure episode runs on. Pools keep
    /// their own per-instance counters, so a rebuilt engine would reset
    /// a per-pool clock and re-enter the episode forever.
    pressure_probes: AtomicU64,
    log: Mutex<EventLog>,
    /// Run-origin clock stamping the event log (attached by the engine
    /// when a tracer is active, so fault instants share the span time
    /// base).
    clock: Mutex<Option<lm_trace::TraceClock>>,
    /// Optional black-box tee: every injected fault is also recorded
    /// into an attached [`lm_trace::FlightRecorder`], so a post-mortem
    /// dump carries the fault history that led up to the failure.
    flight: Mutex<lm_trace::FlightRecorder>,
}

/// The bounded fault event log: a ring buffer of the most recent
/// `cap` events. Eviction drops the *oldest* events and counts them, so
/// `events()` stays order-stable (oldest retained first) and long chaos
/// runs cannot grow memory without bound.
struct EventLog {
    buf: VecDeque<FaultEvent>,
    cap: usize,
    dropped: u64,
}

impl EventLog {
    fn new(cap: usize) -> Self {
        EventLog {
            // Pre-size modestly: storms can have tiny caps.
            buf: VecDeque::with_capacity(cap.min(1024)),
            cap,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: FaultEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        while self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

/// Handle threaded through the pipeline. Clones share counters and the
/// event log. `FaultInjector::disabled()` (and `Default`) produce the
/// zero-cost null injector.
#[derive(Clone, Default)]
pub struct FaultInjector {
    inner: Option<Arc<Inner>>,
}

/// SplitMix64 finaliser — decision hashing.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to [0, 1).
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultInjector {
    /// The null injector: every probe returns "no fault" via an inlined
    /// `None` check; no allocation, no atomics.
    pub fn disabled() -> Self {
        FaultInjector { inner: None }
    }

    pub fn new(cfg: FaultConfig) -> Self {
        let log = EventLog::new(cfg.event_log_cap.min(usize::MAX as u64) as usize);
        FaultInjector {
            inner: Some(Arc::new(Inner {
                cfg,
                injected: Default::default(),
                retries: AtomicU64::new(0),
                retry_successes: AtomicU64::new(0),
                degradations: AtomicU64::new(0),
                stall_ms_total: AtomicU64::new(0),
                pressure_probes: AtomicU64::new(0),
                log: Mutex::new(log),
                clock: Mutex::new(None),
                flight: Mutex::new(lm_trace::FlightRecorder::disabled()),
            })),
        }
    }

    /// Enabled injector with the given seed and the default
    /// moderate-rate profile.
    pub fn from_seed(seed: u64) -> Self {
        FaultInjector::new(FaultConfig::profile(seed, FaultProfile::Moderate))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    pub fn seed(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.cfg.seed)
    }

    pub fn config(&self) -> Option<&FaultConfig> {
        self.inner.as_ref().map(|i| &i.cfg)
    }

    /// Stateless decision draw in [0, 1) for `(kind, key, attempt)`.
    fn draw(&self, inner: &Inner, kind: FaultKind, key: u64, attempt: u32) -> f64 {
        let h = mix(
            inner
                .cfg
                .seed
                .wrapping_add(mix(kind.index() as u64))
                .wrapping_add(mix(key).rotate_left(17))
                .wrapping_add(attempt as u64),
        );
        unit(h)
    }

    fn record(&self, inner: &Inner, kind: FaultKind, site: &'static str, key: u64, attempt: u32) {
        inner.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
        let t_us = inner
            .clock
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map(|c| c.now_us());
        {
            let flight = inner.flight.lock().unwrap_or_else(|e| e.into_inner());
            if flight.is_enabled() {
                flight.record(
                    t_us.unwrap_or(0),
                    "fault",
                    format!("{} site={site} key={key} attempt={attempt}", kind.name()),
                );
            }
        }
        let mut log = inner.log.lock().unwrap_or_else(|e| e.into_inner());
        log.push(FaultEvent {
            kind,
            site,
            key,
            attempt,
            t_us,
        });
    }

    /// How many events the bounded log has evicted so far.
    pub fn dropped_events(&self) -> u64 {
        match self.inner.as_deref() {
            Some(inner) => inner.log.lock().unwrap_or_else(|e| e.into_inner()).dropped,
            None => 0,
        }
    }

    /// Attach a run-origin clock; subsequent events get `t_us` stamps on
    /// that time base. No-op on a disabled injector.
    pub fn set_clock(&self, clock: lm_trace::TraceClock) {
        if let Some(inner) = self.inner.as_deref() {
            *inner.clock.lock().unwrap_or_else(|e| e.into_inner()) = Some(clock);
        }
    }

    /// Tee subsequent injected faults into a flight recorder (in
    /// addition to the bounded event log), so black-box dumps include
    /// the fault history. No-op on a disabled injector; timestamps use
    /// the attached clock (0 when none is attached — the serve
    /// scheduler's virtual-clock faults pass their own time via the
    /// scheduler's `sched` records instead).
    pub fn set_flight(&self, flight: lm_trace::FlightRecorder) {
        if let Some(inner) = self.inner.as_deref() {
            *inner.flight.lock().unwrap_or_else(|e| e.into_inner()) = flight;
        }
    }

    /// Should the disk read for `(site, key)` on retry `attempt` fail
    /// with an I/O error?
    #[inline]
    pub fn disk_error(&self, site: &'static str, key: u64, attempt: u32) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return false;
        };
        if self.draw(inner, FaultKind::DiskIo, key, attempt) < inner.cfg.disk_error_rate {
            self.record(inner, FaultKind::DiskIo, site, key, attempt);
            true
        } else {
            false
        }
    }

    /// Should the disk read deliver only part of its payload? Returns
    /// the surviving fraction in (0, 1).
    #[inline]
    pub fn torn_read(&self, site: &'static str, key: u64, attempt: u32) -> Option<f64> {
        let inner = self.inner.as_deref()?;
        if self.draw(inner, FaultKind::TornRead, key, attempt) < inner.cfg.torn_read_rate {
            self.record(inner, FaultKind::TornRead, site, key, attempt);
            // Second draw: where the read tears (5%..95% delivered).
            let frac = 0.05 + 0.9 * self.draw(inner, FaultKind::TornRead, key ^ 0xA5A5, attempt);
            Some(frac)
        } else {
            None
        }
    }

    /// Effective bandwidth multiplier for window `key`, if the link is
    /// degraded there (e.g. `Some(0.25)` = quarter speed).
    #[inline]
    pub fn bandwidth_factor(&self, site: &'static str, key: u64) -> Option<f64> {
        let inner = self.inner.as_deref()?;
        if self.draw(inner, FaultKind::LinkDegrade, key, 0) < inner.cfg.link_degrade_rate {
            self.record(inner, FaultKind::LinkDegrade, site, key, 0);
            Some(inner.cfg.link_degrade_factor)
        } else {
            None
        }
    }

    /// Extra latency injected into transfer `key`, if it stalls.
    #[inline]
    pub fn transfer_stall(&self, site: &'static str, key: u64) -> Option<Duration> {
        let inner = self.inner.as_deref()?;
        if self.draw(inner, FaultKind::TransferStall, key, 0) < inner.cfg.stall_rate {
            self.record(inner, FaultKind::TransferStall, site, key, 0);
            inner
                .stall_ms_total
                .fetch_add(inner.cfg.stall_ms, Ordering::Relaxed);
            Some(Duration::from_millis(inner.cfg.stall_ms))
        } else {
            None
        }
    }

    /// Transient extra bytes squatting in the pool around operation
    /// `key` (a pressure spike), if one fires.
    #[inline]
    pub fn pool_pressure(&self, site: &'static str, key: u64) -> Option<u64> {
        let inner = self.inner.as_deref()?;
        // A bounded burst models a pressure *episode*: probes past the
        // burst see a pool that has recovered.
        if inner.cfg.pool_pressure_burst != 0 {
            let n = inner.pressure_probes.fetch_add(1, Ordering::Relaxed) + 1;
            if n > inner.cfg.pool_pressure_burst {
                return None;
            }
        }
        if self.draw(inner, FaultKind::PoolPressure, key, 0) < inner.cfg.pool_pressure_rate {
            self.record(inner, FaultKind::PoolPressure, site, key, 0);
            Some(inner.cfg.pool_pressure_bytes)
        } else {
            None
        }
    }

    /// Does the client of the admission for `(site, key)` disconnect
    /// mid-generation? Returns the fraction of the *remaining* tokens it
    /// sticks around for, in (0, 1) — the scheduler converts that to a
    /// concrete token index (always granting at least one token of
    /// progress, so storms at rate 1.0 still terminate).
    #[inline]
    pub fn client_disconnect(&self, site: &'static str, key: u64) -> Option<f64> {
        let inner = self.inner.as_deref()?;
        if self.draw(inner, FaultKind::ClientDisconnect, key, 0) < inner.cfg.disconnect_rate {
            self.record(inner, FaultKind::ClientDisconnect, site, key, 0);
            // Second draw: how far into the remaining generation the
            // client survives (5%..95%).
            let frac = 0.05
                + 0.9 * self.draw(inner, FaultKind::ClientDisconnect, key ^ 0xC3C3, 0);
            Some(frac)
        } else {
            None
        }
    }

    /// Does the slot serving admission `(site, key)` crash
    /// mid-generation on service attempt `attempt`? Returns the fraction
    /// of the remaining tokens emitted before the crash, in (0, 1).
    /// Attempts are independent draws, so a re-queued request can
    /// succeed on retry.
    #[inline]
    pub fn slot_crash(&self, site: &'static str, key: u64, attempt: u32) -> Option<f64> {
        let inner = self.inner.as_deref()?;
        if self.draw(inner, FaultKind::SlotCrash, key, attempt) < inner.cfg.slot_crash_rate {
            self.record(inner, FaultKind::SlotCrash, site, key, attempt);
            let frac =
                0.05 + 0.9 * self.draw(inner, FaultKind::SlotCrash, key ^ 0x5C5C, attempt);
            Some(frac)
        } else {
            None
        }
    }

    /// Should the prefetched item for `key` be dropped before the
    /// consumer sees it (forcing a demand re-load)?
    #[inline]
    pub fn prefetch_drop(&self, site: &'static str, key: u64) -> bool {
        let Some(inner) = self.inner.as_deref() else {
            return false;
        };
        if self.draw(inner, FaultKind::PrefetchDrop, key, 0) < inner.cfg.prefetch_drop_rate {
            self.record(inner, FaultKind::PrefetchDrop, site, key, 0);
            true
        } else {
            false
        }
    }

    // ---- recovery accounting ----------------------------------------

    /// Record one retry attempt (called by recovery wrappers).
    pub fn note_retry(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record that a retried operation eventually succeeded.
    pub fn note_retry_success(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.retry_successes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a policy degradation decision.
    pub fn note_degradation(&self) {
        if let Some(inner) = self.inner.as_deref() {
            inner.degradations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record simulator-side stall time (virtual, so not counted by
    /// [`FaultInjector::transfer_stall`] itself).
    pub fn note_stall_ms(&self, ms: u64) {
        if let Some(inner) = self.inner.as_deref() {
            inner.stall_ms_total.fetch_add(ms, Ordering::Relaxed);
        }
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> FaultStats {
        let Some(inner) = self.inner.as_deref() else {
            return FaultStats::default();
        };
        let get = |k: FaultKind| inner.injected[k.index()].load(Ordering::Relaxed);
        FaultStats {
            seed: inner.cfg.seed,
            disk_io_faults: get(FaultKind::DiskIo),
            torn_reads: get(FaultKind::TornRead),
            link_degrades: get(FaultKind::LinkDegrade),
            transfer_stalls: get(FaultKind::TransferStall),
            pool_pressure_spikes: get(FaultKind::PoolPressure),
            prefetch_drops: get(FaultKind::PrefetchDrop),
            client_disconnects: get(FaultKind::ClientDisconnect),
            slot_crashes: get(FaultKind::SlotCrash),
            retries: inner.retries.load(Ordering::Relaxed),
            retry_successes: inner.retry_successes.load(Ordering::Relaxed),
            degradations: inner.degradations.load(Ordering::Relaxed),
            stall_ms_total: inner.stall_ms_total.load(Ordering::Relaxed),
            dropped_events: self.dropped_events(),
        }
    }

    /// Chronological injected-fault log (order within one site is the
    /// site's operation order; cross-site order follows wall clock).
    /// Bounded by [`FaultConfig::event_log_cap`]: when full, the oldest
    /// events are evicted, the retained suffix keeps its order, and
    /// [`FaultInjector::dropped_events`] counts the loss.
    pub fn events(&self) -> Vec<FaultEvent> {
        match self.inner.as_deref() {
            Some(inner) => inner
                .log
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .buf
                .iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.inner.as_deref() {
            Some(inner) => write!(f, "FaultInjector(seed={})", inner.cfg.seed),
            None => write!(f, "FaultInjector(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let f = FaultInjector::disabled();
        for k in 0..10_000 {
            assert!(!f.disk_error("t", k, 0));
            assert!(f.torn_read("t", k, 0).is_none());
            assert!(f.bandwidth_factor("t", k).is_none());
            assert!(f.transfer_stall("t", k).is_none());
            assert!(f.pool_pressure("t", k).is_none());
            assert!(!f.prefetch_drop("t", k));
            assert!(f.client_disconnect("t", k).is_none());
            assert!(f.slot_crash("t", k, 0).is_none());
        }
        assert_eq!(f.stats(), FaultStats::default());
        assert!(f.events().is_empty());
        assert_eq!(f.dropped_events(), 0);
    }

    #[test]
    fn disconnects_and_crashes_draw_progress_fractions() {
        let f = FaultInjector::new(FaultConfig {
            disconnect_rate: 1.0,
            slot_crash_rate: 1.0,
            ..FaultConfig::quiescent(13)
        });
        for k in 0..500 {
            let d = f.client_disconnect("serve", k).expect("rate 1.0 fires");
            assert!((0.05..0.95).contains(&d), "disconnect frac {d}");
            let c0 = f.slot_crash("serve", k, 0).expect("rate 1.0 fires");
            let c1 = f.slot_crash("serve", k, 1).expect("rate 1.0 fires");
            assert!((0.05..0.95).contains(&c0), "crash frac {c0}");
            // Attempts are independent draws: retried crashes land at a
            // different point (almost surely, and deterministically so).
            if k == 0 {
                assert_ne!(c0.to_bits(), c1.to_bits());
            }
        }
        let s = f.stats();
        assert_eq!(s.client_disconnects, 500);
        assert_eq!(s.slot_crashes, 1000);
        assert_eq!(s.total_faults(), 1500);
    }

    #[test]
    fn event_log_is_a_ring_buffer_with_stable_order() {
        let f = FaultInjector::new(FaultConfig {
            disk_error_rate: 1.0,
            event_log_cap: 8,
            ..FaultConfig::quiescent(3)
        });
        for k in 0..20 {
            assert!(f.disk_error("t", k, 0));
        }
        let ev = f.events();
        assert_eq!(ev.len(), 8, "log bounded at the cap");
        // Oldest evicted, retained suffix in order: keys 12..=19.
        let keys: Vec<u64> = ev.iter().map(|e| e.key).collect();
        assert_eq!(keys, (12..20).collect::<Vec<u64>>());
        assert_eq!(f.dropped_events(), 12);
        let s = f.stats();
        assert_eq!(s.dropped_events, 12);
        assert_eq!(s.disk_io_faults, 20, "counters never drop");
    }

    #[test]
    fn zero_cap_keeps_no_events_but_counts() {
        let f = FaultInjector::new(FaultConfig {
            disk_error_rate: 1.0,
            event_log_cap: 0,
            ..FaultConfig::quiescent(3)
        });
        for k in 0..5 {
            assert!(f.disk_error("t", k, 0));
        }
        assert!(f.events().is_empty());
        assert_eq!(f.dropped_events(), 5);
        assert_eq!(f.stats().disk_io_faults, 5);
    }

    #[test]
    fn pressure_burst_bounds_the_episode() {
        let f = FaultInjector::new(FaultConfig {
            pool_pressure_rate: 1.0,
            pool_pressure_bytes: 1 << 20,
            pool_pressure_burst: 4,
            ..FaultConfig::quiescent(9)
        });
        // The burst clock counts probes across all callers, so the key
        // (a per-pool counter that would reset on engine rebuild) does
        // not matter — only how many probes this injector has seen.
        for i in 0..4 {
            assert!(f.pool_pressure("t", 1).is_some(), "probe {i} inside burst");
        }
        for i in 4..100 {
            assert!(f.pool_pressure("t", 1).is_none(), "probe {i} past burst");
        }
        assert_eq!(f.stats().pool_pressure_spikes, 4);
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultInjector::from_seed(42);
        let b = FaultInjector::from_seed(42);
        for k in 0..2_000 {
            assert_eq!(a.disk_error("t", k, 0), b.disk_error("t", k, 0));
            assert_eq!(a.torn_read("t", k, 1), b.torn_read("t", k, 1));
            assert_eq!(a.pool_pressure("t", k), b.pool_pressure("t", k));
        }
        assert_eq!(a.events(), b.events());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::from_seed(1);
        let b = FaultInjector::from_seed(2);
        let fire_a: Vec<bool> = (0..4_000).map(|k| a.disk_error("t", k, 0)).collect();
        let fire_b: Vec<bool> = (0..4_000).map(|k| b.disk_error("t", k, 0)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = FaultConfig {
            disk_error_rate: 0.2,
            ..FaultConfig::profile(7, FaultProfile::Moderate)
        };
        let f = FaultInjector::new(cfg);
        let n = 20_000u64;
        let fired = (0..n).filter(|&k| f.disk_error("t", k, 0)).count() as f64;
        let rate = fired / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed rate {rate}");
    }

    #[test]
    fn attempts_are_independent_draws() {
        // A key that fails at attempt 0 must be able to pass at a later
        // attempt — that's what makes retry meaningful.
        let f = FaultInjector::new(FaultConfig {
            disk_error_rate: 0.5,
            ..FaultConfig::profile(3, FaultProfile::Moderate)
        });
        let mut recovered = 0;
        for k in 0..200 {
            if f.disk_error("t", k, 0) && !f.disk_error("t", k, 1) {
                recovered += 1;
            }
        }
        assert!(recovered > 10, "retries never clear: {recovered}");
    }

    #[test]
    fn counters_track_recovery_notes() {
        let f = FaultInjector::from_seed(9);
        f.note_retry();
        f.note_retry();
        f.note_retry_success();
        f.note_degradation();
        f.note_stall_ms(30);
        let s = f.stats();
        assert_eq!(s.retries, 2);
        assert_eq!(s.retry_successes, 1);
        assert_eq!(s.degradations, 1);
        assert_eq!(s.stall_ms_total, 30);
        assert_eq!(s.seed, 9);
    }

    #[test]
    fn clones_share_counters() {
        let f = FaultInjector::from_seed(11);
        let g = f.clone();
        g.note_retry();
        assert_eq!(f.stats().retries, 1);
    }

    #[test]
    fn clock_stamps_events_and_equality_ignores_timestamps() {
        let cfg = FaultConfig {
            disk_error_rate: 1.0,
            ..FaultConfig::quiescent(3)
        };
        // No clock attached: events carry no timestamp.
        let bare = FaultInjector::new(cfg.clone());
        assert!(bare.disk_error("t", 0, 0));
        assert_eq!(bare.events()[0].t_us, None);
        // Clock attached: events are stamped, monotonically.
        let stamped = FaultInjector::new(cfg.clone());
        stamped.set_clock(lm_trace::TraceClock::start());
        assert!(stamped.disk_error("t", 0, 0));
        std::thread::sleep(Duration::from_millis(1));
        assert!(stamped.disk_error("t", 1, 0));
        let ev = stamped.events();
        let (a, b) = (ev[0].t_us.unwrap(), ev[1].t_us.unwrap());
        assert!(b > a, "stamps must advance: {a} then {b}");
        // Determinism assertions survive wall-clock stamps: same seed,
        // different clocks, equal event logs.
        let again = FaultInjector::new(cfg);
        again.set_clock(lm_trace::TraceClock::start());
        assert!(again.disk_error("t", 0, 0));
        assert!(again.disk_error("t", 1, 0));
        assert_eq!(stamped.events(), again.events());
    }

    #[test]
    fn flight_tee_records_injected_faults() {
        let f = FaultInjector::new(FaultConfig {
            disk_error_rate: 1.0,
            ..FaultConfig::quiescent(3)
        });
        let flight = lm_trace::FlightRecorder::new(16);
        f.set_flight(flight.clone());
        assert!(f.disk_error("engine.load_layer", 4, 1));
        assert_eq!(flight.len(), 1);
        assert!(flight.trigger("test", 0, lm_trace::MetricsSnapshot::default()));
        let d = flight.dump().unwrap();
        assert_eq!(d.events[0].category, "fault");
        assert_eq!(d.events[0].label, "disk_io site=engine.load_layer key=4 attempt=1");
        // Disabled injector: attaching a recorder is a no-op.
        let off = FaultInjector::disabled();
        let fr = lm_trace::FlightRecorder::new(4);
        off.set_flight(fr.clone());
        assert!(!off.disk_error("t", 0, 0));
        assert_eq!(fr.len(), 0);
    }

    #[test]
    fn stats_serialise_round_trip() {
        let f = FaultInjector::from_seed(5);
        f.note_retry();
        let s = f.stats();
        let v = serde::Serialize::serialize(&s);
        let back: FaultStats = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, s);
    }
}
