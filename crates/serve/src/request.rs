//! The serving request/response vocabulary and the seeded virtual-clock
//! arrival queue.
//!
//! All times are virtual microseconds (`u64`) since the start of the
//! serving run: the scheduler advances its clock by the performance
//! model's task costs, never by wall time, so a run is a deterministic
//! function of `(traffic seed, backend, config)`.

use lm_models::ModelConfig;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shareable cancellation handle: the client side keeps a clone and
/// calls [`CancelToken::cancel_at_us`] (or [`CancelToken::cancel_now`]);
/// the scheduler observes it at every block boundary and resolves the
/// request as a terminal [`Cancellation`], reclaiming its KV lease
/// immediately.
///
/// The token stores the *virtual* microsecond at or after which the
/// client is gone (`u64::MAX` = never). Virtual time keeps cancellation
/// inside the scheduler's determinism contract: a run cancelled "at
/// t=2s" replays identically, which is what the chaos harness's
/// byte-identical replay invariant needs.
#[derive(Debug, Clone)]
pub struct CancelToken {
    at_us: Arc<AtomicU64>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::never()
    }
}

impl CancelToken {
    /// A token that never fires.
    pub fn never() -> Self {
        CancelToken {
            at_us: Arc::new(AtomicU64::new(u64::MAX)),
        }
    }

    /// Cancel effective from virtual time `t_us` (earliest wins if
    /// called repeatedly).
    pub fn cancel_at_us(&self, t_us: u64) {
        self.at_us.fetch_min(t_us, Ordering::Relaxed);
    }

    /// Cancel effective immediately: the scheduler notices at its next
    /// block boundary, whatever the virtual clock reads then.
    pub fn cancel_now(&self) {
        self.cancel_at_us(0);
    }

    /// Is the client gone at virtual time `now_us`?
    pub fn is_cancelled_at(&self, now_us: u64) -> bool {
        now_us >= self.at_us.load(Ordering::Relaxed)
    }

    /// The pending cancel time, if one is set.
    pub fn cancel_time_us(&self) -> Option<u64> {
        match self.at_us.load(Ordering::Relaxed) {
            u64::MAX => None,
            t => Some(t),
        }
    }
}

// A default-constructed token must also mean "never": 0 would cancel
// everything at t=0.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        self.at_us.load(Ordering::Relaxed) == other.at_us.load(Ordering::Relaxed)
    }
}

impl Eq for CancelToken {}

// Serialise as the raw cancel time; deserialising recreates a fresh
// (unshared) token with the same firing time.
impl Serialize for CancelToken {
    fn serialize(&self) -> serde::Value {
        serde::Value::PosInt(self.at_us.load(Ordering::Relaxed))
    }
}

impl Deserialize for CancelToken {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let t: u64 = Deserialize::deserialize(value)?;
        let token = CancelToken::never();
        token.at_us.store(t, Ordering::Relaxed);
        Ok(token)
    }
}

/// One independent generation request entering the serving queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    pub id: u64,
    /// Prompt token ids. Requests are ragged: prompts of any lengths mix
    /// freely, paged at their exact context and stepped by the engine at
    /// their own lengths; only the static baseline pads.
    pub prompt: Vec<u32>,
    /// Tokens to generate beyond the prompt; at least 1.
    pub gen_len: usize,
    /// Larger is more urgent; ties broken by arrival then id.
    pub priority: u8,
    /// Absolute virtual deadline for *admission* (not completion); a
    /// request still queued past it is rejected, mirroring client
    /// timeouts. `None` waits forever.
    pub deadline_us: Option<u64>,
    /// Per-request sampling seed (synthetic backends derive the token
    /// stream from it).
    pub seed: u64,
    /// Virtual arrival time.
    pub arrival_us: u64,
    /// Client-side cancellation handle; defaults to "never". The
    /// scheduler checks it at every block boundary, whether the request
    /// is queued or running.
    pub cancel: CancelToken,
}

impl Request {
    pub fn new(id: u64, prompt: Vec<u32>, gen_len: usize) -> Self {
        Request {
            id,
            prompt,
            gen_len,
            priority: 0,
            deadline_us: None,
            seed: id,
            arrival_us: 0,
            cancel: CancelToken::never(),
        }
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    pub fn with_arrival_us(mut self, arrival_us: u64) -> Self {
        self.arrival_us = arrival_us;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a shared cancellation handle (keep a clone to fire it).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }
}

/// A completed request with its full token stream and latency marks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    pub id: u64,
    pub tokens: Vec<u32>,
    pub arrival_us: u64,
    /// Virtual time the first generated token was delivered.
    pub first_token_us: u64,
    /// Virtual time the last token was delivered.
    pub finish_us: u64,
}

impl Response {
    /// Time to first token, seconds.
    pub fn ttft_s(&self) -> f64 {
        (self.first_token_us.saturating_sub(self.arrival_us)) as f64 / 1e6
    }

    /// End-to-end request latency, seconds.
    pub fn latency_s(&self) -> f64 {
        (self.finish_us.saturating_sub(self.arrival_us)) as f64 / 1e6
    }
}

/// Why a request was cancelled rather than completed or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CancelReason {
    /// The (possibly injected) client vanished mid-generation.
    ClientDisconnect,
    /// The request's own [`CancelToken`] fired.
    Explicit,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::ClientDisconnect => write!(f, "client disconnect"),
            CancelReason::Explicit => write!(f, "explicit cancel"),
        }
    }
}

/// Terminal record of a cancelled request: the third way (after
/// [`Response`] and [`Rejection`]) a request resolves. The scheduler
/// guarantees every admitted-or-queued request ends in exactly one of
/// the three; its KV lease (if any) is reclaimed the moment this record
/// is produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cancellation {
    pub id: u64,
    pub reason: CancelReason,
    /// Tokens already streamed to the client before the cancel landed.
    pub delivered: usize,
    /// Virtual time the scheduler observed the cancellation.
    pub cancel_us: u64,
}

/// Why a request never produced a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// Failed the engine's shared request checker
    /// ([`lm_engine::validate_request`]).
    Invalid(String),
    /// Still queued past its admission deadline.
    DeadlineExpired { deadline_us: u64, now_us: u64 },
    /// Worst-case KV lease larger than the whole pool: unservable under
    /// this plan no matter how long it waits.
    PoolOverCommit { bytes: usize, capacity: usize },
    /// Admission kept failing after the retry budget with no prospect of
    /// recovery (e.g. injected pool pressure on an otherwise empty pool),
    /// or the backend failed the request's first step.
    AdmissionFailed(String),
    /// Shed at admission: the performance model predicts the first token
    /// would land after the request's effective deadline, so queueing it
    /// is doomed work (see `SloPolicy::shed`).
    WouldMissDeadline {
        deadline_us: u64,
        predicted_ttft_us: u64,
    },
}

// The vendored serde derive handles named-field structs and unit-variant
// enums only; a data-carrying enum serialises by hand as a tagged object.
impl Serialize for RejectReason {
    fn serialize(&self) -> serde::Value {
        let mut m = serde::Map::new();
        let kind = match self {
            RejectReason::Invalid(reason) => {
                m.insert("reason".into(), serde::Value::String(reason.clone()));
                "invalid"
            }
            RejectReason::DeadlineExpired {
                deadline_us,
                now_us,
            } => {
                m.insert("deadline_us".into(), serde::Value::PosInt(*deadline_us));
                m.insert("now_us".into(), serde::Value::PosInt(*now_us));
                "deadline_expired"
            }
            RejectReason::PoolOverCommit { bytes, capacity } => {
                m.insert("bytes".into(), serde::Value::PosInt(*bytes as u64));
                m.insert("capacity".into(), serde::Value::PosInt(*capacity as u64));
                "pool_over_commit"
            }
            RejectReason::AdmissionFailed(reason) => {
                m.insert("reason".into(), serde::Value::String(reason.clone()));
                "admission_failed"
            }
            RejectReason::WouldMissDeadline {
                deadline_us,
                predicted_ttft_us,
            } => {
                m.insert("deadline_us".into(), serde::Value::PosInt(*deadline_us));
                m.insert(
                    "predicted_ttft_us".into(),
                    serde::Value::PosInt(*predicted_ttft_us),
                );
                "would_miss_deadline"
            }
        };
        m.insert("kind".into(), serde::Value::String(kind.to_string()));
        serde::Value::Object(m)
    }
}

impl Deserialize for RejectReason {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let map = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for RejectReason"))?;
        let kind: String = serde::field(map, "kind")?;
        match kind.as_str() {
            "invalid" => Ok(RejectReason::Invalid(serde::field(map, "reason")?)),
            "deadline_expired" => Ok(RejectReason::DeadlineExpired {
                deadline_us: serde::field(map, "deadline_us")?,
                now_us: serde::field(map, "now_us")?,
            }),
            "pool_over_commit" => Ok(RejectReason::PoolOverCommit {
                bytes: serde::field(map, "bytes")?,
                capacity: serde::field(map, "capacity")?,
            }),
            "admission_failed" => Ok(RejectReason::AdmissionFailed(serde::field(map, "reason")?)),
            "would_miss_deadline" => Ok(RejectReason::WouldMissDeadline {
                deadline_us: serde::field(map, "deadline_us")?,
                predicted_ttft_us: serde::field(map, "predicted_ttft_us")?,
            }),
            other => Err(serde::Error::custom(format!(
                "unknown RejectReason kind '{other}'"
            ))),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Invalid(r) => write!(f, "invalid request: {r}"),
            RejectReason::DeadlineExpired {
                deadline_us,
                now_us,
            } => {
                write!(f, "deadline {deadline_us}us expired at {now_us}us")
            }
            RejectReason::PoolOverCommit { bytes, capacity } => {
                write!(f, "KV lease of {bytes} B exceeds the {capacity} B pool")
            }
            RejectReason::AdmissionFailed(r) => write!(f, "admission failed: {r}"),
            RejectReason::WouldMissDeadline {
                deadline_us,
                predicted_ttft_us,
            } => write!(
                f,
                "shed: predicted first token at {predicted_ttft_us}us, deadline {deadline_us}us"
            ),
        }
    }
}

/// A rejected request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rejection {
    pub id: u64,
    pub reason: RejectReason,
}

/// Requests sorted by arrival time; the scheduler drains the arrived
/// prefix at each block boundary.
#[derive(Debug, Clone, Default)]
pub struct ArrivalQueue {
    /// Sorted by `(arrival_us, id)` ascending; consumed from the front.
    pending: std::collections::VecDeque<Request>,
}

impl ArrivalQueue {
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| (r.arrival_us, r.id));
        ArrivalQueue {
            pending: requests.into(),
        }
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Arrival time of the next not-yet-arrived request.
    pub fn next_arrival_us(&self) -> Option<u64> {
        self.pending.front().map(|r| r.arrival_us)
    }

    /// Remove and return every request with `arrival_us <= now_us`.
    pub fn pop_arrived(&mut self, now_us: u64) -> Vec<Request> {
        let mut out = Vec::new();
        while self.pending.front().is_some_and(|r| r.arrival_us <= now_us) {
            if let Some(r) = self.pending.pop_front() {
                out.push(r);
            }
        }
        out
    }
}

/// Seconds → virtual microseconds, rounding up so no positive cost ever
/// collapses to zero ticks.
pub(crate) fn micros(seconds: f64) -> u64 {
    (seconds * 1e6).ceil().max(0.0) as u64
}

/// Synthesize a seeded open-loop traffic trace: Poisson arrivals at
/// `rps` requests/second with ragged prompt/generation lengths and mixed
/// priorities, sized to fit `cfg`'s context window. Identical
/// `(seed, rps, n)` always produce the identical trace.
pub fn synth_traffic(seed: u64, rps: f64, n: usize, cfg: &ModelConfig) -> Vec<Request> {
    assert!(rps > 0.0, "rps must be positive");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t_us = 0u64;
    let max_prompt = ((cfg.max_seq_len / 4) as usize).max(5);
    let mut out = Vec::with_capacity(n);
    for id in 0..n as u64 {
        // Exponential inter-arrival: -ln(1-u)/rps.
        let u: f64 = rng.gen();
        t_us += micros(-(1.0 - u).ln() / rps);
        let prompt_tokens = rng.gen_range(4usize..max_prompt);
        let gen_cap = (cfg.max_seq_len as usize - prompt_tokens).clamp(5, 64);
        let gen_len = rng.gen_range(4usize..gen_cap);
        let prompt = (0..prompt_tokens)
            .map(|_| rng.gen_range(1u32..cfg.vocab_size as u32))
            .collect();
        let mut req = Request::new(id, prompt, gen_len)
            .with_priority(rng.gen_range(0u64..3) as u8)
            .with_arrival_us(t_us)
            .with_seed(seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        // A slice of the traffic carries admission deadlines (generous:
        // several mean inter-arrival periods).
        if rng.gen_bool(0.125) {
            req = req.with_deadline_us(t_us + micros(64.0 / rps));
        }
        out.push(req);
    }
    out
}

/// Synthesize chat-shaped traffic for the prefix-sharing scenario:
/// every request's prompt opens with the same `prefix_len`-token system
/// prompt followed by a short unique user suffix. Returns
/// `(shared, control)` — the control trace carries identical arrivals,
/// lengths, priorities, and generation seeds, but a per-request unique
/// prefix of the same length, so any throughput difference between the
/// two runs is attributable to prefix sharing alone. Identical
/// `(seed, rps, n, prefix_len)` always produce identical traces.
pub fn synth_shared_prefix_traffic(
    seed: u64,
    rps: f64,
    n: usize,
    cfg: &ModelConfig,
    prefix_len: usize,
) -> (Vec<Request>, Vec<Request>) {
    assert!(rps > 0.0, "rps must be positive");
    assert!(prefix_len >= 1, "a shared prefix needs at least one token");
    assert!(
        prefix_len + 16 + 32 <= cfg.max_seq_len as usize,
        "prefix must leave room for suffix and generation"
    );
    let vocab = cfg.vocab_size as u32;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5A5A_5A5A_5A5A_5A5A);
    let prefix: Vec<u32> = (0..prefix_len).map(|_| rng.gen_range(1..vocab)).collect();
    let mut t_us = 0u64;
    let mut shared = Vec::with_capacity(n);
    let mut control = Vec::with_capacity(n);
    for id in 0..n as u64 {
        let u: f64 = rng.gen();
        t_us += micros(-(1.0 - u).ln() / rps);
        let suffix_len = rng.gen_range(4usize..16);
        let gen_len = rng.gen_range(8usize..32);
        let suffix: Vec<u32> = (0..suffix_len).map(|_| rng.gen_range(1..vocab)).collect();
        let unique: Vec<u32> = (0..prefix_len).map(|_| rng.gen_range(1..vocab)).collect();
        let req_seed = seed ^ (id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let make = |head: &[u32]| {
            let prompt: Vec<u32> = head.iter().chain(&suffix).copied().collect();
            Request::new(id, prompt, gen_len)
                .with_arrival_us(t_us)
                .with_seed(req_seed)
        };
        shared.push(make(&prefix));
        control.push(make(&unique));
    }
    (shared, control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::presets;

    #[test]
    fn traffic_is_deterministic_and_well_formed() {
        let cfg = presets::opt_30b();
        let a = synth_traffic(7, 4.0, 32, &cfg);
        let b = synth_traffic(7, 4.0, 32, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        let mut prev = 0;
        for r in &a {
            assert!(!r.prompt.is_empty());
            assert!(r.gen_len >= 4);
            assert!((r.prompt.len() + r.gen_len) as u64 <= cfg.max_seq_len);
            assert!(r.arrival_us >= prev, "arrivals must be monotone");
            prev = r.arrival_us;
        }
        let c = synth_traffic(8, 4.0, 32, &cfg);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn arrival_queue_drains_in_time_order() {
        let reqs = vec![
            Request::new(1, vec![1], 2).with_arrival_us(50),
            Request::new(0, vec![1], 2).with_arrival_us(10),
            Request::new(2, vec![1], 2).with_arrival_us(90),
        ];
        let mut q = ArrivalQueue::new(reqs);
        assert_eq!(q.next_arrival_us(), Some(10));
        assert_eq!(q.pop_arrived(5).len(), 0);
        let first = q.pop_arrived(60);
        assert_eq!(first.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_arrived(100)[0].id, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn response_latency_math() {
        let r = Response {
            id: 0,
            tokens: vec![1, 2],
            arrival_us: 1_000_000,
            first_token_us: 1_500_000,
            finish_us: 3_000_000,
        };
        assert!((r.ttft_s() - 0.5).abs() < 1e-9);
        assert!((r.latency_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn micros_rounds_up() {
        assert_eq!(micros(0.0), 0);
        assert_eq!(micros(1e-7), 1);
        assert_eq!(micros(1.5), 1_500_000);
    }

    #[test]
    fn cancel_token_defaults_to_never_and_earliest_wins() {
        let t = CancelToken::default();
        assert!(!t.is_cancelled_at(0));
        assert!(!t.is_cancelled_at(u64::MAX - 1));
        assert_eq!(t.cancel_time_us(), None);
        t.cancel_at_us(500);
        t.cancel_at_us(900); // later call cannot un-cancel
        assert_eq!(t.cancel_time_us(), Some(500));
        assert!(!t.is_cancelled_at(499));
        assert!(t.is_cancelled_at(500));
        let clone = t.clone();
        clone.cancel_at_us(100); // clones share state
        assert_eq!(t.cancel_time_us(), Some(100));
    }

    #[test]
    fn cancel_token_rides_along_on_request_clones() {
        let token = CancelToken::never();
        let req = Request::new(3, vec![1, 2], 4).with_cancel(token.clone());
        let copy = req.clone();
        token.cancel_now();
        assert!(copy.cancel.is_cancelled_at(0));
    }

    #[test]
    fn shared_prefix_traffic_pairs_shared_and_control() {
        let cfg = presets::opt_30b();
        let (s1, c1) = synth_shared_prefix_traffic(7, 4.0, 16, &cfg, 96);
        let (s2, c2) = synth_shared_prefix_traffic(7, 4.0, 16, &cfg, 96);
        assert_eq!(s1, s2, "shared trace is deterministic");
        assert_eq!(c1, c2, "control trace is deterministic");
        let prefix = &s1[0].prompt[..96];
        for (s, c) in s1.iter().zip(&c1) {
            assert_eq!(&s.prompt[..96], prefix, "all shared requests open alike");
            assert_eq!(s.prompt.len(), c.prompt.len(), "paired lengths match");
            assert_eq!(s.arrival_us, c.arrival_us, "paired arrivals match");
            assert_eq!(s.gen_len, c.gen_len, "paired generations match");
            assert_eq!(&s.prompt[96..], &c.prompt[96..], "suffixes match pairwise");
        }
        let distinct: std::collections::BTreeSet<_> =
            c1.iter().map(|r| r.prompt[..96].to_vec()).collect();
        assert_eq!(distinct.len(), c1.len(), "control prefixes are unique");
    }

    #[test]
    fn cancellation_and_new_reject_arm_round_trip_serde() {
        let c = Cancellation {
            id: 9,
            reason: CancelReason::ClientDisconnect,
            delivered: 5,
            cancel_us: 1234,
        };
        let v = Serialize::serialize(&c);
        let back: Cancellation = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, c);

        let r = RejectReason::WouldMissDeadline {
            deadline_us: 10,
            predicted_ttft_us: 25,
        };
        let v = Serialize::serialize(&r);
        let back: RejectReason = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, r);
        assert!(r.to_string().contains("shed"));
    }
}
