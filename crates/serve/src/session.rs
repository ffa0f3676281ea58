//! The serve API (DESIGN.md §9.1): one builder — [`ServeSession`] over a
//! backend, a [`ServeConfig`] and a [`ServeMode`] — is the only way into
//! the serving layer, on either clock.
//!
//! The three entry points share one state machine:
//!
//! - [`ServeSession::run`] / [`ServeSession::run_streaming`] — the
//!   virtual-clock paths. Outcomes are a pure function of `(requests,
//!   backend, config)` (a golden-file test holds `results/serve.json`
//!   to its committed bytes).
//! - [`ServeSession::run_async`] — the scheduler runs on its own thread
//!   behind an `AsyncDriver`: wall time (scaled by
//!   [`AsyncConfig::time_scale`]) paces the modelled clock, each request
//!   streams through its own bounded tokio mpsc channel, a dropped
//!   receiver is a client disconnect, and a channel full past
//!   [`BACKPRESSURE_GRACE`] is shed the same way. Token *values* are
//!   untouched — the `repro async` experiment property-tests streamed
//!   completions against solo `Engine::run` — only timing and delivery
//!   move to wall clocks.

use crate::admission::{ServeConfig, ServeError, ServePlan};
use crate::backend::ServeBackend;
use crate::baselines::run_static;
use crate::driver::{Delivery, ServeDriver, VirtualDriver};
use crate::preflight::preflight;
use crate::request::Request;
use crate::scheduler::{run_continuous, ServeOutcome, TokenEvent};
use lm_analyze::{Diagnostic, LintCode, Report};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tokio::sync::mpsc;
use tokio::sync::mpsc::error::TrySendError;

/// Wall-clock grace a full token channel gets before the token is
/// declared undeliverable and the stream is shed as a client disconnect.
pub const BACKPRESSURE_GRACE: Duration = Duration::from_millis(50);

/// Which scheduler a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// The continuous-batching scheduler (the paper's serving mode):
    /// admission-planned slots, SLO actuation, paged KV, streaming.
    #[default]
    Continuous,
    /// Baseline 1: one call per request in arrival order — static
    /// batching with a batch of one.
    Sequential,
    /// Baseline 2: naive static batching in fixed groups of `batch`.
    Static { batch: usize },
}

/// What [`ServeSession::run`] returns: the admission plan (for the
/// continuous scheduler; the baselines don't plan) and the outcome.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The admission plan that passed pre-flight; `None` for the
    /// baselines, which admit without planning.
    pub plan: Option<ServePlan>,
    pub outcome: ServeOutcome,
}

impl ServeRun {
    /// Split a continuous run into its admission plan and outcome.
    ///
    /// # Panics
    ///
    /// If the run came from a baseline mode ([`ServeMode::Sequential`] /
    /// [`ServeMode::Static`]), which admit per-request instead of
    /// deriving a slot plan.
    pub fn into_continuous(self) -> (ServePlan, ServeOutcome) {
        match self.plan {
            Some(plan) => (plan, self.outcome),
            None => panic!("into_continuous on a baseline run that carries no admission plan"),
        }
    }
}

/// Knobs for the real-time front end, judged by [`AsyncConfig::check`]
/// in [`crate::preflight`] before the session starts. The session's SLO
/// is [`ServeConfig::slo`], judged by `LMA260` as on the virtual clock.
#[derive(Debug, Clone)]
pub struct AsyncConfig {
    /// Capacity of each request's bounded token channel (`LMA300`
    /// rejects 0). Sends past this block the scheduler for up to
    /// [`BACKPRESSURE_GRACE`], then shed the stream.
    pub channel_capacity: usize,
    /// Virtual microseconds per wall microsecond (`LMA302` rejects
    /// non-finite or ≤ 0). `1.0` is real time; large values compress a
    /// long modelled run into a short wall run while keeping relative
    /// timing.
    pub time_scale: f64,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            channel_capacity: 32,
            time_scale: 1.0,
        }
    }
}

impl AsyncConfig {
    /// `LMA30x`: the settings that type-check but can never work once
    /// the scheduler thread runs.
    pub fn check(&self) -> Report {
        let mut out = Vec::new();
        // LMA300: `try_send` on a zero-capacity channel never succeeds,
        // so every token burns the whole backpressure grace and every
        // stream is then cancelled as disconnected.
        if self.channel_capacity == 0 {
            out.push(Diagnostic::error(
                LintCode::Lma300AsyncZeroChannelCapacity,
                "async.channel_capacity",
                "per-request token channel has capacity 0: no token can ever \
                 be delivered, every stream would resolve as a spurious \
                 disconnect",
            ));
        }
        // LMA302: the pacer maps `wall_elapsed · time_scale` onto the
        // modelled clock; a zero, negative or non-finite scale never
        // catches up or jumps past every deadline at once.
        if !self.time_scale.is_finite() || self.time_scale <= 0.0 {
            out.push(Diagnostic::error(
                LintCode::Lma302AsyncBadTimeScale,
                "async.time_scale",
                format!(
                    "time scale {} cannot map wall time onto the modelled \
                     clock (must be finite and > 0)",
                    self.time_scale
                ),
            ));
        }
        Report::new(out)
    }
}

/// The per-request token streams handed to [`ServeSession::run_async`]'s
/// client closure: one bounded receiver per submitted request, keyed by
/// request id. Dropping a receiver (or the whole collection) is how a
/// client disconnects — the scheduler observes the closed channel and
/// cancels the stream, reclaiming its KV.
pub struct TokenStreams {
    rx: BTreeMap<u64, mpsc::Receiver<TokenEvent>>,
}

impl TokenStreams {
    /// Take ownership of one request's stream; `None` if the id is
    /// unknown or already taken.
    pub fn take(&mut self, request_id: u64) -> Option<mpsc::Receiver<TokenEvent>> {
        self.rx.remove(&request_id)
    }

    /// Request ids whose streams have not been taken yet, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.rx.keys().copied().collect()
    }

    /// Drain every remaining `(request_id, receiver)` pair, ascending.
    pub fn drain(&mut self) -> Vec<(u64, mpsc::Receiver<TokenEvent>)> {
        std::mem::take(&mut self.rx).into_iter().collect()
    }
}

/// Builder over a backend + [`ServeConfig`] + [`ServeMode`]: the one
/// serving entry point. Construction is infallible; feasibility is
/// judged once per `run*` call by [`crate::preflight::preflight`].
pub struct ServeSession<'b> {
    backend: &'b dyn ServeBackend,
    cfg: ServeConfig,
    mode: ServeMode,
}

impl<'b> ServeSession<'b> {
    /// A continuous-batching session with the default [`ServeConfig`].
    pub fn new(backend: &'b dyn ServeBackend) -> Self {
        ServeSession {
            backend,
            cfg: ServeConfig::default(),
            mode: ServeMode::Continuous,
        }
    }

    /// Select the scheduler ([`ServeMode::Continuous`] is the default).
    pub fn mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the session's [`ServeConfig`].
    pub fn config(mut self, cfg: ServeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Run on the virtual clock, discarding the token stream.
    pub fn run(&self, requests: Vec<Request>) -> Result<ServeRun, ServeError> {
        self.run_streaming(requests, &mut |_| {})
    }

    /// Run on the virtual clock with synchronous per-token delivery.
    /// Only the continuous scheduler streams; the baselines deliver no
    /// token events (they release whole responses, which is the point of
    /// the comparison).
    pub fn run_streaming(
        &self,
        requests: Vec<Request>,
        on_token: &mut dyn FnMut(TokenEvent),
    ) -> Result<ServeRun, ServeError> {
        unique_ids(&requests)?;
        let (backend, cfg) = (self.backend, &self.cfg);
        let (plan, outcome) = match self.mode {
            ServeMode::Continuous => {
                let plan = preflight(backend, cfg, None)?;
                let mut driver = VirtualDriver::new(on_token);
                let outcome = run_continuous(backend, cfg, &plan, requests, &mut driver)?;
                (Some(plan), outcome)
            }
            ServeMode::Sequential => (None, run_static(backend, cfg, 1, requests)?),
            ServeMode::Static { batch } => (None, run_static(backend, cfg, batch, requests)?),
        };
        Ok(ServeRun { plan, outcome })
    }

    /// Run the continuous scheduler in real time: the scheduler paces
    /// its modelled clock against the wall (scaled by
    /// [`AsyncConfig::time_scale`]) on a dedicated thread while `client`
    /// consumes per-request token streams on the calling thread. Returns
    /// when both sides finish.
    ///
    /// Always drives the continuous scheduler regardless of the
    /// session's [`ServeMode`]: the baselines are virtual-clock
    /// measurement instruments and have no streaming front end.
    ///
    /// Semantics carried over from the virtual path unchanged: token
    /// values (transparency against solo `Engine::run`), admission
    /// order, the SLO actuators, and KV reclamation. What wall time
    /// adds: `pace` may return late (jitter flows into TTFT and the
    /// deadline machinery), a dropped receiver resolves the stream as a
    /// [`CancelReason::ClientDisconnect`](crate::CancelReason)
    /// cancellation at the next boundary, and a channel full past
    /// [`BACKPRESSURE_GRACE`] is shed the same way.
    pub fn run_async<R, F>(
        &self,
        requests: Vec<Request>,
        acfg: &AsyncConfig,
        client: F,
    ) -> Result<(ServeRun, R), ServeError>
    where
        R: Send,
        F: FnOnce(TokenStreams) -> R + Send,
    {
        // Reject inputs that cannot work at runtime before any thread
        // spawns.
        unique_ids(&requests)?;
        let plan = preflight(self.backend, &self.cfg, Some(acfg))?;

        let mut senders = BTreeMap::new();
        let mut receivers = BTreeMap::new();
        for r in &requests {
            let (tx, rx) = mpsc::channel(acfg.channel_capacity);
            senders.insert(r.id, tx);
            receivers.insert(r.id, rx);
        }
        let streams = TokenStreams { rx: receivers };

        let (backend, cfg, planned) = (self.backend, &self.cfg, &plan);
        let (sched, client_out) = std::thread::scope(|s| {
            let sched = s.spawn(move || {
                let mut driver = AsyncDriver {
                    senders,
                    start: Instant::now(),
                    scale: acfg.time_scale,
                };
                run_continuous(backend, cfg, planned, requests, &mut driver)
            });
            // The client consumes on the calling thread; when it drops
            // receivers the scheduler sees closed channels and cancels.
            let client_out = client(streams);
            (sched.join(), client_out)
        });
        match sched {
            Ok(Ok(outcome)) => Ok((
                ServeRun {
                    plan: Some(plan),
                    outcome,
                },
                client_out,
            )),
            Ok(Err(e)) => Err(e),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Every entry point's first check: request ids key the token streams,
/// the terminal records and the lifecycle log, so each must be unique.
/// (One sorted `Vec`, not a set: a set's per-id node allocations cost
/// the 8k-request scheduler simulation measurably.)
fn unique_ids(requests: &[Request]) -> Result<(), ServeError> {
    let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    match ids.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(ServeError::DuplicateRequestId(w[0])),
        None => Ok(()),
    }
}

/// The wall-clock driver behind [`ServeSession::run_async`] (see
/// [`crate::driver`] for the contract).
struct AsyncDriver {
    senders: BTreeMap<u64, mpsc::Sender<TokenEvent>>,
    start: Instant,
    /// Virtual microseconds per wall microsecond.
    scale: f64,
}

impl AsyncDriver {
    fn wall_virtual_us(&self) -> u64 {
        (self.start.elapsed().as_secs_f64() * self.scale * 1e6) as u64
    }
}

impl ServeDriver for AsyncDriver {
    fn pace(&mut self, clock_us: u64) -> u64 {
        loop {
            let now = self.wall_virtual_us();
            if now >= clock_us {
                // Wall time overran the model: the run proceeds at the
                // later clock, so jitter reaches deadlines and TTFT.
                return now;
            }
            let gap = Duration::from_secs_f64((clock_us - now) as f64 / (self.scale * 1e6));
            if gap > Duration::from_micros(500) {
                // Undershoot the sleep and re-check: OS sleep overshoot
                // multiplied by a large time_scale would otherwise leap
                // the virtual clock far past the boundary.
                std::thread::sleep(gap.mul_f64(0.5));
            } else {
                std::thread::yield_now();
            }
        }
    }

    fn deliver(&mut self, event: TokenEvent) -> Delivery {
        let Some(tx) = self.senders.get(&event.request_id) else {
            // Already retired (or never registered): nothing to carry.
            return Delivery::Delivered;
        };
        let mut ev = event;
        let deadline = Instant::now() + BACKPRESSURE_GRACE;
        loop {
            match tx.try_send(ev) {
                Ok(()) => return Delivery::Delivered,
                Err(TrySendError::Closed(_)) => return Delivery::Disconnected,
                Err(TrySendError::Full(back)) => {
                    if Instant::now() >= deadline {
                        return Delivery::Backpressured;
                    }
                    ev = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    fn retire(&mut self, request_id: u64) {
        // Dropping the sender closes the channel once any buffered
        // tokens drain: the consumer's `blocking_recv` returns `None`
        // (`try_recv`, `Disconnected`) as end-of-stream.
        self.senders.remove(&request_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::obs::conform;
    use crate::request::synth_traffic;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn traffic(n: usize) -> (AnalyticBackend, Vec<Request>) {
        let b = AnalyticBackend::opt_30b();
        let reqs = synth_traffic(7, 4.0, n, b.model());
        (b, reqs)
    }

    #[test]
    fn every_entry_point_plans_exactly_once() {
        // With no requests the scheduler never steps, so every
        // `decode_step_seconds` call is the planner quoting a full block.
        let b = crate::backend::tests::Counting::opt_30b();
        let quotes = || b.step_quotes.swap(0, std::sync::atomic::Ordering::Relaxed);
        let session = ServeSession::new(&b);
        session.run(Vec::new()).unwrap();
        assert_eq!(quotes(), 1, "run");
        session.run_streaming(Vec::new(), &mut |_| {}).unwrap();
        assert_eq!(quotes(), 1, "run_streaming");
        session
            .run_async(Vec::new(), &AsyncConfig::default(), |_| ())
            .unwrap();
        assert_eq!(quotes(), 1, "run_async");
    }

    #[test]
    fn enforcing_slo_without_a_tracer_is_reported_not_refused() {
        // LMA27x is `repro obs`'s verdict, not a run gate: the scheduler
        // simulator enforces an SLO with no tracer attached.
        let (b, reqs) = traffic(6);
        let cfg = ServeConfig {
            slo: Some(crate::slo::SloPolicy::enforcing(1e4)),
            ..ServeConfig::default()
        };
        let report = crate::obs::obs_report(&cfg);
        assert!(
            report.has(LintCode::Lma270SloWithoutTtftHistogram),
            "{report}"
        );
        let n = reqs.len();
        let run = ServeSession::new(&b).config(cfg).run(reqs).unwrap();
        let (plan, out) = run.into_continuous();
        assert_eq!(conform(&plan, &out).unwrap().requests, n);
    }

    #[test]
    fn streaming_matches_non_streaming_and_orders_tokens() {
        let (b, reqs) = traffic(10);
        let session = ServeSession::new(&b);
        let quiet = session.run(reqs.clone()).unwrap();
        let mut events: Vec<TokenEvent> = Vec::new();
        let streamed = session
            .run_streaming(reqs, &mut |e| events.push(e))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&quiet.outcome).unwrap(),
            serde_json::to_string(&streamed.outcome).unwrap(),
            "the stream is an observer, not a participant"
        );
        // Every completed response's tokens appear in the stream, in
        // order.
        for r in &streamed.outcome.responses {
            let got: Vec<u32> = events
                .iter()
                .filter(|e| e.request_id == r.id)
                .map(|e| e.token)
                .collect();
            assert_eq!(got, r.tokens, "request {}", r.id);
        }
    }

    #[test]
    fn every_entry_point_rejects_a_repeated_request_id() {
        let b = AnalyticBackend::opt_30b();
        let reqs = vec![
            Request::new(5, vec![1, 2], 4),
            Request::new(4, vec![3], 2),
            Request::new(5, vec![3, 4], 6),
        ];
        let modes = [
            ServeMode::Continuous,
            ServeMode::Sequential,
            ServeMode::Static { batch: 2 },
        ];
        for mode in modes {
            let session = ServeSession::new(&b).mode(mode);
            match session.run_streaming(reqs.clone(), &mut |_| {}) {
                Err(ServeError::DuplicateRequestId(5)) => {}
                other => panic!(
                    "{mode:?}: expected the duplicate id, got ok={}",
                    other.is_ok()
                ),
            }
        }
        let client_ran = AtomicBool::new(false);
        let client = |_| client_ran.store(true, Ordering::Relaxed);
        match ServeSession::new(&b).run_async(reqs, &AsyncConfig::default(), client) {
            Err(ServeError::DuplicateRequestId(5)) => {}
            other => panic!(
                "run_async: expected the duplicate id, got ok={}",
                other.is_ok()
            ),
        }
        assert!(
            !client_ran.load(Ordering::Relaxed),
            "rejected before anything runs"
        );
    }

    #[test]
    fn async_preflight_rejects_zero_capacity_and_bad_scale() {
        let (b, reqs) = traffic(2);
        let session = ServeSession::new(&b);
        let zero = AsyncConfig {
            channel_capacity: 0,
            ..AsyncConfig::default()
        };
        match session.run_async(reqs.clone(), &zero, |_| ()) {
            Err(ServeError::Plan(report)) => {
                assert!(
                    report.has(LintCode::Lma300AsyncZeroChannelCapacity),
                    "{report}"
                )
            }
            other => panic!("expected LMA300 rejection, got ok={}", other.is_ok()),
        }
        let bad_scale = AsyncConfig {
            time_scale: 0.0,
            ..AsyncConfig::default()
        };
        match session.run_async(reqs, &bad_scale, |_| ()) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma302AsyncBadTimeScale), "{report}")
            }
            other => panic!("expected LMA302 rejection, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn async_run_streams_transparently_and_reclaims_kv() {
        let (b, reqs) = traffic(6);
        let session = ServeSession::new(&b);
        // Compress the modelled run (hundreds of virtual seconds) into
        // well under a second of wall time.
        let acfg = AsyncConfig {
            time_scale: 5e5,
            ..AsyncConfig::default()
        };
        let n = reqs.len();
        let (run, collected) = session
            .run_async(reqs, &acfg, |mut streams| {
                let mut got: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
                for (id, mut rx) in streams.drain() {
                    let mut tokens = Vec::new();
                    while let Some(ev) = rx.blocking_recv() {
                        tokens.push(ev.token);
                    }
                    got.insert(id, tokens);
                }
                got
            })
            .unwrap();
        let (plan, out) = run.into_continuous();
        assert_eq!(
            conform(&plan, &out).unwrap().requests,
            n,
            "every request resolves"
        );
        // Transparency: completed responses streamed exactly their
        // tokens (wall jitter may shed *other* requests via deadlines,
        // never corrupt a stream).
        for r in &out.responses {
            assert_eq!(collected.get(&r.id), Some(&r.tokens), "request {}", r.id);
        }
    }

    #[test]
    fn async_dropped_receiver_cancels_stream_without_leaks() {
        let (b, reqs) = traffic(8);
        let session = ServeSession::new(&b);
        let acfg = AsyncConfig {
            time_scale: 5e5,
            ..AsyncConfig::default()
        };
        let n = reqs.len();
        let victim = reqs[0].id;
        let (run, _) = session
            .run_async(reqs, &acfg, |mut streams| {
                // Never consume the victim: drop its receiver on the
                // floor immediately (client disconnect), drain the rest.
                drop(streams.take(victim));
                for (_, mut rx) in streams.drain() {
                    while rx.blocking_recv().is_some() {}
                }
            })
            .unwrap();
        // Every request resolves, and the disconnect reclaims its KV.
        let (plan, out) = run.into_continuous();
        assert_eq!(conform(&plan, &out).unwrap().requests, n);
        // The victim must not have completed: its channel was closed
        // from the first delivery.
        assert!(
            !out.responses.iter().any(|r| r.id == victim),
            "victim stream should resolve as disconnect/rejection, not a response"
        );
    }

    #[test]
    fn async_unread_full_channel_sheds_after_the_grace() {
        let b = AnalyticBackend::opt_30b();
        let (a_id, b_id) = (0, 1);
        let reqs = vec![
            Request::new(a_id, vec![1, 2], 8),
            Request::new(b_id, vec![3, 4], 8),
        ];
        let cfg = ServeConfig {
            tracer: lm_trace::Tracer::new(),
            ..ServeConfig::default()
        };
        let acfg = AsyncConfig {
            channel_capacity: 1,
            time_scale: 5e5,
        };
        let session = ServeSession::new(&b).config(cfg.clone());
        let (run, (a_tokens, b_tokens)) = session
            .run_async(reqs, &acfg, |mut streams| {
                // Drain A to its end before B is read at all: both decode
                // in lockstep, so B's one-slot channel is still full when
                // its second token waits out the grace.
                let read = |rx: Option<mpsc::Receiver<TokenEvent>>| {
                    let mut rx = rx.expect("stream");
                    std::iter::from_fn(|| rx.blocking_recv()).count()
                };
                let a = read(streams.take(a_id));
                (a, read(streams.take(b_id)))
            })
            .unwrap();
        let (plan, out) = run.into_continuous();
        assert_eq!(conform(&plan, &out).unwrap().requests, 2, "no KV leaked");
        let a = out
            .responses
            .iter()
            .find(|r| r.id == a_id)
            .expect("A completes");
        assert_eq!((a.tokens.len(), a_tokens), (8, 8), "A streams in full");
        assert!(out.responses.iter().all(|r| r.id != b_id));
        let cancelled: Vec<_> = out.cancellations.iter().map(|c| (c.id, c.reason)).collect();
        assert_eq!(
            cancelled,
            [(b_id, crate::request::CancelReason::ClientDisconnect)]
        );
        assert_eq!(b_tokens, 1, "B keeps only the token its channel held");
        let counters = cfg.tracer.snapshot().metrics.counters;
        assert_eq!(counters.get("serve.backpressure_disconnects"), Some(&1));
    }
}
