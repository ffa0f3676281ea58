//! The deterministic continuous-batching scheduler: a small state
//! machine whose block boundary is a fixed sequence of named phases.
//!
//! Determinism contract: the scheduler runs on a virtual clock (u64
//! microseconds) advanced only by the backend's modelled task costs.
//! Admission order is a total order — fresh deadline-holders earliest
//! deadline first, then `(priority desc, arrival asc, id asc)` — and
//! every boundary runs the same phases in the same order, so a run is a
//! pure function of `(requests, backend, config)`: byte-identical
//! outcomes across runs and machines.
//!
//! One boundary (`Scheduler::boundary`; each phase is a method of that
//! name, documented there): `pop_arrivals` → `sweep_slots` (cancels,
//! disconnects, crashes of resident sequences) → `sweep_queue` (queued
//! cancels, expired deadlines) → `audit_ttft` → `slo_monitor` (preempt
//! or degrade, DESIGN.md §9.2) → `shed` → `admit` (page grants from the
//! shared [`PagedKvPool`], DESIGN.md §9.3, deadline rescue, the granted's
//! first [`ServeBackend::step`], one group prefill) → `sample_boundary` →
//! `decode_step` (one `step` over the block, then one token to every
//! resident sequence, through the [`ServeDriver`]) → `retire`.
//!
//! Every request resolves exactly once — response, rejection, or
//! cancellation — because `Scheduler::resolve` is the only code that
//! records a terminal state and retires the request at the driver.
//! Debug builds check each finished run against the lifecycle
//! specification, [`conform`](crate::obs::conform).

use crate::admission::{ServeConfig, ServeError, ServePlan};
use crate::backend::{ServeBackend, StepSeq};
use crate::driver::{Delivery, ServeDriver};
use crate::obs::{BoundaryObs, LifecycleEvent, RequestPhase, ServeObs, TtftSample};
use crate::request::{
    micros, ArrivalQueue, CancelReason, Cancellation, RejectReason, Rejection, Request, Response,
};
use crate::slo::{degrade_factor, SloPolicy, TtftModel, SHED_SLACK};
use lm_engine::{validate_request, EngineError, MemPool, PoolExhausted};
use lm_fault::RetryError;
use lm_kvpool::{PageConfig, PagedKvPool, SeqKv};
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One streamed token, delivered as it is generated (virtual time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    pub request_id: u64,
    /// 0-based index of this token within the request's generation.
    pub index: usize,
    pub token: u32,
    pub t_us: u64,
}

/// Admission-lifecycle accounting for one continuous run. Admissions
/// count *events*, not requests: a request that crashes and resumes is
/// admitted more than once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Slot admissions granted (including re-admissions after crash or
    /// preemption).
    pub admitted: u64,
    /// Admissions that ran to a finished [`Response`].
    pub completed: u64,
    /// Admissions ended by cancellation (explicit or disconnect) while
    /// holding a slot.
    pub cancelled_in_slot: u64,
    /// Admissions evicted by the SLO monitor (later re-admitted).
    pub preemptions: u64,
    /// Admissions ended by an injected slot crash (later re-admitted).
    pub slot_crashes: u64,
    /// Requests shed at admission with `WouldMissDeadline`.
    pub shed: u64,
    /// Degrade-ladder rungs climbed.
    pub degradations: u64,
    /// Boundaries where the predicted p99 TTFT exceeded the SLO.
    pub predicted_violations: u64,
}

impl ServeStats {
    /// Conservation law: every admission ends in exactly one of
    /// completion, in-slot cancellation, preemption, or slot crash.
    pub fn admissions_balanced(&self) -> bool {
        self.admitted
            == self.completed + self.cancelled_in_slot + self.preemptions + self.slot_crashes
    }
}

/// What one serving run produced. Every scheduler accumulates into a
/// default (empty) outcome as it runs and seals it with `close`; the
/// baselines, which hold no KV and keep no lifecycle record, leave those
/// parts at zero.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeOutcome {
    pub responses: Vec<Response>,
    pub rejections: Vec<Rejection>,
    /// Requests that resolved by cancellation (explicit or injected
    /// disconnect) — the third terminal state.
    pub cancellations: Vec<Cancellation>,
    /// Virtual end-to-end duration, seconds.
    pub sim_seconds: f64,
    /// Real (non-padding) tokens generated.
    pub generated_tokens: u64,
    /// Padding tokens charged: prompt and generation padding to the
    /// batch max in the static baseline. The continuous scheduler pages
    /// the exact context and charges none.
    pub padding_tokens: u64,
    /// High-water mark of the serve KV pool, bytes (0 for baselines that
    /// do not lease).
    pub kv_peak_bytes: usize,
    /// Serve-pool bytes still held when the run ended. The RAII-lease
    /// invariant demands this is always zero; the chaos harness fails
    /// the run otherwise.
    pub kv_leaked_bytes: usize,
    /// Deadline misses: for the continuous scheduler, deadline-reason
    /// rejections (expired in queue, or shed as unmeetable); the
    /// baselines *report* (without enforcing) requests whose service
    /// started past their deadline, keeping `results/serve.json`
    /// comparisons apples-to-apples.
    pub deadline_misses: u64,
    /// Admission-lifecycle accounting (continuous scheduler only;
    /// baselines leave it default).
    pub stats: ServeStats,
    /// High-water mark of mapped pages in the paged KV pool (0 for the
    /// baselines).
    pub kv_pages_peak: u64,
    /// Pages still mapped when the run ended; the page-table RAII
    /// invariant demands zero, and the chaos harness gates on it
    /// independently of `kv_leaked_bytes`.
    pub kv_pages_leaked: u64,
    /// Page mappings served from the prefix index at admission (one per
    /// already-resident full prompt page, summed over admissions).
    pub shared_prefix_hits: u64,
    /// Prompt tokens whose KV was already resident at admission — the
    /// prefill work sharing skipped.
    pub shared_tokens: u64,
    /// Observability record (DESIGN.md §8): request lifecycle events,
    /// per-boundary state samples, and TTFT prediction audit pairs.
    /// Pure virtual-clock data, so it is as replay-deterministic as the
    /// rest of the outcome. Baselines leave it empty.
    pub obs: ServeObs,
}

impl ServeOutcome {
    /// Seal the run at its final clock, terminal states ordered by id.
    pub(crate) fn close(mut self, clock_us: u64) -> Self {
        self.responses.sort_by_key(|r| r.id);
        self.rejections.sort_by_key(|r| r.id);
        self.cancellations.sort_by_key(|c| c.id);
        self.sim_seconds = clock_us as f64 / 1e6;
        self
    }

    /// Real tokens per virtual second.
    pub fn tokens_per_s(&self) -> f64 {
        if self.sim_seconds > 0.0 {
            self.generated_tokens as f64 / self.sim_seconds
        } else {
            0.0
        }
    }

    /// How many requests reached a terminal state (each exactly once).
    pub fn terminal_count(&self) -> usize {
        self.responses.len() + self.rejections.len() + self.cancellations.len()
    }
}

/// One request inside the scheduler: waiting for a slot (first time, or
/// again after a crash or preemption) or resident in one.
struct Seq {
    req: Request,
    /// The tokens the backend has produced so far, never fewer than
    /// `emitted`. Kept across a crash or preemption, so a resume
    /// continues the same stream and never generates again.
    tokens: Vec<u32>,
    /// Tokens already streamed to the client.
    emitted: usize,
    first_token_us: Option<u64>,
    /// Crash ordinal; keys the next admission's crash draw so retries
    /// see fresh randomness.
    crashes: u32,
    /// `Some` while the sequence holds a slot.
    seat: Option<Seat>,
}

/// What a resident sequence holds. The page table reclaims its pages on
/// drop (RAII), so every slot exit — retire, cancel, crash, preemption —
/// returns its KV without a dedicated release path.
struct Seat {
    /// Stable slot index for the serve timeline: the smallest index free
    /// at admission, returned to the pool when the residency ends.
    slot_idx: u32,
    /// Per-request page table; decode appends tokens into it.
    kv: SeqKv,
    /// Token ordinal at which this admission's injected client
    /// disconnect lands (checked at every boundary), if one was drawn.
    disconnect_at: Option<usize>,
    /// Token ordinal at which this admission's injected slot crash
    /// lands, if one was drawn.
    crash_at: Option<usize>,
}

impl Seq {
    fn fresh(req: Request) -> Self {
        Seq {
            req,
            tokens: Vec::new(),
            emitted: 0,
            first_token_us: None,
            crashes: 0,
            seat: None,
        }
    }

    /// Current sequence length, which is also the prompt a
    /// (re-)admission pays prefill for: the original prompt plus the
    /// already-generated prefix.
    fn context(&self) -> usize {
        self.req.prompt.len() + self.emitted
    }

    /// Decode steps still owed: tokens asked for and not yet emitted.
    fn remaining(&self) -> usize {
        self.req.gen_len - self.emitted
    }

    fn slot(&self) -> Option<u32> {
        self.seat.as_ref().map(|s| s.slot_idx)
    }

    fn view(&mut self) -> StepSeq<'_> {
        StepSeq {
            req: &self.req,
            emitted: self.emitted,
            tokens: &mut self.tokens,
        }
    }
}

/// Total admission order: queued requests still waiting on their
/// admission deadline go earliest-deadline-first (paged admission prices
/// each request by its exact page demand, so pulling a long
/// deadline-holder forward costs its peers nothing), then priority desc,
/// arrival asc, id asc.
fn admission_order(ready: &mut [Seq]) {
    // Once a request has streamed a token its admission deadline is
    // satisfied; only fresh deadline-holders are under the clock.
    let deadline_key = |p: &Seq| match p.emitted {
        0 => p.req.deadline_us.unwrap_or(u64::MAX),
        _ => u64::MAX,
    };
    ready.sort_by(|a, b| {
        deadline_key(a)
            .cmp(&deadline_key(b))
            .then(b.req.priority.cmp(&a.req.priority))
            .then(a.req.arrival_us.cmp(&b.req.arrival_us))
            .then(a.req.id.cmp(&b.req.id))
    });
}

/// Why a request can never be served, by the engine's shared request
/// checker. Every scheduler validates through this before it asks the
/// backend for a token, so all of them reject the same requests.
pub(crate) fn validate(backend: &dyn ServeBackend, req: &Request) -> Result<(), RejectReason> {
    let prompts = std::slice::from_ref(&req.prompt);
    match validate_request(backend.model(), prompts, req.gen_len) {
        Err(EngineError::InvalidRequest { reason }) => Err(RejectReason::Invalid(reason)),
        _ => Ok(()),
    }
}

/// Step one sequence alone as it is admitted: a backend failure here is
/// the request's `AdmissionFailed` rejection, not the run's error.
pub(crate) fn admission_step(backend: &dyn ServeBackend, seq: StepSeq) -> Result<(), RejectReason> {
    backend
        .step(&mut [seq])
        .map_err(|e| RejectReason::AdmissionFailed(e.to_string()))
}

/// The three ways a request leaves the scheduler.
enum Terminal {
    Response(Response),
    Rejection(Rejection),
    Cancellation(Cancellation),
}

/// The continuous-batching core, parameterized over the clock/transport
/// [`ServeDriver`], over a plan that already passed
/// [`preflight`](crate::preflight::preflight). With a virtual driver
/// `pace` is the identity and every delivery succeeds, so outcomes are a
/// pure function of `(requests, backend, config)`. A real-time driver may stretch the
/// clock (wall jitter feeds the same deadline/SLO machinery) and may
/// report a token undeliverable, which resolves at the next boundary
/// through the scheduler's client-disconnect vocabulary.
pub(crate) fn run_continuous(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    plan: &ServePlan,
    requests: Vec<Request>,
    driver: &mut dyn ServeDriver,
) -> Result<ServeOutcome, ServeError> {
    if cfg.flight.is_enabled() {
        // Tee injected faults into the same ring as scheduler decisions.
        cfg.fault.set_flight(cfg.flight.clone());
    }
    let mut sched = Scheduler::new(plan, cfg, backend, driver, requests);
    while sched.boundary()? {}
    Ok(sched.finish())
}

/// The scheduler's whole state between two boundaries.
struct Scheduler<'a> {
    plan: &'a ServePlan,
    cfg: &'a ServeConfig,
    tracer: &'a Tracer,
    backend: &'a dyn ServeBackend,
    driver: &'a mut dyn ServeDriver,
    /// Byte budget under the page pool: peak, leak detection and
    /// injected pressure are accounted here.
    pool: Arc<MemPool>,
    pages: Arc<PagedKvPool>,
    /// Requests that have not arrived yet.
    queue: ArrivalQueue,
    /// Arrived and waiting for a slot, in admission order.
    ready: Vec<Seq>,
    /// Resident sequences (every one has a seat).
    active: Vec<Seq>,
    clock_us: u64,
    /// One-way degrade ratchet driven by the SLO monitor.
    degrade_factor: f64,
    degrade_level: usize,
    /// Decode-step ordinal, keying the per-step stall draw.
    steps: u64,
    /// The outcome under construction: terminal states, admission
    /// accounting and the observability record (DESIGN.md §8) accumulate
    /// here.
    out: ServeOutcome,
    /// Predicted TTFT (relative to arrival, µs) sampled once per request
    /// the first time it is seen in the wait queue.
    predicted_ttft: BTreeMap<u64, u64>,
    /// Requests whose transport failed a delivery (receiver dropped, or
    /// backpressure grace exhausted); resolved as client disconnects at
    /// the next slot sweep. Always empty under the virtual driver.
    transport_drops: BTreeMap<u64, Delivery>,
    /// Free stable slot indices for the timeline.
    free_slot_ids: Vec<u32>,
}

impl<'a> Scheduler<'a> {
    fn new(
        plan: &'a ServePlan,
        cfg: &'a ServeConfig,
        backend: &'a dyn ServeBackend,
        driver: &'a mut dyn ServeDriver,
        requests: Vec<Request>,
    ) -> Self {
        let pool = MemPool::new("serve.kv", plan.kv_pool_bytes as usize);
        pool.attach_fault(cfg.fault.clone());
        // The block-granular allocator sits over the MemPool, so byte
        // accounting and page accounting describe the same memory.
        let pages = PagedKvPool::new(
            pool.clone(),
            PageConfig {
                page_tokens: plan.page_tokens as usize,
                bytes_per_token: (plan.page_bytes / plan.page_tokens.max(1)) as usize,
            },
        );
        Scheduler {
            plan,
            cfg,
            tracer: &cfg.tracer,
            backend,
            driver,
            pool,
            pages,
            queue: ArrivalQueue::new(requests),
            ready: Vec::new(),
            active: Vec::new(),
            clock_us: 0,
            degrade_factor: 1.0,
            degrade_level: 0,
            steps: 0,
            out: ServeOutcome::default(),
            predicted_ttft: BTreeMap::new(),
            transport_drops: BTreeMap::new(),
            free_slot_ids: (0..plan.slots as u32).rev().collect(),
        }
    }

    /// Run one block boundary; `false` once every request has resolved.
    fn boundary(&mut self) -> Result<bool, ServeError> {
        self.pop_arrivals();
        if self.active.is_empty() && self.ready.is_empty() {
            return Ok(self.idle());
        }
        self.sweep_slots();
        self.sweep_queue();
        self.audit_ttft();
        self.slo_monitor();
        self.shed();
        self.admit();
        self.sample_boundary();
        // With everything at this boundary rejected there is no block to
        // step; the next boundary waits for traffic.
        if !self.active.is_empty() {
            self.decode_step()?;
            self.retire();
        }
        Ok(true)
    }

    // ---- emission and resolution -------------------------------------

    fn record(&mut self, t_us: u64, dur_us: u64, phase: RequestPhase, id: u64, slot: Option<u32>) {
        self.out.obs.lifecycle.push(LifecycleEvent {
            t_us,
            dur_us,
            request: id,
            slot,
            phase,
        });
    }

    /// A scheduler decision, recorded where decisions go: the lifecycle
    /// record, the admission accounting and the phase's tracer counter.
    fn emit(&mut self, phase: RequestPhase, id: u64, slot: Option<u32>) {
        self.record(self.clock_us, 0, phase, id, slot);
        match phase {
            RequestPhase::Admitted => {
                self.out.stats.admitted += 1;
                self.tracer.counter_add("serve.admitted", 1);
            }
            RequestPhase::Done => {
                self.out.stats.completed += 1;
                self.tracer.counter_add("serve.completed", 1);
            }
            RequestPhase::Cancelled => {
                self.out.stats.cancelled_in_slot += u64::from(slot.is_some());
                self.tracer.counter_add("serve.cancelled", 1);
            }
            RequestPhase::Preempted => {
                self.out.stats.preemptions += 1;
                self.tracer.counter_add("serve.preemptions", 1);
                self.tracer.instant("serve.preempted", "serve");
            }
            RequestPhase::Crashed => {
                self.out.stats.slot_crashes += 1;
                self.tracer.counter_add("serve.slot_crashes", 1);
            }
            RequestPhase::Shed => self.tracer.counter_add("serve.rejected", 1),
            RequestPhase::Queued | RequestPhase::Prefill | RequestPhase::Decode => {}
        }
    }

    /// The detail of a decision, for the flight recorder's ring.
    fn note(&self, note: fmt::Arguments<'_>) {
        if self.cfg.flight.is_enabled() {
            self.cfg
                .flight
                .record(self.clock_us, "sched", note.to_string());
        }
    }

    /// The only place a request becomes terminal: count it, emit its
    /// phase, file it under its terminal state, and retire it at the
    /// driver. `slot` is the seat it held until now, if any.
    fn resolve(&mut self, terminal: Terminal, slot: Option<u32>) {
        let (phase, id) = match &terminal {
            Terminal::Response(r) => (RequestPhase::Done, r.id),
            Terminal::Rejection(r) => {
                match r.reason {
                    RejectReason::DeadlineExpired { .. } => {
                        self.out.deadline_misses += 1;
                        self.tracer.counter_add("serve.deadline_miss", 1);
                        self.tracer.instant("serve.deadline_expired", "serve");
                    }
                    RejectReason::WouldMissDeadline { .. } => {
                        self.out.stats.shed += 1;
                        self.out.deadline_misses += 1;
                        self.tracer.counter_add("serve.shed", 1);
                        self.tracer.counter_add("serve.deadline_miss", 1);
                    }
                    _ => {}
                }
                (RequestPhase::Shed, r.id)
            }
            Terminal::Cancellation(c) => {
                if c.reason == CancelReason::ClientDisconnect {
                    self.tracer.counter_add("serve.disconnects", 1);
                }
                (RequestPhase::Cancelled, c.id)
            }
        };
        self.emit(phase, id, slot);
        match terminal {
            Terminal::Response(r) => self.out.responses.push(r),
            Terminal::Rejection(r) => self.out.rejections.push(r),
            Terminal::Cancellation(c) => self.out.cancellations.push(c),
        }
        self.driver.retire(id);
    }

    /// End a residency: drop the page table (its pages return to the
    /// pool here) and free the timeline slot index.
    fn vacate(&mut self, seq: &mut Seq) -> Option<u32> {
        let seat = seq.seat.take()?;
        self.free_slot_ids.push(seat.slot_idx);
        Some(seat.slot_idx)
    }

    /// Take a sequence the caller removed from `active` off its slot and
    /// back into the wait queue with its tokens kept — the one path
    /// shared by slot crashes, SLO preemption and deadline rescue. (The
    /// caller does the removal because the sweep must keep `active` in
    /// order while the victim picks use `swap_remove`.)
    fn evict(&mut self, mut seq: Seq, phase: RequestPhase) {
        let slot = self.vacate(&mut seq);
        self.emit(phase, seq.req.id, slot);
        self.emit(RequestPhase::Queued, seq.req.id, None);
        self.ready.push(seq);
    }

    /// Resolve a cancelled sequence, resident or queued.
    fn cancel(&mut self, mut seq: Seq, reason: CancelReason) {
        let slot = self.vacate(&mut seq);
        let (id, delivered) = (seq.req.id, seq.emitted);
        if slot.is_some() {
            let verb = match reason {
                CancelReason::Explicit => "cancel",
                CancelReason::ClientDisconnect => "disconnect",
            };
            self.note(format_args!("{verb} request={id} delivered={delivered}"));
        }
        let cancel_us = self.clock_us;
        let cancellation = Cancellation {
            id,
            reason,
            delivered,
            cancel_us,
        };
        self.resolve(Terminal::Cancellation(cancellation), slot);
    }

    /// The resident sequence eviction costs least: lowest priority, then
    /// fewest tokens streamed, then newest id — optionally only among
    /// those strictly below `outranked_by`.
    fn least_invested(&self, outranked_by: Option<u8>) -> Option<usize> {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, s)| outranked_by.is_none_or(|top| s.req.priority < top))
            .min_by_key(|(_, s)| (s.req.priority, s.emitted, std::cmp::Reverse(s.req.id)))
            .map(|(i, _)| i)
    }

    // ---- the boundary phases, in order -------------------------------

    fn pop_arrivals(&mut self) {
        for req in self.queue.pop_arrived(self.clock_us) {
            self.record(req.arrival_us, 0, RequestPhase::Queued, req.id, None);
            self.ready.push(Seq::fresh(req));
        }
    }

    /// Nothing resident and nothing waiting: sample the gap so the
    /// occupancy integral covers it, then jump to the next arrival — or,
    /// with none left, close the run on a terminal sample.
    fn idle(&mut self) -> bool {
        self.observe();
        let next = self.queue.next_arrival_us();
        if let Some(t) = next {
            self.clock_us = self.driver.pace(t);
        }
        next.is_some()
    }

    /// Fates of resident sequences. Disconnect outranks crash when both
    /// land on the same token.
    fn sweep_slots(&mut self) {
        for mut seq in std::mem::take(&mut self.active) {
            let (id, emitted) = (seq.req.id, seq.emitted);
            let fates = seq.seat.as_ref().map(|s| (s.disconnect_at, s.crash_at));
            let (disconnect_at, crash_at) = fates.unwrap_or_default();
            if seq.req.cancel.is_cancelled_at(self.clock_us) {
                self.cancel(seq, CancelReason::Explicit);
            } else if disconnect_at == Some(emitted) || self.transport_drops.contains_key(&id) {
                // Injected disconnects and real transport failures land
                // in the same terminal state: the client is gone.
                if self.transport_drops.remove(&id) == Some(Delivery::Backpressured) {
                    self.tracer.counter_add("serve.backpressure_disconnects", 1);
                }
                self.cancel(seq, CancelReason::ClientDisconnect);
            } else if crash_at == Some(emitted) {
                seq.crashes += 1;
                self.note(format_args!("slot_crash request={id} emitted={emitted}"));
                self.evict(seq, RequestPhase::Crashed);
            } else {
                self.active.push(seq);
            }
        }
    }

    /// Fates of queued requests. Explicit cancels are terminal wherever
    /// the request sits. A deadline only expires a request that never
    /// held a slot — once admitted, the admission deadline is satisfied
    /// and a resumed request keeps running.
    fn sweep_queue(&mut self) {
        let now_us = self.clock_us;
        for seq in std::mem::take(&mut self.ready) {
            let expired = seq
                .req
                .deadline_us
                .filter(|&d| seq.emitted == 0 && d < now_us);
            if seq.req.cancel.is_cancelled_at(now_us) {
                self.cancel(seq, CancelReason::Explicit);
            } else if let Some(deadline_us) = expired {
                let reason = RejectReason::DeadlineExpired {
                    deadline_us,
                    now_us,
                };
                self.reject(seq.req.id, reason);
            } else {
                self.ready.push(seq);
            }
        }
        admission_order(&mut self.ready);
    }

    fn reject(&mut self, id: u64, reason: RejectReason) {
        self.resolve(Terminal::Rejection(Rejection { id, reason }), None);
    }

    /// The first boundary that sees a request in the wait queue asks the
    /// same [`TtftModel`] the SLO monitor uses what its first-token time
    /// will be; the observed value pairs with it at first emit.
    fn audit_ttft(&mut self) {
        if self
            .ready
            .iter()
            .all(|p| self.predicted_ttft.contains_key(&p.req.id))
        {
            return;
        }
        let model = self.ttft_model();
        let now_us = self.clock_us;
        for (pos, p) in self.ready.iter().enumerate() {
            self.predicted_ttft.entry(p.req.id).or_insert_with(|| {
                now_us
                    .saturating_add(model.predict_rel_ttft_us(pos))
                    .saturating_sub(p.req.arrival_us)
            });
        }
    }

    /// Predict p99 TTFT over the wait queue, then actuate (at most one
    /// action per boundary).
    fn slo_monitor(&mut self) {
        let Some(slo) = self.cfg.slo.as_ref() else {
            return;
        };
        let Some(p99) = self.predicted_p99_us() else {
            return;
        };
        self.tracer
            .gauge_set("serve.predicted_ttft_p99_s", p99 as f64 / 1e6);
        if p99 <= slo.ttft_p99_us() {
            return;
        }
        self.out.stats.predicted_violations += 1;
        self.tracer.counter_add("serve.slo_predicted_violations", 1);
        if !slo.enforce {
            return;
        }
        // Actuator 1: evict the lowest-priority, least-invested slot —
        // but only when slots are the bottleneck and the best waiter
        // strictly outranks it.
        if self.active.len() == self.plan.slots {
            if let Some(i) = self.least_invested(Some(self.ready[0].req.priority)) {
                let victim = self.active.swap_remove(i);
                let (id, emitted) = (victim.req.id, victim.emitted);
                self.note(format_args!(
                    "preempt request={id} emitted={emitted} p99_us={p99}"
                ));
                self.evict(victim, RequestPhase::Preempted);
                admission_order(&mut self.ready);
                return;
            }
        }
        // Actuator 2: climb one rung of the model-guided fallback ladder
        // (sticky for the rest of the run).
        if self.degrade_level < self.cfg.ladder.len() {
            self.degrade_level += 1;
            self.degrade_factor = degrade_factor(&self.cfg.ladder, self.degrade_level);
            self.out.stats.degradations += 1;
            self.tracer.counter_add("serve.degradations", 1);
            self.tracer
                .gauge_set("serve.degrade_level", self.degrade_level as f64);
            self.note(format_args!(
                "degrade level={} factor={}",
                self.degrade_level, self.degrade_factor
            ));
        }
    }

    /// Load shedding: reject doomed admissions up front.
    fn shed(&mut self) {
        let armed = |s: &&SloPolicy| s.enforce && !self.ready.is_empty();
        let Some(slo) = self.cfg.slo.as_ref().filter(armed) else {
            return;
        };
        let model = self.ttft_model();
        let slack = micros(SHED_SLACK * slo.ttft_p99_s);
        // Queue position among the kept: each shed moves the rest up.
        let mut pos = 0usize;
        for seq in std::mem::take(&mut self.ready) {
            let predicted_us = self.clock_us.saturating_add(model.predict_rel_ttft_us(pos));
            let slack_us = seq.req.arrival_us.saturating_add(slack);
            let deadline_us = seq.req.deadline_us.map_or(slack_us, |d| d.min(slack_us));
            // Never shed a request that already streamed tokens.
            if seq.emitted == 0 && predicted_us > deadline_us {
                let (id, predicted_ttft_us) = (seq.req.id, predicted_us);
                self.note(format_args!(
                    "shed request={id} predicted_us={predicted_us} deadline_us={deadline_us}"
                ));
                let reason = RejectReason::WouldMissDeadline {
                    deadline_us,
                    predicted_ttft_us,
                };
                self.reject(id, reason);
            } else {
                self.ready.push(seq);
                pos += 1;
            }
        }
    }

    /// Admit into free slots, then charge the admitted group's prefill.
    fn admit(&mut self) {
        // Smallest free timeline index is assigned first.
        self.free_slot_ids.sort_unstable_by(|a, b| b.cmp(a));
        // Longest span of *unshared* known tokens in the admitted group:
        // what prefill actually pays for (shared-prefix KV is already
        // resident).
        let mut prefill_span = 0usize;
        let mut admitted: Vec<Seq> = Vec::new();
        for mut seq in self.candidates() {
            // Reserve exactly the pages `known + generation` can touch.
            // A resume's known tokens include its generated prefix,
            // whose re-prefill is the (only) cost of resumption.
            let remaining = seq.remaining();
            let known = [&seq.req.prompt[..], &seq.tokens[..seq.emitted]].concat();
            let demand_bytes =
                self.pages.required_pages(known.len(), remaining) * self.pages.cfg().page_bytes();
            let mut grant = self.grant(&known, remaining);
            // Deadline rescue: a queued deadline-holder must not starve
            // behind residents that have no clock on them. Page
            // granularity makes partial eviction cheap, so reclaim pages
            // from the least-invested residents until the grant fits.
            // The victim re-queues with its tokens kept — its own
            // admission deadline (if any) was satisfied the moment it
            // first held a slot, so nothing is lost but the re-prefill
            // of its generated prefix.
            if seq.emitted == 0
                && seq.req.deadline_us.is_some()
                && demand_bytes <= self.pool.capacity()
            {
                while let Some(i) = grant.is_err().then(|| self.least_invested(None)).flatten() {
                    let victim = self.active.swap_remove(i);
                    self.note(format_args!(
                        "deadline-rescue preempt request={} pages for request={}",
                        victim.req.id, seq.req.id
                    ));
                    self.evict(victim, RequestPhase::Preempted);
                    grant = self.grant(&known, remaining);
                }
            }
            match grant {
                Ok(kv) => {
                    if let Err(reason) = admission_step(self.backend, seq.view()) {
                        // Never admitted: `kv` drops and its pages return.
                        self.reject(seq.req.id, reason);
                        continue;
                    }
                    prefill_span = prefill_span.max(seq.context() - kv.shared_tokens());
                    admitted.push(self.seat(seq, kv, demand_bytes));
                }
                // Unservable under this plan, ever.
                Err(_) if demand_bytes > self.pool.capacity() => {
                    let (bytes, capacity) = (demand_bytes, self.pool.capacity());
                    self.reject(seq.req.id, RejectReason::PoolOverCommit { bytes, capacity });
                }
                // Nothing holds KV, so waiting frees no bytes: the failure
                // is not transient.
                Err(err) if self.active.is_empty() && admitted.is_empty() => {
                    self.reject(seq.req.id, RejectReason::AdmissionFailed(err.to_string()));
                }
                // Defer: residents retire at later boundaries and free
                // their pages.
                Err(_) => {
                    self.tracer.counter_add("serve.deferred", 1);
                    self.ready.push(seq);
                }
            }
        }
        if admitted.is_empty() {
            return;
        }
        let dt = self
            .backend
            .prefill_seconds(prefill_span.max(1), admitted.len())
            * self.degrade_factor;
        let (start, dur) = (self.clock_us, micros(dt));
        self.clock_us += dur;
        self.tracer.histogram_record("serve.prefill_s", dt);
        for seq in &admitted {
            self.record(start, dur, RequestPhase::Prefill, seq.req.id, seq.slot());
        }
        self.active.extend(admitted);
    }

    /// Pull valid admission candidates off the head of the wait queue,
    /// one per free slot, rejecting the invalid before any page grant.
    fn candidates(&mut self) -> Vec<Seq> {
        let free = self.plan.slots.saturating_sub(self.active.len());
        let mut picked: Vec<Seq> = Vec::new();
        while picked.len() < free && !self.ready.is_empty() {
            let seq = self.ready.remove(0);
            match validate(self.backend, &seq.req) {
                Ok(()) => picked.push(seq),
                Err(reason) => self.reject(seq.req.id, reason),
            }
        }
        picked
    }

    /// Ask the page pool for a page table over `known` plus `remaining`
    /// generated tokens, retrying transient pressure under the
    /// configured policy.
    fn grant(&self, known: &[u32], remaining: usize) -> Result<SeqKv, RetryError<PoolExhausted>> {
        self.cfg.retry.run(
            |_| self.pages.admit(known, remaining),
            |_, _| {
                self.cfg.fault.note_retry();
                self.tracer.counter_add("serve.admission_retries", 1);
            },
        )
    }

    /// Put a granted candidate on a slot and draw this admission's
    /// injected fates.
    fn seat(&mut self, mut seq: Seq, kv: SeqKv, demand_bytes: usize) -> Seq {
        let id = seq.req.id;
        let shared = kv.shared_tokens();
        if shared > 0 {
            self.tracer.counter_add("serve.shared_prefix_admissions", 1);
            self.tracer
                .counter_add("serve.shared_tokens", shared as u64);
        }
        let slot_idx = self.free_slot_ids.pop().unwrap_or(0);
        self.emit(RequestPhase::Admitted, id, Some(slot_idx));
        self.note(format_args!(
            "admit request={id} slot={slot_idx} lease_bytes={demand_bytes}"
        ));
        // Both fates land at least one token ahead, so every admission
        // makes progress and crash-retries terminate.
        let (emitted, remaining) = (seq.emitted, seq.remaining());
        let fate = move |frac: f64| emitted + ((frac * remaining as f64).floor() as usize).max(1);
        let fault = &self.cfg.fault;
        seq.seat = Some(Seat {
            slot_idx,
            kv,
            disconnect_at: fault.client_disconnect("serve.slot", id).map(fate),
            crash_at: fault.slot_crash("serve.slot", id, seq.crashes).map(fate),
        });
        seq
    }

    /// Per-boundary state sample (post-admission, pre-decode): what the
    /// drift audit integrates and the timeline's counter tracks.
    fn sample_boundary(&mut self) {
        self.tracer.gauge_set(
            "serve.queue_depth",
            (self.ready.len() + self.queue.len()) as f64,
        );
        self.tracer.gauge_set(
            "serve.slot_occupancy",
            self.active.len() as f64 / self.plan.slots.max(1) as f64,
        );
        self.observe();
    }

    /// p99 TTFT the model predicts over the wait queue; `None` (and no
    /// cost-model call) when nothing waits.
    fn predicted_p99_us(&self) -> Option<u64> {
        let queued = self.ready.len();
        (queued > 0).then(|| self.ttft_model().predicted_p99_us(queued))?
    }

    fn observe(&mut self) {
        let predicted_ttft_p99_us = self.predicted_p99_us();
        let pages = &self.pages;
        self.out.obs.boundaries.push(BoundaryObs {
            t_us: self.clock_us,
            queued: self.ready.len(),
            pending_arrivals: self.queue.len(),
            active_slots: self.active.len(),
            slots: self.plan.slots,
            pages_in_use: pages.pages_in_use() as u64,
            pages_demand: self
                .active
                .iter()
                .map(|s| pages.required_pages(s.req.prompt.len(), s.req.gen_len) as u64)
                .sum(),
            predicted_ttft_p99_us,
            degrade_factor: self.degrade_factor,
        });
    }

    /// One decode step over the whole block: one token to every resident
    /// sequence.
    fn decode_step(&mut self) -> Result<(), ServeError> {
        let mut block: Vec<StepSeq<'_>> = self.active.iter_mut().map(Seq::view).collect();
        self.backend.step(&mut block)?;
        // Exact residency: attention runs over each real sequence.
        let contexts: Vec<u64> = self.active.iter().map(|s| s.context() as u64).collect();
        let dt = self.backend.decode_step_seconds(&contexts) * self.degrade_factor;
        let step_start = self.clock_us;
        self.clock_us += micros(dt);
        self.tracer.histogram_record("serve.step_s", dt);
        // An injected transfer stall stretches this step (virtually).
        self.steps += 1;
        if let Some(stall) = self.cfg.fault.transfer_stall("serve.step", self.steps) {
            let stall_s = stall.as_secs_f64();
            self.clock_us += micros(stall_s);
            self.tracer.histogram_record("serve.stall_s", stall_s);
        }
        // A real-time driver blocks here until wall time catches the
        // modelled clock and may return a later value, so wall jitter
        // flows into step accounting, TTFT, and the deadline machinery.
        // The virtual driver is the identity.
        self.clock_us = self.driver.pace(self.clock_us);
        let step_dur = self.clock_us - step_start;

        let mut active = std::mem::take(&mut self.active);
        for seq in &mut active {
            let id = seq.req.id;
            let token = seq.tokens[seq.emitted];
            let delivery = self.driver.deliver(TokenEvent {
                request_id: id,
                index: seq.emitted,
                token,
                t_us: self.clock_us,
            });
            if delivery != Delivery::Delivered {
                // Keep generating this step (the block already paid for
                // it); the next slot sweep resolves the request as a
                // client disconnect.
                self.transport_drops.entry(id).or_insert(delivery);
            }
            // Land the token's KV in the sequence's own (never shared)
            // last page, or a fresh one from its reserve.
            if let Some(seat) = seq.seat.as_mut() {
                seat.kv.append(token)?;
            }
            seq.emitted += 1;
            self.out.generated_tokens += 1;
            self.tracer.counter_add("serve.tokens", 1);
            self.record(step_start, step_dur, RequestPhase::Decode, id, seq.slot());
            if seq.first_token_us.is_none() {
                seq.first_token_us = Some(self.clock_us);
                self.first_token(seq);
            }
        }
        self.active = active;
        Ok(())
    }

    /// A request's first token landed: close its TTFT audit pair, and
    /// freeze the flight recorder if it breached the objective.
    fn first_token(&mut self, seq: &Seq) {
        let id = seq.req.id;
        let observed_us = self.clock_us.saturating_sub(seq.req.arrival_us);
        self.tracer
            .histogram_record("serve.ttft_s", observed_us as f64 / 1e6);
        if let Some(&predicted_us) = self.predicted_ttft.get(&id) {
            self.out.obs.ttft.push(TtftSample {
                request: id,
                predicted_us,
                observed_us,
            });
        }
        let flight = &self.cfg.flight;
        let breached = |s: &&SloPolicy| flight.is_enabled() && observed_us > s.ttft_p99_us();
        if let Some(slo) = self.cfg.slo.as_ref().filter(breached) {
            flight.trigger(
                &format!(
                    "slo_breach: request {id} ttft {:.6}s > objective {:.6}s",
                    observed_us as f64 / 1e6,
                    slo.ttft_p99_s
                ),
                self.clock_us,
                self.tracer.snapshot().metrics,
            );
        }
    }

    /// Retire finished sequences; their pages return to the pool here.
    fn retire(&mut self) {
        for mut seq in std::mem::take(&mut self.active) {
            if seq.remaining() > 0 {
                self.active.push(seq);
                continue;
            }
            let latency_us = self.clock_us.saturating_sub(seq.req.arrival_us);
            self.tracer
                .histogram_record("serve.latency_s", latency_us as f64 / 1e6);
            // A transport failure on the final step loses the race: the
            // stream is complete, so the request resolves as a response
            // (matching the virtual path, where the last token always
            // lands before any fate is swept).
            self.transport_drops.remove(&seq.req.id);
            let slot = self.vacate(&mut seq);
            debug_assert_eq!(seq.tokens.len(), seq.req.gen_len);
            let response = Response {
                id: seq.req.id,
                tokens: seq.tokens,
                arrival_us: seq.req.arrival_us,
                first_token_us: seq.first_token_us.unwrap_or(self.clock_us),
                finish_us: self.clock_us,
            };
            self.resolve(Terminal::Response(response), slot);
        }
    }

    // ---- prediction and wrap-up --------------------------------------

    /// Snapshot the analytic TTFT predictor's inputs. Step time and
    /// prefill come from the same cost source the boundary charger uses,
    /// scaled by the current degrade factor — the model that times the
    /// run predicts it.
    ///
    /// The plan's slot count is only a ceiling: pages are the binding
    /// resource (DESIGN.md §9.3). The predictor therefore prices
    /// `free_slots` by walking the wait queue in admission order until
    /// the pool's free pages run out, and caps turnover concurrency at
    /// what the pool can hold at the *observed* per-sequence page
    /// residency. The queue and slot state differ between the phases
    /// that ask, so nothing here is cached across them.
    fn ttft_model(&self) -> TtftModel {
        let (plan, pages) = (self.plan, &self.pages);
        let mut remaining: Vec<u64> = self.active.iter().map(|s| s.remaining() as u64).collect();
        remaining.sort_unstable();
        let queued_steps: u64 = self.ready.iter().map(|p| p.remaining() as u64).sum();
        let n = (remaining.len() + self.ready.len()).max(1);
        let mean_gen_steps = (remaining.iter().sum::<u64>() + queued_steps) as f64 / n as f64;
        let pad_guess = self.ready.iter().map(Seq::context).max().unwrap_or(1);
        // Immediate admissions: queue positions fit until free pages do.
        let free_slots = plan.slots.saturating_sub(self.active.len());
        let mut pages_free = pages.capacity_pages().saturating_sub(pages.pages_in_use());
        let mut free = 0usize;
        for p in self.ready.iter().take(free_slots) {
            let need = pages.required_pages(p.context(), p.remaining());
            if need > pages_free {
                break;
            }
            pages_free -= need;
            free += 1;
        }
        // Turnover concurrency: observed residency when sequences are
        // resident, the plan's expected half-envelope otherwise.
        let mapped: usize = self
            .active
            .iter()
            .filter_map(|s| s.seat.as_ref())
            .map(|seat| seat.kv.mapped_pages())
            .sum();
        let per_seq = if self.active.is_empty() || mapped == 0 {
            (plan.pages_per_slot.div_ceil(2).max(1)) as usize
        } else {
            (mapped / self.active.len()).max(1)
        };
        let slots = plan.slots.min((pages.capacity_pages() / per_seq).max(1));
        // Step quote over the live contexts plus this boundary's
        // admissions. The plan's `est_step_seconds` is a full-occupancy,
        // full-context envelope — fine for capacity planning, but as a
        // TTFT term it over-quotes every step of a partially filled
        // block.
        let mut contexts: Vec<u64> = self.active.iter().map(|s| s.context() as u64).collect();
        contexts.extend(self.ready.iter().take(free).map(|p| p.context() as u64 + 1));
        let step_s = if contexts.is_empty() {
            plan.est_step_seconds
        } else {
            self.backend.decode_step_seconds(&contexts)
        };
        TtftModel {
            slots,
            free_slots: free,
            remaining_sorted: remaining,
            mean_gen_steps,
            prefill_s: self.backend.prefill_seconds(pad_guess, free.max(1)) * self.degrade_factor,
            step_s: step_s * self.degrade_factor,
        }
    }

    fn finish(self) -> ServeOutcome {
        let (plan, pages) = (self.plan, &self.pages);
        debug_assert!(pages.accounting_balanced(), "page/byte accounting diverged");
        let paging = pages.stats();
        let out = ServeOutcome {
            kv_peak_bytes: self.pool.peak(),
            kv_leaked_bytes: self.pool.used(),
            kv_pages_peak: pages.peak_pages() as u64,
            kv_pages_leaked: pages.pages_in_use() as u64,
            shared_prefix_hits: paging.shared_hits,
            shared_tokens: paging.shared_tokens,
            ..self.out.close(self.clock_us)
        };
        debug_assert_eq!(crate::obs::conform(plan, &out).err(), None);
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::obs::conform;
    use crate::preflight::{preflight, ttft_floor_s};
    use crate::request::synth_traffic;
    use crate::session::{ServeMode, ServeSession};

    fn traffic(n: usize) -> (AnalyticBackend, Vec<Request>) {
        let b = AnalyticBackend::opt_30b();
        let reqs = synth_traffic(7, 4.0, n, b.model());
        (b, reqs)
    }

    fn continuous(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
    ) -> Result<(ServePlan, ServeOutcome), ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .run(reqs)
            .map(|r| (r.plan.expect("continuous sessions plan"), r.outcome))
    }

    fn continuous_with(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
        on_token: &mut dyn FnMut(TokenEvent),
    ) -> Result<(ServePlan, ServeOutcome), ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .run_streaming(reqs, on_token)
            .map(|r| (r.plan.expect("continuous sessions plan"), r.outcome))
    }

    fn sequential(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        reqs: Vec<Request>,
    ) -> Result<ServeOutcome, ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .mode(ServeMode::Sequential)
            .run(reqs)
            .map(|r| r.outcome)
    }

    fn static_batch(
        b: &dyn ServeBackend,
        cfg: &ServeConfig,
        batch: usize,
        reqs: Vec<Request>,
    ) -> Result<ServeOutcome, ServeError> {
        ServeSession::new(b)
            .config(cfg.clone())
            .mode(ServeMode::Static { batch })
            .run(reqs)
            .map(|r| r.outcome)
    }

    #[test]
    fn every_request_is_answered_or_rejected() {
        let (b, reqs) = traffic(12);
        let n = reqs.len();
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), n);
        assert!(plan.slots >= 1);
        assert!(out.generated_tokens > 0);
        assert!(out.kv_peak_bytes > 0 && out.kv_peak_bytes <= plan.kv_pool_bytes as usize);
        for r in &out.responses {
            assert!(r.first_token_us >= r.arrival_us);
            assert!(r.finish_us >= r.first_token_us);
            assert!(!r.tokens.is_empty());
        }
    }

    #[test]
    fn continuous_run_is_deterministic() {
        let (b, reqs) = traffic(12);
        let (_, a) = continuous(&b, &ServeConfig::default(), reqs.clone()).unwrap();
        let (_, c) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(a.responses, c.responses);
        assert_eq!(a.rejections, c.rejections);
        assert_eq!(a.sim_seconds.to_bits(), c.sim_seconds.to_bits());
    }

    #[test]
    fn continuous_beats_sequential_and_static() {
        let (b, reqs) = traffic(24);
        let cfg = ServeConfig::default();
        let (plan, cont) = continuous(&b, &cfg, reqs.clone()).unwrap();
        let seq = sequential(&b, &cfg, reqs.clone()).unwrap();
        let stat = static_batch(&b, &cfg, plan.slots, reqs).unwrap();
        assert!(
            cont.tokens_per_s() >= 1.3 * seq.tokens_per_s(),
            "continuous {} vs sequential {}",
            cont.tokens_per_s(),
            seq.tokens_per_s()
        );
        assert!(
            cont.tokens_per_s() > stat.tokens_per_s(),
            "continuous {} vs static {}",
            cont.tokens_per_s(),
            stat.tokens_per_s()
        );
    }

    #[test]
    fn streaming_delivers_every_token_in_order() {
        let (b, reqs) = traffic(8);
        let mut events: Vec<TokenEvent> = Vec::new();
        let (_, out) =
            continuous_with(&b, &ServeConfig::default(), reqs, &mut |e| events.push(e))
                .unwrap();
        assert_eq!(events.len() as u64, out.generated_tokens);
        let mut t = 0;
        for e in &events {
            assert!(e.t_us >= t, "token times must be monotone");
            t = e.t_us;
        }
        for r in &out.responses {
            let streamed: Vec<u32> = events
                .iter()
                .filter(|e| e.request_id == r.id)
                .map(|e| e.token)
                .collect();
            assert_eq!(streamed, r.tokens, "stream must equal the response");
        }
    }

    #[test]
    fn malformed_and_expired_requests_are_typed_rejections() {
        let b = AnalyticBackend::opt_30b();
        let ok = Request::new(0, vec![1, 2, 3], 4);
        let empty = Request::new(1, vec![], 4);
        let too_long = Request::new(2, vec![1; 4000], 4000);
        // Arrives while the first block is mid-decode (OPT-30B steps take
        // virtual seconds), with a deadline already behind the clock by
        // the time the next boundary sweeps the queue.
        let expired = Request::new(3, vec![1, 2], 4)
            .with_arrival_us(1_000)
            .with_deadline_us(500);
        let late = Request::new(4, vec![1, 2], 4).with_arrival_us(5_000_000);
        let nothing = Request::new(5, vec![1, 2, 3], 0);
        let out_of_vocab = Request::new(6, vec![1, b.model().vocab_size as u32, 3], 4);
        let (_, out) = continuous(
            &b,
            &ServeConfig::default(),
            vec![ok, empty, too_long, expired, late, nothing, out_of_vocab],
        )
        .unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), 7);
        let reason = |id: u64| {
            out.rejections
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.reason.clone())
        };
        assert!(matches!(reason(1), Some(RejectReason::Invalid(_))));
        assert!(matches!(reason(2), Some(RejectReason::Invalid(_))));
        assert!(matches!(reason(5), Some(RejectReason::Invalid(_))));
        assert!(matches!(reason(6), Some(RejectReason::Invalid(_))));
        // Request 3's deadline passes while the first block decodes.
        assert!(matches!(
            reason(3),
            Some(RejectReason::DeadlineExpired { .. })
        ));
        assert!(out.responses.iter().any(|r| r.id == 0));
        assert!(out.responses.iter().any(|r| r.id == 4));
    }

    #[test]
    fn priorities_jump_the_queue() {
        let b = AnalyticBackend::opt_30b();
        // One slot, both requests present at t=0: the high-priority one
        // must be served first despite the larger id. A one-page context
        // with a one-envelope pool plans exactly one sequence.
        let lo = Request::new(0, vec![1, 2], 4).with_priority(0);
        let hi = Request::new(1, vec![3, 4], 4).with_priority(2);
        let cfg = ServeConfig {
            max_slots: 1,
            slot_context: 16,
            ..ServeConfig::default()
        };
        assert_eq!(preflight(&b, &cfg, None).unwrap().slots, 1);
        let (_, out) = continuous(&b, &cfg, vec![lo, hi]).unwrap();
        let finish = |id: u64| {
            out.responses
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.finish_us)
                .unwrap_or(u64::MAX)
        };
        assert!(finish(1) < finish(0), "priority 2 must finish first");
    }

    #[test]
    fn explicit_cancel_is_terminal_and_reclaims_kv() {
        let b = AnalyticBackend::opt_30b();
        let token = crate::request::CancelToken::never();
        // Cancel lands mid-generation: OPT-30B virtual steps take
        // hundreds of ms, so t=2s (virtual) is well inside a 32-token
        // generation but after the first tokens.
        token.cancel_at_us(2_000_000);
        let cancelled = Request::new(0, vec![1, 2, 3], 32).with_cancel(token);
        let survivor = Request::new(1, vec![4, 5], 8);
        let (plan, out) =
            continuous(&b, &ServeConfig::default(), vec![cancelled, survivor]).unwrap();
        // Resolved once each, the lease returned, admissions balanced.
        assert_eq!(conform(&plan, &out).unwrap().requests, 2);
        assert_eq!(out.cancellations.len(), 1);
        let c = &out.cancellations[0];
        assert_eq!(c.id, 0);
        assert_eq!(c.reason, crate::request::CancelReason::Explicit);
        assert!(c.cancel_us >= 2_000_000);
        assert!(out.responses.iter().any(|r| r.id == 1));
    }

    #[test]
    fn disconnect_storm_resolves_every_request_without_leaks() {
        use lm_fault::{FaultConfig, FaultInjector, StormProfile};
        let (b, reqs) = traffic(24);
        let n = reqs.len();
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(9, StormProfile::Disconnects)),
            ..ServeConfig::default()
        };
        let (plan, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(conform(&plan, &out).unwrap().requests, n);
        assert!(
            !out.cancellations.is_empty(),
            "a 40% disconnect rate over 24 requests must cancel some"
        );
        for c in &out.cancellations {
            assert_eq!(c.reason, crate::request::CancelReason::ClientDisconnect);
        }
    }

    #[test]
    fn crash_survivors_resume_with_identical_token_streams() {
        use lm_fault::{FaultConfig, FaultInjector, StormProfile};
        let (b, reqs) = traffic(16);
        let calm = continuous(&b, &ServeConfig::default(), reqs.clone())
            .unwrap()
            .1;
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(4, StormProfile::Crashes)),
            ..ServeConfig::default()
        };
        let mut events: Vec<TokenEvent> = Vec::new();
        let (plan, stormy) =
            continuous_with(&b, &cfg, reqs, &mut |e| events.push(e)).unwrap();
        assert!(stormy.stats.slot_crashes > 0, "30% crash rate must fire");
        conform(&plan, &stormy).unwrap();
        // Completed-under-storm responses carry the exact same tokens as
        // the calm run — resumption re-pays prefill, never re-emits.
        for r in &stormy.responses {
            let calm_r = calm.responses.iter().find(|c| c.id == r.id).unwrap();
            assert_eq!(r.tokens, calm_r.tokens, "request {}", r.id);
            let streamed: Vec<u32> = events
                .iter()
                .filter(|e| e.request_id == r.id)
                .map(|e| e.token)
                .collect();
            assert_eq!(streamed, r.tokens, "stream must not duplicate tokens");
        }
    }

    /// The LMA260-safe way to pick a test objective: just above the
    /// plan's physical floor, so the policy is feasible but any real
    /// queueing predicts a violation.
    fn tight_slo(b: &AnalyticBackend, cfg: &ServeConfig, headroom: f64) -> f64 {
        ttft_floor_s(&preflight(b, cfg, None).unwrap(), b) * headroom
    }

    #[test]
    fn slo_enforcement_preempts_low_priority_for_high() {
        use crate::slo::SloPolicy;
        let b = AnalyticBackend::opt_30b();
        let mut cfg = ServeConfig::default();
        let slots = preflight(&b, &cfg, None).unwrap().slots;
        // Long low-priority requests fill every slot; one high-priority
        // request then arrives behind them with a predicted p99 past the
        // objective.
        let mut reqs: Vec<Request> = (0..slots as u64)
            .map(|i| Request::new(i, vec![1, 2], 60).with_priority(0))
            .collect();
        let urgent = slots as u64;
        reqs.push(
            Request::new(urgent, vec![3, 4], 6)
                .with_priority(2)
                .with_arrival_us(1_000),
        );
        cfg.slo = Some(SloPolicy::enforcing(tight_slo(&b, &cfg, 3.0)));
        let mut events: Vec<TokenEvent> = Vec::new();
        let (plan, out) = continuous_with(&b, &cfg, reqs, &mut |e| events.push(e)).unwrap();
        assert!(out.stats.preemptions > 0, "{:?}", out.stats);
        assert_eq!(out.stats.shed, 0, "{:?}", out.stats);
        assert_eq!(conform(&plan, &out).unwrap().requests, slots + 1);
        // The urgent request finishes first; every hog still finishes
        // (resumed after it) with an uncorrupted stream.
        let urgent_r = out.responses.iter().find(|r| r.id == urgent).unwrap();
        for hog in out.responses.iter().filter(|r| r.id != urgent) {
            assert!(urgent_r.finish_us < hog.finish_us, "urgent must finish first");
            assert_eq!(hog.tokens.len(), 60);
            let streamed = events.iter().filter(|e| e.request_id == hog.id).count();
            assert_eq!(streamed, 60, "hog {} must stream each token once", hog.id);
        }
    }

    #[test]
    fn slo_shedding_rejects_doomed_admissions_up_front() {
        use crate::slo::SloPolicy;
        let (b, reqs) = traffic(24);
        let mut cfg = ServeConfig {
            max_slots: 2, // starve the queue so predicted TTFTs blow up
            ..ServeConfig::default()
        };
        cfg.slo = Some(SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5)));
        let n = reqs.len();
        let (plan, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(conform(&plan, &out).unwrap().requests, n);
        assert!(out.stats.shed > 0, "{:?}", out.stats);
        assert!(out
            .rejections
            .iter()
            .any(|r| matches!(r.reason, RejectReason::WouldMissDeadline { .. })));
        assert_eq!(out.deadline_misses, out.stats.shed, "sheds count as misses");
    }

    #[test]
    fn degrade_ladder_climbs_when_preemption_cannot_help() {
        use crate::slo::{geometric_ladder, SloPolicy};
        let (b, reqs) = traffic(24);
        // Uniform priorities: preemption never finds a strictly-lower
        // victim, so the monitor must fall through to the ladder.
        let reqs: Vec<Request> = reqs.into_iter().map(|r| r.with_priority(1)).collect();
        let mut cfg = ServeConfig {
            max_slots: 2,
            ladder: geometric_ladder(4, 0.7),
            ..ServeConfig::default()
        };
        cfg.slo = Some(SloPolicy::enforcing(tight_slo(&b, &cfg, 1.5)));
        let (plan, out) = continuous(&b, &cfg, reqs).unwrap();
        assert!(out.stats.degradations > 0, "{:?}", out.stats);
        assert_eq!(out.stats.preemptions, 0);
        conform(&plan, &out).unwrap();
    }

    #[test]
    fn fault_injected_pool_pressure_is_retried() {
        use lm_fault::{FaultConfig, FaultInjector, RetryPolicy};
        let b = AnalyticBackend::opt_30b();
        let fault = FaultInjector::new(FaultConfig {
            pool_pressure_rate: 0.4,
            pool_pressure_bytes: u64::MAX / 2, // any spike fails the alloc
            ..FaultConfig::quiescent(5)
        });
        let cfg = ServeConfig {
            fault: fault.clone(),
            retry: RetryPolicy::fast_test(),
            ..ServeConfig::default()
        };
        let reqs = synth_traffic(3, 8.0, 10, b.model());
        let n = reqs.len();
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert_eq!(out.responses.len() + out.rejections.len(), n);
        // With p=0.4 per attempt and 5 attempts, some admission must have
        // needed a retry (probability of zero retries over 10 admissions
        // is (0.6)^10 ≈ 0.6% — and the stream is seed-deterministic).
        assert!(
            fault.stats().retries > 0,
            "expected admission retries under pool pressure"
        );
        assert!(!out.responses.is_empty());
    }

    /// Counts `retire` calls per request id; otherwise the identity.
    #[derive(Default)]
    struct CountingDriver {
        retired: BTreeMap<u64, u32>,
    }

    impl ServeDriver for CountingDriver {
        fn deliver(&mut self, _event: TokenEvent) -> Delivery {
            Delivery::Delivered
        }

        fn retire(&mut self, request_id: u64) {
            *self.retired.entry(request_id).or_default() += 1;
        }
    }

    #[test]
    fn every_request_resolves_and_retires_exactly_once_under_the_default_storm() {
        use lm_fault::{FaultConfig, FaultInjector, RetryPolicy, StormProfile};
        let (b, reqs) = traffic(32);
        let mut submitted: Vec<u64> = reqs.iter().map(|r| r.id).collect();
        submitted.sort_unstable();
        let n = submitted.len();
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(7, StormProfile::Default)),
            retry: RetryPolicy::fast_test(),
            ..ServeConfig::default()
        };
        let mut counting = CountingDriver::default();
        let plan = preflight(&b, &cfg, None).unwrap();
        let out = run_continuous(&b, &cfg, &plan, reqs, &mut counting).unwrap();
        assert!(
            !out.cancellations.is_empty() && out.stats.slot_crashes > 0,
            "the storm must exercise more than the happy path: {:?}",
            out.stats
        );
        assert_eq!(conform(&plan, &out).unwrap().requests, n, "each id resolved once");
        let retired: Vec<u64> = counting.retired.keys().copied().collect();
        assert_eq!(retired, submitted, "every id retired at the driver");
        assert!(
            counting.retired.values().all(|&n| n == 1),
            "retired more than once: {:?}",
            counting.retired
        );
    }

    #[test]
    fn lifecycle_record_covers_every_request_and_balances() {
        let (b, reqs) = traffic(16);
        let n = reqs.len();
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let obs = &out.obs;
        // Legal transitions, slots, clock order, totality, token and
        // admission tallies, an idle last boundary: the lifecycle spec.
        assert_eq!(conform(&plan, &out).unwrap().requests, n);
        // TTFT audit pairs exist for every first token delivered.
        assert_eq!(obs.ttft.len(), out.responses.len());
        // Boundary samples close the run at its final clock.
        let last = obs.boundaries.last().unwrap();
        assert!((last.t_us as f64 / 1e6 - out.sim_seconds).abs() < 1e-9);
    }

    #[test]
    fn obs_record_is_replay_deterministic() {
        let (b, reqs) = traffic(12);
        let (_, a) = continuous(&b, &ServeConfig::default(), reqs.clone()).unwrap();
        let (_, c) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        assert_eq!(a.obs, c.obs);
    }

    #[test]
    fn drift_audit_holds_on_the_analytic_backend_at_default_seed() {
        let (b, reqs) = traffic(32);
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let report = out.obs.audit(&plan);
        let ttft = report.metric("ttft_mean_s").unwrap();
        assert!(ttft.predicted > 0.0 && ttft.observed > 0.0);
        // DESIGN.md §8 documents the serve-path tolerance: the TTFT
        // queueing estimate must land within 35% of the realized mean.
        let r = ttft.ratio.unwrap();
        assert!((r - 1.0).abs() <= 0.35, "ttft drift ratio {r}");
        let occ = report.metric("slot_occupancy_mean").unwrap();
        assert!(
            (occ.ratio.unwrap() - 1.0).abs() <= 0.15,
            "occupancy drift {:?}",
            occ
        );
    }

    #[test]
    fn flight_recorder_sees_scheduler_decisions_and_slo_breach_freezes() {
        use crate::slo::SloPolicy;
        use lm_trace::FlightRecorder;
        let (b, reqs) = traffic(24);
        let flight = FlightRecorder::new(64);
        let mut cfg = ServeConfig {
            flight: flight.clone(),
            tracer: lm_trace::Tracer::new(),
            max_slots: 2,
            ..ServeConfig::default()
        };
        // Observe-only SLO with a floor-level objective: breaches are
        // observed (and freeze the recorder) without actuators firing.
        cfg.slo = Some(SloPolicy::observe(tight_slo(&b, &cfg, 1.01)));
        let (_, out) = continuous(&b, &cfg, reqs).unwrap();
        assert!(out.stats.admitted > 0);
        let dump = flight.dump().expect("queueing past the floor must breach");
        assert!(dump.reason.starts_with("slo_breach"), "{}", dump.reason);
        assert!(
            dump.events.iter().any(|e| e.category == "sched"),
            "scheduler decisions must be in the ring"
        );
        assert!(
            dump.metrics.histograms.contains_key("serve.ttft_s"),
            "frozen metrics ride along"
        );
    }

    #[test]
    fn serve_timeline_exports_slot_tracks() {
        let (b, reqs) = traffic(8);
        let (plan, out) = continuous(&b, &ServeConfig::default(), reqs).unwrap();
        let trace = crate::obs::serve_timeline(&plan, &out.obs);
        let v = trace.to_value();
        let events = v["traceEvents"].as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| e["name"].as_str() == Some("prefill")));
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("C")));
        assert!(events.iter().any(|e| {
            e["name"].as_str().is_some_and(|n| n.ends_with("[done]"))
        }));
    }
}
