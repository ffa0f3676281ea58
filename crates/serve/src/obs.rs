//! Serve-path observability (DESIGN.md §8): the per-request lifecycle
//! record, per-boundary state observations, the model-vs-observed drift
//! audit, and the Perfetto serve timeline.
//!
//! The scheduler emits one [`LifecycleEvent`] per phase transition
//! (queued → admitted → prefill → per-token decode → terminal) and one
//! [`BoundaryObs`] per block boundary; both ride on the virtual clock,
//! so the record is deterministic and byte-identical across runs. From
//! these the audit compares what the admission model *predicted* — the
//! [`TtftModel`](crate::TtftModel) first-token estimate sampled the
//! moment each request joins the wait queue, plan occupancy, Little's
//! law on the queue — against what the scheduler actually did.
//!
//! Unlike the simulator drift golden (ratio exactly 1.0: the simulator
//! *is* the model), the serve audit is a genuine prediction check: the
//! TTFT estimator guesses queueing waits before admissions, crashes and
//! stalls happen. Tolerances are therefore per-metric and documented,
//! not zero. The record itself is checked against one executable
//! specification of the request lifecycle, [`conform`].

use crate::admission::ServePlan;
use crate::scheduler::ServeOutcome;
use lm_trace::{drift_report, DriftReport, PerfettoTrace};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Lifecycle phases of one request inside the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RequestPhase {
    /// Entered (or re-entered, after crash/preemption) the wait queue.
    Queued,
    /// Granted a slot and a KV lease.
    Admitted,
    /// Paying (re-)prefill as part of an admitted group.
    Prefill,
    /// One decode step delivered one token to this slot.
    Decode,
    /// Terminal: finished with a full [`Response`](crate::Response).
    Done,
    /// Terminal: rejected (shed, deadline-expired, invalid, pool).
    Shed,
    /// Evicted from its slot by the SLO monitor (re-queued).
    Preempted,
    /// Terminal: cancelled (explicit or client disconnect).
    Cancelled,
    /// Lost its slot to an injected crash (re-queued).
    Crashed,
}

impl RequestPhase {
    pub fn name(self) -> &'static str {
        match self {
            RequestPhase::Queued => "queued",
            RequestPhase::Admitted => "admitted",
            RequestPhase::Prefill => "prefill",
            RequestPhase::Decode => "decode",
            RequestPhase::Done => "done",
            RequestPhase::Shed => "shed",
            RequestPhase::Preempted => "preempted",
            RequestPhase::Cancelled => "cancelled",
            RequestPhase::Crashed => "crashed",
        }
    }

    /// Phases after which the request never reappears in the run.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            RequestPhase::Done | RequestPhase::Shed | RequestPhase::Cancelled
        )
    }
}

/// One phase transition of one request, on the virtual clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleEvent {
    /// Virtual microseconds at the start of the phase.
    pub t_us: u64,
    /// Phase duration (prefill, decode); 0 for instantaneous events.
    pub dur_us: u64,
    /// Request id.
    pub request: u64,
    /// Stable slot index while admitted; `None` off-slot.
    pub slot: Option<u32>,
    pub phase: RequestPhase,
}

/// Scheduler state sampled once per block boundary (post-admission,
/// pre-decode), plus idle/terminal samples so the occupancy integral
/// covers the whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundaryObs {
    /// Virtual microseconds of the sample.
    pub t_us: u64,
    /// Requests waiting in the ready queue (present, not admitted).
    pub queued: usize,
    /// Requests that have not arrived yet.
    pub pending_arrivals: usize,
    /// Slots occupied through the upcoming decode step.
    pub active_slots: usize,
    /// Plan slot count (constant; kept per-sample for self-containment).
    pub slots: usize,
    /// Pages mapped by resident sequences at this boundary — the
    /// residency series the occupancy drift audit integrates.
    pub pages_in_use: u64,
    /// Model-side page demand of the resident sequences: the paging
    /// geometry applied to each active request's metadata
    /// (`pages_for(prompt + gen_len)`), assuming no cross-request
    /// sharing. Under eager reservation the pool's realized residency
    /// must track this exactly, so the paged occupancy audit compares
    /// the two: observed above predicted means leaked or double-mapped
    /// pages, observed below means the prefix index is deduplicating.
    pub pages_demand: u64,
    /// [`TtftModel`](crate::TtftModel) p99 TTFT over the wait queue,
    /// microseconds; `None` when the queue is empty.
    pub predicted_ttft_p99_us: Option<u64>,
    /// Degrade ratchet in force at this boundary (1.0 = full quality).
    pub degrade_factor: f64,
}

/// Per-request first-token audit pair: what the queueing model promised
/// when the request joined the queue vs what the scheduler delivered.
/// Both relative to the request's arrival, microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TtftSample {
    pub request: u64,
    pub predicted_us: u64,
    pub observed_us: u64,
}

/// Everything the scheduler's observability hooks collect in one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeObs {
    pub lifecycle: Vec<LifecycleEvent>,
    pub boundaries: Vec<BoundaryObs>,
    /// Requests that received a first token, with their predictions.
    pub ttft: Vec<TtftSample>,
}

impl ServeObs {
    /// Time-weighted mean of `f(boundary)` over the boundary intervals
    /// (each sample holds until the next one).
    fn time_weighted_mean(&self, f: impl Fn(&BoundaryObs) -> f64) -> f64 {
        let mut weighted = 0.0f64;
        let mut span = 0.0f64;
        for w in self.boundaries.windows(2) {
            let dt = w[1].t_us.saturating_sub(w[0].t_us) as f64;
            weighted += f(&w[0]) * dt;
            span += dt;
        }
        if span > 0.0 {
            weighted / span
        } else {
            0.0
        }
    }

    /// Exact nearest-rank quantile of `values` (exclusive convention,
    /// matching `lm-trace`'s histogram): p99 of 100 values is the 100th.
    fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = values.len();
        let target = (((q.clamp(0.0, 1.0) * n as f64).floor() as usize) + 1).min(n);
        values[target - 1]
    }

    /// The serve-path drift audit: predicted-vs-observed rows for TTFT
    /// (mean and p99 over the audited requests), occupancy in pages
    /// (`min(pages_demand, pool)/pool` against realized
    /// `pages_in_use/pool`, both time-weighted), and mean ready-queue
    /// depth via Little's law (`λ · mean predicted wait`).
    pub fn audit(&self, plan: &ServePlan) -> DriftReport {
        let n = self.ttft.len();
        let (pred_ttft, obs_ttft): (Vec<f64>, Vec<f64>) = self
            .ttft
            .iter()
            .map(|s| (s.predicted_us as f64 / 1e6, s.observed_us as f64 / 1e6))
            .unzip();
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        // Occupancy is audited in the binding resource's units: pages
        // (DESIGN.md §9.3). The prediction is the analytic geometry
        // applied to the resident requests' metadata (`pages_demand`),
        // capped by the pool — eager reservation makes realized
        // residency track it exactly, so drift here means
        // leaked/double-mapped pages (observed high) or prefix-sharing
        // dedup (observed low).
        let total = plan.pages_total.max(1) as f64;
        let occ_pred = self.time_weighted_mean(|b| (b.pages_demand as f64).min(total) / total);
        let occ_obs = self.time_weighted_mean(|b| b.pages_in_use as f64 / total);
        let depth_obs = self.time_weighted_mean(|b| b.queued as f64);
        // Little's law over the audited window: arrival rate λ of the
        // requests that got a first token, times their mean predicted
        // wait, predicts the ready-queue depth the scheduler will hold.
        let span_s = self
            .boundaries
            .last()
            .zip(self.boundaries.first())
            .map(|(l, f)| (l.t_us - f.t_us) as f64 / 1e6)
            .unwrap_or(0.0);
        let lambda = if span_s > 0.0 { n as f64 / span_s } else { 0.0 };
        let depth_pred = lambda * mean(&pred_ttft);
        drift_report(&[
            ("ttft_mean_s", mean(&pred_ttft), mean(&obs_ttft)),
            (
                "ttft_p99_s",
                Self::quantile(pred_ttft, 0.99),
                Self::quantile(obs_ttft, 0.99),
            ),
            ("slot_occupancy_mean", occ_pred, occ_obs),
            ("queue_depth_mean", depth_pred, depth_obs),
        ])
    }
}

/// Thread id of slot `i`'s track in the serve timeline.
const SLOT_TID_BASE: u64 = 100;
/// Track for off-slot terminal markers (sheds, queued cancellations).
const QUEUE_TID: u64 = 99;

/// Build the Perfetto serve timeline: one track per slot carrying each
/// request's residency slice with nested prefill and per-token decode
/// slices, a queue track for off-slot terminal markers, and counter
/// series for queue depth / active slots / predicted p99 TTFT.
pub fn serve_timeline(plan: &ServePlan, obs: &ServeObs) -> PerfettoTrace {
    let mut t = PerfettoTrace::new("lm-serve");
    t.add_named_track(QUEUE_TID, "queue");
    for slot in 0..plan.slots {
        t.add_named_track(SLOT_TID_BASE + slot as u64, &format!("slot {slot}"));
    }
    // Pair each Admitted with the event that ends the residency to form
    // the enclosing slice; nested phases render by containment.
    let mut open: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
    for ev in &obs.lifecycle {
        let s = ev.t_us as f64 / 1e6;
        match ev.phase {
            RequestPhase::Admitted => {
                if let Some(slot) = ev.slot {
                    open.insert(ev.request, (ev.t_us, slot));
                }
            }
            RequestPhase::Prefill | RequestPhase::Decode => {
                if let Some(slot) = ev.slot {
                    t.add_slice(
                        ev.phase.name(),
                        "serve",
                        SLOT_TID_BASE + slot as u64,
                        s,
                        ev.dur_us as f64 / 1e6,
                        vec![("request", Value::PosInt(ev.request))],
                    );
                }
            }
            RequestPhase::Done
            | RequestPhase::Preempted
            | RequestPhase::Crashed
            | RequestPhase::Cancelled
                if ev.slot.is_some() =>
            {
                if let Some((start, slot)) = open.remove(&ev.request) {
                    t.add_slice(
                        &format!("req {} [{}]", ev.request, ev.phase.name()),
                        "serve",
                        SLOT_TID_BASE + slot as u64,
                        start as f64 / 1e6,
                        (ev.t_us - start) as f64 / 1e6,
                        vec![("request", Value::PosInt(ev.request))],
                    );
                }
            }
            RequestPhase::Shed | RequestPhase::Cancelled => {
                t.add_slice(
                    &format!("req {} [{}]", ev.request, ev.phase.name()),
                    "serve",
                    QUEUE_TID,
                    s,
                    0.0,
                    vec![("request", Value::PosInt(ev.request))],
                );
            }
            _ => {}
        }
    }
    for b in &obs.boundaries {
        let s = b.t_us as f64 / 1e6;
        t.add_counter("serve.queue_depth", s, b.queued as f64);
        t.add_counter("serve.active_slots", s, b.active_slots as f64);
        if let Some(p99) = b.predicted_ttft_p99_us {
            t.add_counter("serve.predicted_ttft_p99_s", s, p99 as f64 / 1e6);
        }
    }
    t
}

// ---- the lifecycle specification -----------------------------------

/// One lifecycle edge; `from` is `None` at a request's first event.
pub type Transition = (Option<RequestPhase>, RequestPhase);

/// Every edge the scheduler may record.
#[rustfmt::skip]
pub const LIFECYCLE: [Transition; 13] = {
    use RequestPhase::*;
    [
        (None, Queued), (Some(Queued), Admitted), (Some(Queued), Shed), (Some(Queued), Cancelled),
        (Some(Admitted), Prefill), (Some(Prefill), Decode), (Some(Decode), Decode),
        (Some(Decode), Done), (Some(Decode), Cancelled), (Some(Decode), Preempted),
        (Some(Decode), Crashed), (Some(Preempted), Queued), (Some(Crashed), Queued),
    ]
};

/// The rule of the specification a run broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// An edge outside [`LIFECYCLE`].
    Transition(Transition),
    /// An event after the request's terminal one.
    AfterTerminal,
    /// An admission into a slot index the plan does not have.
    SlotOutOfRange,
    /// An admission into a slot another resident holds.
    SlotOccupied,
    /// An event off the slot the request holds (`None` while off-slot).
    SlotMismatch,
    /// A clock-stamped event earlier than the one before it.
    ClockBackwards,
    /// A request without a terminal event.
    Unresolved,
    /// The ids the log ends in this phase are not the outcome's list.
    TerminalList(RequestPhase),
    /// Decodes differ from a response's tokens, a cancellation's
    /// `delivered`, or (whole run) `generated_tokens`.
    Tokens,
    /// The named `ServeStats` counter differs from the log's tally.
    Stats(&'static str),
    /// KV still leased at the end, or a last boundary not idle.
    NotQuiescent,
}

/// Where a run first departs from the specification: the rule, and the
/// request and `obs.lifecycle` index it concerns where there is one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    pub rule: Rule,
    pub request: Option<u64>,
    pub event: Option<usize>,
}

/// What a conforming run exercised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Conformance {
    /// Distinct requests, each resolved exactly once.
    pub requests: usize,
    /// Firings of each [`LIFECYCLE`] edge the run took.
    pub transitions: BTreeMap<Transition, u64>,
}

impl Conformance {
    /// Events recorded in `phase`.
    pub fn count(&self, phase: RequestPhase) -> u64 {
        let into = self.transitions.iter().filter(|((_, to), _)| *to == phase);
        into.map(|(_, n)| n).sum()
    }
}

/// The serve lifecycle specification (DESIGN.md §8): replay a finished
/// continuous run through the reference state machine — no timing
/// model — and return what it exercised, or the first rule it broke.
pub fn conform(plan: &ServePlan, out: &ServeOutcome) -> Result<Conformance, Violation> {
    use RequestPhase::*;
    #[derive(Default)]
    struct Replay {
        last: Option<RequestPhase>,
        slot: Option<u32>,
        decodes: usize,
    }
    let violation = |rule, request, event| Err(Violation { rule, request, event });
    let mut reqs: BTreeMap<u64, Replay> = BTreeMap::new();
    let mut residents = std::collections::BTreeSet::new();
    let (mut clock_us, mut c) = (0, Conformance::default());
    for (i, ev) in out.obs.lifecycle.iter().enumerate() {
        let at = |rule| violation(rule, Some(ev.request), Some(i));
        let Replay { last, slot, decodes } = reqs.entry(ev.request).or_default();
        let edge = (*last, ev.phase);
        if last.is_some_and(RequestPhase::is_terminal) {
            return at(Rule::AfterTerminal);
        } else if !LIFECYCLE.contains(&edge) {
            return at(Rule::Transition(edge));
        } else if last.is_some() && ev.t_us < clock_us {
            // Only a fresh arrival is stamped before the clock.
            return at(Rule::ClockBackwards);
        }
        if last.is_some() {
            clock_us = ev.t_us;
        }
        match (ev.phase, ev.slot) {
            (Admitted, None) => return at(Rule::SlotMismatch),
            (Admitted, Some(s)) if s as usize >= plan.slots => return at(Rule::SlotOutOfRange),
            (Admitted, Some(s)) if residents.contains(&s) => return at(Rule::SlotOccupied),
            (Admitted, Some(s)) => {
                residents.insert(s);
                *slot = Some(s);
            }
            (_, held) if held != *slot => return at(Rule::SlotMismatch),
            (Done | Cancelled | Preempted | Crashed, Some(s)) => {
                residents.remove(&s);
                *slot = None;
            }
            _ => {}
        }
        *decodes += usize::from(ev.phase == Decode);
        *last = Some(ev.phase);
        *c.transitions.entry(edge).or_default() += 1;
    }
    c.requests = reqs.len();

    let resolved = |r: &Replay| r.last.is_some_and(RequestPhase::is_terminal);
    if let Some((&id, _)) = reqs.iter().find(|(_, r)| !resolved(r)) {
        return violation(Rule::Unresolved, Some(id), None);
    }
    let lists: [(RequestPhase, Vec<u64>); 3] = [
        (Done, out.responses.iter().map(|r| r.id).collect()),
        (Shed, out.rejections.iter().map(|r| r.id).collect()),
        (Cancelled, out.cancellations.iter().map(|c| c.id).collect()),
    ];
    for (phase, mut listed) in lists {
        listed.sort_unstable();
        let ended = reqs.iter().filter(|(_, r)| r.last == Some(phase));
        let logged: Vec<u64> = ended.map(|(&id, _)| id).collect();
        if logged != listed {
            // Name the first id the lists hold a different number of times.
            let n = |ids: &[u64], id: u64| ids.iter().filter(|&&x| x == id).count();
            let mut ids = logged.iter().chain(&listed).copied();
            let id = ids.find(|&id| n(&logged, id) != n(&listed, id));
            return violation(Rule::TerminalList(phase), id, None);
        }
    }
    let owed = (out.responses.iter().map(|r| (r.id, r.tokens.len())))
        .chain(out.cancellations.iter().map(|c| (c.id, c.delivered)));
    for (id, tokens) in owed {
        if reqs.get(&id).map_or(0, |r| r.decodes) != tokens {
            return violation(Rule::Tokens, Some(id), None);
        }
    }
    let s = &out.stats;
    let in_slot_cancels = c.transitions.get(&(Some(Decode), Cancelled)).copied();
    let tallies = [
        ("admitted", s.admitted, c.count(Admitted)),
        ("completed", s.completed, c.count(Done)),
        ("cancelled_in_slot", s.cancelled_in_slot, in_slot_cancels.unwrap_or(0)),
        ("preemptions", s.preemptions, c.count(Preempted)),
        ("slot_crashes", s.slot_crashes, c.count(Crashed)),
    ];
    let idle = |b: &BoundaryObs| b.active_slots == 0 && b.pages_in_use == 0;
    let leased = out.kv_leaked_bytes != 0 || out.kv_pages_leaked != 0;
    if c.count(Decode) != out.generated_tokens {
        violation(Rule::Tokens, None, None)
    } else if let Some((field, ..)) = tallies.into_iter().find(|(_, stat, log)| stat != log) {
        violation(Rule::Stats(field), None, None)
    } else if leased || !out.obs.boundaries.last().is_some_and(idle) {
        violation(Rule::NotQuiescent, None, None)
    } else {
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> ServePlan {
        ServePlan {
            slots: 2,
            slot_context: 128,
            kv_bytes_per_slot: 1024,
            kv_pool_bytes: 2048,
            est_step_seconds: 0.1,
            est_tokens_per_s: 20.0,
            page_tokens: 16,
            page_bytes: 128,
            pages_total: 16,
            pages_per_slot: 8,
        }
    }

    fn boundary(t_us: u64, queued: usize, active: usize) -> BoundaryObs {
        BoundaryObs {
            t_us,
            queued,
            pending_arrivals: 0,
            active_slots: active,
            slots: 2,
            // Realized residency equal to the model-side demand (4
            // pages per resident request, 16-page pool) so perfect
            // predictions stay unit-ratio.
            pages_in_use: (((active + queued) * 4).min(16)) as u64,
            pages_demand: (((active + queued) * 4).min(16)) as u64,
            predicted_ttft_p99_us: Some(500_000),
            degrade_factor: 1.0,
        }
    }

    #[test]
    fn audit_on_perfect_predictions_is_unit_ratio() {
        let obs = ServeObs {
            lifecycle: Vec::new(),
            boundaries: vec![boundary(0, 1, 1), boundary(1_000_000, 1, 2), boundary(2_000_000, 0, 0)],
            ttft: vec![
                TtftSample { request: 0, predicted_us: 200_000, observed_us: 200_000 },
                TtftSample { request: 1, predicted_us: 400_000, observed_us: 400_000 },
            ],
        };
        let r = obs.audit(&plan());
        assert_eq!(r.metric("ttft_mean_s").unwrap().ratio, Some(1.0));
        assert_eq!(r.metric("ttft_p99_s").unwrap().ratio, Some(1.0));
        // Paged occupancy is audited in page units: both intervals
        // carry exactly the predicted residency, so the ratio is unit.
        // Interval 1 predicts (1+1)·4/16 = 0.5, interval 2 predicts
        // (2+1)·4/16 = 0.75; time-weighted mean 0.625 on both sides.
        let occ = r.metric("slot_occupancy_mean").unwrap();
        assert!((occ.predicted - 0.625).abs() < 1e-9);
        assert!((occ.observed - 0.625).abs() < 1e-9);
        assert_eq!(occ.ratio, Some(1.0));
        // Little's law: λ = 2 req / 2 s, mean wait 0.3 s → depth 0.3.
        let d = r.metric("queue_depth_mean").unwrap();
        assert!((d.predicted - 0.3).abs() < 1e-9);
        assert!((d.observed - 1.0).abs() < 1e-9);
    }

    #[test]
    fn audit_with_no_samples_is_all_zero() {
        let obs = ServeObs::default();
        let r = obs.audit(&plan());
        for m in &r.metrics {
            assert_eq!(m.predicted, 0.0, "{}", m.metric);
            assert_eq!(m.observed, 0.0, "{}", m.metric);
            assert_eq!(m.ratio, None);
        }
        assert!(r.ok_within(1e-9));
    }

    #[test]
    fn exact_quantile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(ServeObs::quantile(v.clone(), 0.99), 100.0);
        assert_eq!(ServeObs::quantile(v.clone(), 0.5), 51.0);
        assert_eq!(ServeObs::quantile(vec![7.0], 0.99), 7.0);
        assert_eq!(ServeObs::quantile(Vec::new(), 0.99), 0.0);
    }

    #[test]
    fn timeline_builds_slot_tracks_and_counters() {
        let obs = ServeObs {
            lifecycle: vec![
                LifecycleEvent { t_us: 0, dur_us: 0, request: 5, slot: None, phase: RequestPhase::Queued },
                LifecycleEvent { t_us: 10, dur_us: 0, request: 5, slot: Some(1), phase: RequestPhase::Admitted },
                LifecycleEvent { t_us: 10, dur_us: 40, request: 5, slot: Some(1), phase: RequestPhase::Prefill },
                LifecycleEvent { t_us: 50, dur_us: 25, request: 5, slot: Some(1), phase: RequestPhase::Decode },
                LifecycleEvent { t_us: 75, dur_us: 0, request: 5, slot: Some(1), phase: RequestPhase::Done },
                LifecycleEvent { t_us: 75, dur_us: 0, request: 6, slot: None, phase: RequestPhase::Shed },
            ],
            boundaries: vec![boundary(10, 1, 1), boundary(75, 0, 0)],
            ttft: Vec::new(),
        };
        let t = serve_timeline(&plan(), &obs);
        let v = t.to_value();
        let events = v["traceEvents"].as_array().unwrap();
        // Residency slice encloses the prefill and decode slices.
        let residency = events
            .iter()
            .find(|e| e["name"].as_str() == Some("req 5 [done]"))
            .unwrap();
        assert_eq!(residency["tid"].as_u64(), Some(SLOT_TID_BASE + 1));
        assert_eq!(residency["ts"].as_f64(), Some(10.0));
        assert_eq!(residency["dur"].as_f64(), Some(65.0));
        assert!(events.iter().any(|e| e["name"].as_str() == Some("prefill")));
        assert!(events.iter().any(|e| e["name"].as_str() == Some("decode")));
        let shed = events
            .iter()
            .find(|e| e["name"].as_str() == Some("req 6 [shed]"))
            .unwrap();
        assert_eq!(shed["tid"].as_u64(), Some(QUEUE_TID));
        assert!(
            events
                .iter()
                .filter(|e| e["ph"].as_str() == Some("C"))
                .count()
                >= 4,
            "queue/active/p99 counters per boundary"
        );
        // Slot tracks are named.
        assert!(events.iter().any(|e| {
            e["ph"].as_str() == Some("M") && e["args"]["name"].as_str() == Some("slot 0")
        }));
    }

    #[test]
    fn obs_probe_samples_config_wiring() {
        use crate::admission::ServeConfig;
        use crate::preflight::obs_report;
        use lm_analyze::LintCode;
        let quiet = obs_report(&ServeConfig::default());
        assert!(quiet.diagnostics.is_empty(), "{quiet}");
        // Enforced SLO with a disabled tracer, and a zero-capacity
        // recorder under a fault storm: both findings come from the
        // config's own wiring.
        let cfg = ServeConfig {
            slo: Some(crate::slo::SloPolicy::enforcing(100.0)),
            flight: lm_trace::FlightRecorder::new(0),
            fault: lm_fault::FaultInjector::new(lm_fault::FaultConfig::storm(
                7,
                lm_fault::StormProfile::Default,
            )),
            ..ServeConfig::default()
        };
        let report = obs_report(&cfg);
        assert!(report.has(LintCode::Lma270SloWithoutTtftHistogram));
        assert!(report.has(LintCode::Lma271FlightRecorderZeroCapacity));
        // A registered histogram clears LMA270 only.
        let traced = ServeConfig {
            tracer: lm_trace::Tracer::new(),
            ..cfg
        };
        let report = obs_report(&traced);
        assert!(!report.has(LintCode::Lma270SloWithoutTtftHistogram));
        assert!(report.has(LintCode::Lma271FlightRecorderZeroCapacity));
    }

    /// One corruption per rule, applied to a real default run.
    type Corruption = fn(&ServePlan, &mut ServeOutcome);

    fn first(o: &ServeOutcome, phase: RequestPhase) -> usize {
        o.obs.lifecycle.iter().position(|e| e.phase == phase).unwrap()
    }

    #[test]
    fn spec_names_the_rule_each_corruption_breaks() {
        use crate::backend::{AnalyticBackend, ServeBackend};
        use crate::session::ServeSession;
        use RequestPhase::*;
        let b = AnalyticBackend::opt_30b();
        let reqs = crate::request::synth_traffic(7, 4.0, 16, b.model());
        let (plan, clean) = ServeSession::new(&b).run(reqs).unwrap().into_continuous();
        assert_eq!(conform(&plan, &clean).unwrap().requests, 16);
        let rows: [(&str, Corruption, Rule); 8] = [
            (
                // The log's last terminal event: nothing follows it.
                "drop a terminal event",
                |_, o| {
                    let i = o.obs.lifecycle.iter().rposition(|e| e.phase.is_terminal());
                    o.obs.lifecycle.remove(i.unwrap());
                },
                Rule::Unresolved,
            ),
            (
                "duplicate a done",
                |_, o| {
                    let i = first(o, Done);
                    o.obs.lifecycle.insert(i + 1, o.obs.lifecycle[i].clone());
                },
                Rule::AfterTerminal,
            ),
            (
                "decode after done",
                |_, o| {
                    let i = first(o, Done);
                    let done = o.obs.lifecycle[i].clone();
                    o.obs.lifecycle.insert(i + 1, LifecycleEvent { phase: Decode, ..done });
                },
                Rule::AfterTerminal,
            ),
            (
                "second resident in an occupied slot",
                |_, o| {
                    let log = &mut o.obs.lifecycle;
                    let pair = |w: &[LifecycleEvent]| w.iter().all(|e| e.phase == Admitted);
                    let i = log.windows(2).position(pair).unwrap();
                    log[i + 1].slot = log[i].slot;
                },
                Rule::SlotOccupied,
            ),
            (
                "slot beyond the plan",
                |plan, o| {
                    let i = first(o, Admitted);
                    o.obs.lifecycle[i].slot = Some(plan.slots as u32);
                },
                Rule::SlotOutOfRange,
            ),
            (
                "response one token short",
                |_, o| {
                    o.responses[0].tokens.pop();
                },
                Rule::Tokens,
            ),
            (
                "preemption miscounted",
                |_, o| o.stats.preemptions += 1,
                Rule::Stats("preemptions"),
            ),
            (
                "leaked page at the last boundary",
                |_, o| o.obs.boundaries.last_mut().unwrap().pages_in_use += 1,
                Rule::NotQuiescent,
            ),
        ];
        for (name, corrupt, rule) in rows {
            let mut out = clean.clone();
            corrupt(&plan, &mut out);
            let got = conform(&plan, &out).map(drop).map_err(|v| v.rule);
            assert_eq!(got, Err(rule), "{name}");
        }
    }

    #[test]
    fn obs_serde_round_trip() {
        let obs = ServeObs {
            lifecycle: vec![LifecycleEvent {
                t_us: 1,
                dur_us: 2,
                request: 3,
                slot: Some(0),
                phase: RequestPhase::Crashed,
            }],
            boundaries: vec![boundary(1, 2, 1)],
            ttft: vec![TtftSample { request: 3, predicted_us: 10, observed_us: 12 }],
        };
        let v = serde::Serialize::serialize(&obs);
        let back: ServeObs = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, obs);
    }
}
