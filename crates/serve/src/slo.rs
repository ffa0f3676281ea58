//! SLO policy for the continuous-batching scheduler: a first-order TTFT
//! predictor driven by the same performance model that times the run,
//! and the actuators the scheduler pulls when the prediction says the
//! p99 TTFT objective is about to be violated.
//!
//! Three actuators, tried in order of increasing cost:
//!
//! 1. **Shedding** (admission-time): a request whose *predicted* first
//!    token lands after its effective deadline is rejected up front with
//!    [`RejectReason::WouldMissDeadline`](crate::RejectReason) instead
//!    of queueing doomed work.
//! 2. **Preemption** (boundary-time): the lowest-priority running slot
//!    is evicted — its RAII KV lease drops back into the pool — so a
//!    higher-priority waiter admits sooner. The preempted request
//!    re-queues and later resumes from its generated prefix (token
//!    streams are deterministic, so nothing is re-emitted).
//! 3. **Degradation** (boundary-time): when there is nothing useful to
//!    preempt, the scheduler climbs one rung of the configured ladder —
//!    a plain list of [`DegradeRung`]s, mildest first, such as the
//!    model-guided fallbacks of `lm_offload::degrade` — trading
//!    per-token quality/placement for step latency.
//!
//! Enforcing arms all three; an empty ladder leaves degradation out.
//! Everything here is pure arithmetic over the virtual clock: SLO
//! decisions replay bit-identically from the traffic seed.

use crate::request::micros;
use serde::{Deserialize, Serialize};

/// Fraction of the objective a request without a deadline of its own
/// may wait for its predicted first token before shedding rejects it.
/// Kept below 1 because the log-scale trace histograms carry ~9% bucket
/// error, so enforcement needs margin to show up in measured p99.
pub const SHED_SLACK: f64 = 0.8;

/// The serving objective and whether the scheduler acts on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Target p99 time-to-first-token, in virtual seconds.
    pub ttft_p99_s: f64,
    /// `true` arms shedding, preemption and the ladder; `false` records
    /// predicted violations in lm-trace but never acts on them (observe
    /// mode).
    pub enforce: bool,
}

impl SloPolicy {
    /// Record predicted violations, act on none of them.
    pub fn observe(ttft_p99_s: f64) -> Self {
        SloPolicy {
            ttft_p99_s,
            enforce: false,
        }
    }

    /// Enforce with every actuator armed.
    pub fn enforcing(ttft_p99_s: f64) -> Self {
        SloPolicy {
            ttft_p99_s,
            enforce: true,
        }
    }

    /// The SLO target in virtual microseconds.
    pub fn ttft_p99_us(&self) -> u64 {
        micros(self.ttft_p99_s)
    }
}

/// One rung of a degradation ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradeRung {
    /// Human-readable policy name (e.g. `"w4"`, `"cpu-attn+w4"`).
    pub name: String,
    /// Multiplier on prefill/decode step time relative to the *baseline*
    /// (rung 0) policy — absolute, not incremental. A model-guided
    /// ladder yields factors ≤ 1 (degraded placements exist to be
    /// faster under pressure); [`degrade_factor`] makes the effective
    /// factor monotone non-increasing whatever the rungs say.
    pub step_time_factor: f64,
}

/// The step-time factor in force after climbing the first `level` rungs
/// of `ladder` (`1.0` at level 0; `level ≤ ladder.len()`): a one-way
/// ratchet that never lets a rung slow steps down, with each rung's
/// factor floored at `0.01`.
pub fn degrade_factor(ladder: &[DegradeRung], level: usize) -> f64 {
    ladder[..level]
        .iter()
        .fold(1.0, |f, r| f.min(r.step_time_factor.max(0.01)))
}

/// A geometric ladder: `n` rungs, each scaling step time by `factor`
/// more than the last (factor < 1 speeds steps up, as a model-guided
/// degraded placement would under memory pressure).
pub fn geometric_ladder(n: usize, factor: f64) -> Vec<DegradeRung> {
    (1..=n)
        .map(|i| DegradeRung {
            name: format!("static-rung-{i}"),
            step_time_factor: factor.powi(i as i32),
        })
        .collect()
}

/// A per-boundary snapshot of the scheduler's state, from which the
/// analytic model predicts TTFT for every queued request (the serving
/// analogue of the paper's Eq. 1–24 latency composition: queueing wait
/// expressed in decode rounds, plus one prefill, plus one step).
#[derive(Debug, Clone, PartialEq)]
pub struct TtftModel {
    /// Total slot count `k` from the admission plan.
    pub slots: usize,
    /// Slots currently idle.
    pub free_slots: usize,
    /// Decode steps remaining per *active* slot, ascending — the next
    /// slot to free is `remaining_sorted[0]`.
    pub remaining_sorted: Vec<u64>,
    /// Mean generation length of the workload, in decode steps; sizes
    /// the wait for slots that must turn over more than once.
    pub mean_gen_steps: f64,
    /// Model-estimated prefill seconds for one admission group.
    pub prefill_s: f64,
    /// Model-estimated decode step seconds at current occupancy.
    pub step_s: f64,
}

impl TtftModel {
    /// Predicted time from *now* until queue position `pos` (0-based, in
    /// priority order) delivers its first token.
    ///
    /// Position `pos < free_slots` admits immediately: one prefill plus
    /// one decode step. Otherwise it waits for the `(pos - free)`-th
    /// slot release: the first `k` such waiters bind to the active
    /// slots' remaining work in ascending order — a waiter that binds to
    /// a slot only *being filled this boundary* (by one of the first
    /// `free_slots` queue positions) waits that admission's full mean
    /// generation — and each further wave of `k` waiters adds one mean
    /// generation length of turnover.
    pub fn predict_rel_ttft_us(&self, pos: usize) -> u64 {
        let serve = self.prefill_s + self.step_s;
        if pos < self.free_slots {
            return micros(serve);
        }
        let k = self.slots.max(1);
        let after = pos - self.free_slots;
        let rounds = (after / k) as f64;
        let idx = after % k;
        let wait_steps = self
            .remaining_sorted
            .get(idx)
            .map(|r| *r as f64)
            .unwrap_or(self.mean_gen_steps)
            + rounds * self.mean_gen_steps;
        micros(wait_steps * self.step_s + serve)
    }

    /// Nearest-rank p99 of the predicted TTFTs over `queued` waiting
    /// requests (relative to now). `None` with an empty queue.
    pub fn predicted_p99_us(&self, queued: usize) -> Option<u64> {
        if queued == 0 {
            return None;
        }
        let rank = ((queued as f64) * 0.99).ceil() as usize; // 1-based
        let pos = rank.saturating_sub(1).min(queued - 1);
        Some(self.predict_rel_ttft_us(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TtftModel {
        TtftModel {
            slots: 2,
            free_slots: 0,
            remaining_sorted: vec![3, 10],
            mean_gen_steps: 8.0,
            prefill_s: 1.0,
            step_s: 0.5,
        }
    }

    #[test]
    fn free_slots_predict_immediate_service() {
        let m = TtftModel {
            free_slots: 2,
            ..model()
        };
        assert_eq!(m.predict_rel_ttft_us(0), micros(1.5));
        assert_eq!(m.predict_rel_ttft_us(1), micros(1.5));
        // Position 2 must wait for the soonest slot release (3 steps).
        assert_eq!(m.predict_rel_ttft_us(2), micros(3.0 * 0.5 + 1.5));
    }

    #[test]
    fn waiters_behind_fresh_admissions_pay_a_full_generation() {
        // Both slots free, nothing active: position 2 binds to a slot
        // that position 0 fills *now*, so it waits one mean generation —
        // not zero (the optimism the serve drift audit caught).
        let m = TtftModel {
            free_slots: 2,
            remaining_sorted: vec![],
            ..model()
        };
        assert_eq!(m.predict_rel_ttft_us(1), micros(1.5));
        assert_eq!(m.predict_rel_ttft_us(2), micros(8.0 * 0.5 + 1.5));
        assert_eq!(m.predict_rel_ttft_us(3), micros(8.0 * 0.5 + 1.5));
        // Next wave: one more full turnover.
        assert_eq!(m.predict_rel_ttft_us(4), micros(16.0 * 0.5 + 1.5));
    }

    #[test]
    fn waiters_bind_to_slot_releases_then_rounds() {
        let m = model();
        // pos 0 → soonest release (3 steps); pos 1 → 10 steps.
        assert_eq!(m.predict_rel_ttft_us(0), micros(3.0 * 0.5 + 1.5));
        assert_eq!(m.predict_rel_ttft_us(1), micros(10.0 * 0.5 + 1.5));
        // pos 2 → second turnover of the fast slot: +1 mean gen length.
        assert_eq!(m.predict_rel_ttft_us(2), micros((3.0 + 8.0) * 0.5 + 1.5));
    }

    #[test]
    fn prediction_is_monotone_in_queue_position() {
        let m = model();
        let mut prev = 0;
        for pos in 0..40 {
            let t = m.predict_rel_ttft_us(pos);
            assert!(t >= prev, "pos {pos}: {t} < {prev}");
            // Within a wave positions bind to *ascending* remaining work,
            // and each wave adds a full mean generation, so global
            // monotonicity holds whenever remaining_sorted is ascending
            // and mean_gen_steps >= the largest remaining gap.
            prev = t;
        }
    }

    #[test]
    fn p99_is_nearest_rank_over_the_queue() {
        let m = model();
        assert_eq!(m.predicted_p99_us(0), None);
        // One waiter: p99 is that waiter.
        assert_eq!(m.predicted_p99_us(1), Some(m.predict_rel_ttft_us(0)));
        // 100 waiters: rank ceil(99) = 99 → 0-based pos 98.
        assert_eq!(m.predicted_p99_us(100), Some(m.predict_rel_ttft_us(98)));
    }

    #[test]
    fn policy_constructors_arm_the_right_actuators() {
        assert!(!SloPolicy::observe(2.0).enforce);
        let enf = SloPolicy::enforcing(2.0);
        assert!(enf.enforce);
        assert!(SHED_SLACK * enf.ttft_p99_s < enf.ttft_p99_s);
        assert_eq!(enf.ttft_p99_us(), 2_000_000);
    }

    #[test]
    fn static_ladder_levels_are_one_based_and_finite() {
        let l = geometric_ladder(3, 0.8);
        assert_eq!(l.len(), 3);
        assert_eq!(degrade_factor(&l, 0), 1.0, "level 0 is the baseline");
        assert!((degrade_factor(&l, 1) - 0.8).abs() < 1e-12);
        assert!((degrade_factor(&l, 3) - 0.512).abs() < 1e-12);
        // A rung that would slow steps down leaves the factor alone, and
        // none drives it below the floor.
        let inverted = geometric_ladder(2, 1.3);
        assert_eq!(degrade_factor(&inverted, 2), 1.0);
        assert_eq!(degrade_factor(&geometric_ladder(1, 0.0), 1), 0.01);
    }

    #[test]
    fn slo_policy_round_trips_serde() {
        let p = SloPolicy::enforcing(1.25);
        let v = Serialize::serialize(&p);
        let back: SloPolicy = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, p);
    }
}
