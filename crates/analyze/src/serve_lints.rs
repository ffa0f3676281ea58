//! `LMA25x` / `LMA26x` — `lm-serve` slot plans ([`ServeProbe`]) and SLO
//! policies ([`SloProbe`]). A bad plan does not crash: it deadlocks
//! admission (leases that can never all be granted) or quietly serves
//! below capacity; a bad SLO policy makes the actuators flail on every
//! boundary or promises a reaction it has no lever for.

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// Observations sampled from one `lm-serve` slot plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeProbe {
    /// Concurrent sequences the plan admits (each holds one KV lease).
    pub slots: u64,
    /// Worst-case KV bytes one slot leases (prompt + full generation).
    pub kv_bytes_per_slot: u64,
    /// Capacity of the serve-owned KV `MemPool`, bytes.
    pub kv_pool_bytes: u64,
    /// Sequences composed into one engine block step.
    pub block_size: u64,
    /// Kahn width (max concurrency) of the block-level operator graph.
    pub kahn_width: u64,
}

/// Run every serving lint over a sampled probe.
pub fn lint_serve(probe: &ServeProbe) -> Report {
    let mut out = Vec::new();

    // LMA250: every slot must be able to hold its lease simultaneously —
    // the scheduler retires leases only at block boundaries, so a plan
    // that oversubscribes the pool stalls with slots waiting on bytes
    // that are never coming back mid-block.
    let leased = probe.slots.saturating_mul(probe.kv_bytes_per_slot);
    if leased > probe.kv_pool_bytes {
        out.push(Diagnostic::error(
            LintCode::Lma250SlotsExceedPool,
            "plan.slots".to_string(),
            format!(
                "{} slots x {} B/slot = {leased} B exceed the {} B KV pool",
                probe.slots, probe.kv_bytes_per_slot, probe.kv_pool_bytes
            ),
        ));
    }

    // LMA251: the block-level graph bounds how many sequences one step
    // can actually run concurrently (Algorithm 3's width argument applied
    // to the serving block). A larger batch only adds padding.
    if probe.block_size > probe.kahn_width {
        out.push(Diagnostic::error(
            LintCode::Lma251BlockExceedsWidth,
            "plan.block_size".to_string(),
            format!(
                "block of {} sequences exceeds the block graph's Kahn \
                 width {}",
                probe.block_size, probe.kahn_width
            ),
        ));
    }

    // LMA252: the dual of LMA250 — admission chose so few slots that more
    // than half the pool sits idle even though at least one more lease
    // would fit. Not an error (the operator may be reserving headroom for
    // longer contexts), but worth surfacing.
    if probe.kv_bytes_per_slot > 0
        && leased <= probe.kv_pool_bytes
        && leased < probe.kv_pool_bytes / 2
        && probe.kv_pool_bytes - leased >= probe.kv_bytes_per_slot
    {
        out.push(Diagnostic::warn(
            LintCode::Lma252SlotsUnderutilizePool,
            "plan.slots".to_string(),
            format!(
                "{} slots lease {leased} B of a {} B pool (< 50%) while \
                 another {} B slot would fit",
                probe.slots, probe.kv_pool_bytes, probe.kv_bytes_per_slot
            ),
        ));
    }

    Report::new(out)
}

/// Observations sampled from one `lm-serve` SLO policy + plan pairing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SloProbe {
    /// Configured p99 TTFT objective, seconds.
    pub ttft_p99_slo_s: f64,
    /// Physical service floor: one group prefill plus one decode step at
    /// planned occupancy, seconds. No admitted request's first token can
    /// land faster.
    pub floor_ttft_s: f64,
    /// Slots in the admission plan.
    pub slots: u64,
    /// Whether the policy acts on predicted violations at all.
    pub enforce: bool,
    /// Preemption actuator armed.
    pub preempt: bool,
    /// Load-shedding actuator armed.
    pub shed: bool,
    /// Rungs available on the attached degrade ladder (0 = none).
    pub degrade_rungs: u64,
}

/// Run every SLO-policy lint over a sampled probe.
pub fn lint_slo(probe: &SloProbe) -> Report {
    let mut out = Vec::new();

    // LMA260: the objective must sit above the floor the cost model
    // charges for even an immediately-admitted request; otherwise every
    // boundary is a predicted violation and the actuators flail.
    if probe.ttft_p99_slo_s <= probe.floor_ttft_s || !probe.ttft_p99_slo_s.is_finite() {
        out.push(Diagnostic::error(
            LintCode::Lma260SloBelowFloor,
            "slo.ttft_p99_s".to_string(),
            format!(
                "p99 TTFT objective {:.3}s is at or below the physical \
                 service floor {:.3}s (one prefill + one step)",
                probe.ttft_p99_slo_s, probe.floor_ttft_s
            ),
        ));
    }

    // LMA261: enforcement with no actuator is a misconfiguration — the
    // monitor predicts violations and then has no lever to pull.
    if probe.enforce && !probe.preempt && !probe.shed && probe.degrade_rungs == 0 {
        out.push(Diagnostic::error(
            LintCode::Lma261SloNoActuator,
            "slo.enforce".to_string(),
            "SLO enforcement enabled but preemption, shedding, and the \
             degrade ladder are all disabled"
                .to_string(),
        ));
    }

    // LMA262: with one slot, preemption evicts the only running request
    // to admit another of the same service time — pure churn. Warning:
    // the policy still terminates (resumes are exact), it just cannot
    // help.
    if probe.preempt && probe.slots <= 1 {
        out.push(Diagnostic::warn(
            LintCode::Lma262PreemptSingleSlot,
            "slo.preempt".to_string(),
            format!(
                "preemption armed on a {}-slot plan: evicting the only \
                 slot adds churn, not capacity",
                probe.slots
            ),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> ServeProbe {
        ServeProbe {
            slots: 8,
            kv_bytes_per_slot: 1 << 20,
            kv_pool_bytes: 10 << 20,
            block_size: 8,
            kahn_width: 8,
        }
    }

    #[test]
    fn sound_plan_is_clean() {
        let r = lint_serve(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn block_beyond_kahn_width_caught() {
        let mut p = sound();
        p.kahn_width = 4;
        let r = lint_serve(&p);
        assert!(r.has(LintCode::Lma251BlockExceedsWidth), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn idle_pool_warned_but_not_fatal() {
        let mut p = sound();
        p.slots = 2;
        p.block_size = 2;
        let r = lint_serve(&p);
        assert!(r.has(LintCode::Lma252SlotsUnderutilizePool), "{r}");
        assert!(r.is_clean(), "underutilization is a warning: {r}");
    }

    #[test]
    fn tight_fit_is_not_underutilization() {
        // 5 slots of a 10-slot pool is exactly 50% — below the warning
        // threshold's strict inequality, no finding.
        let mut p = sound();
        p.slots = 5;
        p.block_size = 5;
        let r = lint_serve(&p);
        assert!(!r.has(LintCode::Lma252SlotsUnderutilizePool), "{r}");
    }

    #[test]
    fn saturating_lease_math_does_not_wrap() {
        let mut p = sound();
        p.slots = u64::MAX;
        p.kv_bytes_per_slot = u64::MAX;
        let r = lint_serve(&p);
        assert!(r.has(LintCode::Lma250SlotsExceedPool), "{r}");
    }

    #[test]
    fn probe_serializes() {
        let json = serde_json::to_string(&sound()).expect("serialize");
        assert!(json.contains("kahn_width"), "{json}");
    }

    fn sound_slo() -> SloProbe {
        SloProbe {
            ttft_p99_slo_s: 400.0,
            floor_ttft_s: 12.0,
            slots: 8,
            enforce: true,
            preempt: true,
            shed: true,
            degrade_rungs: 4,
        }
    }

    #[test]
    fn sound_slo_is_clean() {
        let r = lint_slo(&sound_slo());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn objective_below_floor_caught() {
        let mut p = sound_slo();
        p.ttft_p99_slo_s = 10.0;
        let r = lint_slo(&p);
        assert!(r.has(LintCode::Lma260SloBelowFloor), "{r}");
        assert!(!r.is_clean());
        // Non-finite objectives land in the same bucket.
        p.ttft_p99_slo_s = f64::NAN;
        assert!(lint_slo(&p).has(LintCode::Lma260SloBelowFloor));
    }

    #[test]
    fn enforcement_without_actuators_caught() {
        let mut p = sound_slo();
        p.preempt = false;
        p.shed = false;
        p.degrade_rungs = 0;
        let r = lint_slo(&p);
        assert!(r.has(LintCode::Lma261SloNoActuator), "{r}");
        // Observe mode with no actuators is fine — nothing was promised.
        p.enforce = false;
        assert!(lint_slo(&p).is_clean());
    }

    #[test]
    fn single_slot_preemption_warned_not_fatal() {
        let mut p = sound_slo();
        p.slots = 1;
        let r = lint_slo(&p);
        assert!(r.has(LintCode::Lma262PreemptSingleSlot), "{r}");
        assert!(r.is_clean(), "churn warning must not be fatal: {r}");
    }

    #[test]
    fn slo_probe_serializes() {
        let json = serde_json::to_string(&sound_slo()).expect("serialize");
        assert!(json.contains("degrade_rungs"), "{json}");
    }
}
