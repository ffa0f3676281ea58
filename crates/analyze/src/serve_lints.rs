//! `LMA25x` / `LMA26x` — `lm-serve` slot plans ([`ServeProbe`]) and SLO
//! policies ([`SloProbe`]). A bad plan does not crash: it deadlocks
//! admission (leases that can never all be granted); a bad SLO policy
//! makes the actuators flail on every boundary or pulls a lever that
//! cannot help.

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// Observations sampled from one `lm-serve` slot plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeProbe {
    /// Concurrent sequences the plan admits (each holds one KV lease).
    pub slots: u64,
    /// KV bytes the plan budgets per slot (the serve pre-flight passes
    /// the half-envelope page residency admission banks on).
    pub kv_bytes_per_slot: u64,
    /// Capacity of the serve-owned KV `MemPool`, bytes.
    pub kv_pool_bytes: u64,
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
    /// Whether the policy acts on predicted violations (enforcing arms
    /// shedding, preemption and the degrade ladder together).
    pub enforce: bool,
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

    // LMA262: with one slot, preemption evicts the only running request
    // to admit another of the same service time — pure churn. Warning:
    // the policy still terminates (resumes are exact), it just cannot
    // help.
    if probe.enforce && probe.slots <= 1 {
        out.push(Diagnostic::warn(
            LintCode::Lma262PreemptSingleSlot,
            "slo.enforce".to_string(),
            format!(
                "enforcement arms preemption on a {}-slot plan: evicting \
                 the only slot adds churn, not capacity",
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
        }
    }

    #[test]
    fn sound_plan_is_clean() {
        let r = lint_serve(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn tight_fit_is_not_underutilization() {
        // 10 slots of 1 MiB fill the 10 MiB pool exactly: LMA250's
        // comparison is a strict `>`, so a plan that uses every byte is
        // clean.
        let mut p = sound();
        p.slots = 10;
        let r = lint_serve(&p);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
        p.slots = 11;
        assert!(lint_serve(&p).has(LintCode::Lma250SlotsExceedPool));
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
        assert!(json.contains("kv_pool_bytes"), "{json}");
    }

    fn sound_slo() -> SloProbe {
        SloProbe {
            ttft_p99_slo_s: 400.0,
            floor_ttft_s: 12.0,
            slots: 8,
            enforce: true,
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
    fn single_slot_preemption_warned_not_fatal() {
        let mut p = sound_slo();
        p.slots = 1;
        let r = lint_slo(&p);
        assert!(r.has(LintCode::Lma262PreemptSingleSlot), "{r}");
        assert!(r.is_clean(), "churn warning must not be fatal: {r}");
        // Observe mode pulls no lever, so one slot is fine.
        p.enforce = false;
        assert_eq!(lint_slo(&p).warning_count(), 0);
    }

    #[test]
    fn slo_probe_serializes() {
        let json = serde_json::to_string(&sound_slo()).expect("serialize");
        assert!(json.contains("enforce"), "{json}");
    }
}
