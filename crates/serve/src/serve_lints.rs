//! Slots against the pool (`LMA250`, retired: `derive_plan` sizes the
//! slots from the pool) and the SLO policy (`SloPolicy::check`,
//! `LMA26x`), judged on real configurations of the OPT-30B analytic
//! backend.

mod tests {
    use crate::admission::{ServeConfig, ServePlan};
    use crate::backend::AnalyticBackend;
    use crate::preflight::preflight_reports;
    use crate::slo::SloPolicy;
    use lm_analyze::{LintCode, Report};

    /// The plan `cfg` derives on OPT-30B and every report the gate
    /// judges it by, merged.
    fn judged(cfg: &ServeConfig) -> (ServePlan, Report) {
        let (plan, reports) = preflight_reports(&AnalyticBackend::opt_30b(), cfg, None);
        let mut all = Report::default();
        reports.into_iter().for_each(|r| all.extend(r));
        (plan, all)
    }

    /// Planned residencies in pages: `slots` sequences at half the
    /// envelope, the statistical bound admission banks on.
    fn planned_pages(plan: &ServePlan) -> u64 {
        plan.slots as u64 * plan.pages_per_slot.div_ceil(2)
    }

    /// The planner sizes slots from the pool, so no context that tiles
    /// leases more than the pool holds: nothing is left for `LMA250`.
    #[test]
    fn sound_plan_is_clean() {
        for max_slots in [1, 2, 3, 8] {
            for slot_context in [0, 16, 48, 368] {
                let cfg = ServeConfig {
                    max_slots,
                    slot_context,
                    ..ServeConfig::default()
                };
                let (plan, r) = judged(&cfg);
                assert!(r.is_clean(), "{r}");
                assert_eq!(r.warning_count(), 0, "{r}");
                let leased = planned_pages(&plan) * plan.page_bytes;
                assert!(
                    leased <= plan.kv_pool_bytes,
                    "x{max_slots} @ {slot_context}"
                );
            }
        }
    }

    #[test]
    fn tight_fit_is_not_underutilization() {
        // The default pool of 256 pages holds exactly 16 residencies of
        // 16 pages: a plan that uses every byte is clean.
        let (plan, r) = judged(&ServeConfig::default());
        assert_eq!(planned_pages(&plan), plan.pages_total);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
        // Below one page the pool holds none, and the context is refused
        // for not tiling.
        let (plan, r) = judged(&ServeConfig {
            max_slots: 1,
            slot_context: 8,
            ..ServeConfig::default()
        });
        assert_eq!(plan.pages_total, 0);
        assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{r}");
    }

    fn with_slo(slo: SloPolicy) -> ServeConfig {
        ServeConfig {
            slo: Some(slo),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn sound_slo_is_clean() {
        let (_, r) = judged(&with_slo(SloPolicy::enforcing(1e6)));
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn objective_below_floor_caught() {
        let (_, r) = judged(&with_slo(SloPolicy::enforcing(1e-3)));
        assert!(r.has(LintCode::Lma260SloBelowFloor), "{r}");
        assert!(!r.is_clean());
        // Non-finite objectives land in the same bucket.
        let (_, r) = judged(&with_slo(SloPolicy::enforcing(f64::NAN)));
        assert!(r.has(LintCode::Lma260SloBelowFloor), "{r}");
    }

    #[test]
    fn single_slot_preemption_warned_not_fatal() {
        let one_slot = |slo| ServeConfig {
            max_slots: 1,
            slot_context: 16, // one page: one slot
            slo: Some(slo),
            ..ServeConfig::default()
        };
        let (plan, r) = judged(&one_slot(SloPolicy::enforcing(1e6)));
        assert_eq!(plan.slots, 1);
        assert!(r.has(LintCode::Lma262PreemptSingleSlot), "{r}");
        assert!(r.is_clean(), "churn warning must not be fatal: {r}");
        // Observe mode pulls no lever, so one slot is fine.
        let (_, r) = judged(&one_slot(SloPolicy::observe(1e6)));
        assert_eq!(r.warning_count(), 0, "{r}");
    }
}
