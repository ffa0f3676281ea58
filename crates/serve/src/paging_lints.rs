//! Page geometry (`LMA280`), judged by `derive_plan` on the plan it
//! builds. Only the planning context is free: the page size is the
//! engine's `KV_PAGE_TOKENS`, a page's bytes are the backend's lease for
//! that many tokens, and a context that tiles sizes a pool of at least
//! one envelope — what the tests below named after those conditions
//! assert.

mod tests {
    use crate::admission::{derive_plan, ServeConfig};
    use crate::backend::{AnalyticBackend, EngineBackend, ServeBackend};
    use lm_analyze::LintCode;
    use lm_engine::KV_PAGE_TOKENS;

    /// Every plan the planner derives for OPT-30B and the real tiny
    /// engine over pool sizes × contexts, tiling or not.
    fn each_plan(check: impl Fn(&dyn ServeBackend, &ServeConfig)) {
        let backends: [Box<dyn ServeBackend>; 2] = [
            Box::new(AnalyticBackend::opt_30b()),
            Box::new(EngineBackend::tiny_test(7).unwrap()),
        ];
        for b in &backends {
            for max_slots in [0, 1, 3, 8] {
                for slot_context in [0, 8, 16, 100, 368, 512] {
                    let cfg = ServeConfig {
                        max_slots,
                        slot_context,
                        ..ServeConfig::default()
                    };
                    check(b.as_ref(), &cfg);
                }
            }
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let b = AnalyticBackend::opt_30b();
        for slot_context in [0, 368] {
            let cfg = ServeConfig {
                slot_context,
                ..ServeConfig::default()
            };
            let (_, r) = derive_plan(&b, &cfg);
            assert!(r.is_clean(), "{r}");
            assert_eq!(r.warning_count(), 0, "{r}");
        }
    }

    #[test]
    fn zero_page_tokens_caught() {
        each_plan(|b, cfg| {
            assert_eq!(derive_plan(b, cfg).0.page_tokens, KV_PAGE_TOKENS as u64);
        });
    }

    #[test]
    fn inconsistent_page_bytes_caught() {
        each_plan(|b, cfg| {
            let plan = derive_plan(b, cfg).0;
            assert_eq!(plan.page_bytes, plan.page_tokens * b.kv_bytes_at(1) as u64);
        });
    }

    #[test]
    fn empty_pool_caught() {
        each_plan(|b, cfg| {
            let (plan, r) = derive_plan(b, cfg);
            let at = format!(
                "{} x{} @ {}",
                b.model().name,
                cfg.max_slots,
                cfg.slot_context
            );
            if r.is_clean() {
                assert!(plan.pages_total >= plan.pages_per_slot.max(1), "{at}");
            } else {
                // The one refusal: a context that does not tile.
                assert!(r.has(LintCode::Lma280PageGeometryInvalid), "{at}: {r}");
                assert_ne!(plan.slot_context % KV_PAGE_TOKENS, 0, "{at}");
            }
        });
    }
}
