//! The admission controller: turn a [`ServeConfig`] into a checked
//! [`ServePlan`] by consulting the analytic performance model and the KV
//! pool headroom.
//!
//! Slot count is chosen as the throughput argmax of the cost model:
//! because each decode step pays one shared layer fetch plus per-slot
//! terms, modelled tokens/s (`k / step(k)`) is non-decreasing in `k`, so
//! the argmax is the largest `k` the KV pool's pages admit at the
//! expected per-sequence residency. The planner judges its own plan
//! (`LMA280`, a context that is not a whole number of pages), and
//! [`crate::preflight`] gates on that verdict before any request is
//! served — an infeasible plan is a typed error carrying the diagnostic
//! report, the same contract as the engine's strict pre-flight.

use crate::backend::ServeBackend;
use crate::slo::{DegradeRung, SloPolicy};
use lm_analyze::{Diagnostic, LintCode, Report};
use lm_engine::{EngineError, KV_PAGE_TOKENS};
use lm_fault::{FaultInjector, RetryPolicy};
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};

/// Operator-facing serving knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worst-case envelopes the KV pool is sized for (`max_slots`
    /// sequences at the full planning context). It is a memory budget,
    /// not a concurrency ceiling: the slot count comes from page
    /// residency.
    pub max_slots: usize,
    /// Per-slot context length used to size the pool and the plan; it
    /// must be a whole number of [`KV_PAGE_TOKENS`] pages (`LMA280`).
    /// `0` derives a quarter of the model's context window: a
    /// statistical envelope, not a cap — a request may run past it, and
    /// admission prices each request's own pages exactly.
    pub slot_context: usize,
    /// Retry budget for admissions that hit transient pool pressure.
    pub retry: RetryPolicy,
    /// Fault plan attached to the serve KV pool.
    pub fault: FaultInjector,
    /// Span/metrics recorder (TTFT, queue depth, slot occupancy, ...).
    pub tracer: Tracer,
    /// Optional TTFT objective; `None` keeps the pre-SLO behaviour
    /// (no prediction, no shedding, no preemption).
    pub slo: Option<SloPolicy>,
    /// Fallback rungs the scheduler climbs, mildest first, when the SLO
    /// monitor calls for degradation; empty disables that actuator.
    pub ladder: Vec<DegradeRung>,
    /// Flight recorder teed into scheduler decisions and injected
    /// faults; frozen into a post-mortem dump on the first observed SLO
    /// breach (DESIGN.md §8). Disabled by default.
    pub flight: lm_trace::FlightRecorder,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_slots: 8,
            slot_context: 0,
            retry: RetryPolicy::none(),
            fault: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            slo: None,
            ladder: Vec::new(),
            flight: lm_trace::FlightRecorder::disabled(),
        }
    }
}

/// The admission controller's output: how many sequences serve
/// concurrently and what that claims.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServePlan {
    /// Concurrent sequences (each holds one page table).
    pub slots: usize,
    /// Planning context length behind the pool sizing.
    pub slot_context: usize,
    /// Worst-case KV envelope of one sequence, bytes.
    pub kv_bytes_per_slot: u64,
    /// Serve KV pool capacity, bytes.
    pub kv_pool_bytes: u64,
    /// Modelled seconds per decode step with every slot at the planning
    /// context.
    pub est_step_seconds: f64,
    /// Modelled steady-state throughput, tokens/second.
    pub est_tokens_per_s: f64,
    /// Tokens per KV page: [`KV_PAGE_TOKENS`], so a pool page covers the
    /// positions of one engine KV page.
    pub page_tokens: u64,
    /// Bytes one page leases (`page_tokens · kv_bytes_at(1)`).
    pub page_bytes: u64,
    /// Pages the pool holds in total (`kv_pool_bytes / page_bytes`).
    pub pages_total: u64,
    /// Pages one worst-case slot maps (`slot_context / page_tokens`).
    pub pages_per_slot: u64,
}

/// Serving-layer failures.
#[derive(Debug)]
pub enum ServeError {
    /// The run failed its pre-flight ([`crate::preflight`]); the report
    /// names each violation with stable codes.
    Plan(Report),
    /// The backend failed (engine construction, a decode step).
    Engine(EngineError),
    /// A paged-KV sequence broke the admit/append protocol mid-decode
    /// (reserve exhausted, append past admitted capacity). Admission
    /// reservations make this unreachable; surfacing it as an error
    /// keeps the scheduler panic-free if the arithmetic ever regresses.
    KvProtocol(lm_kvpool::KvProtocolError),
    /// Two submitted requests share this id. Streams, terminal records
    /// and the lifecycle log are keyed by id, so a run needs them
    /// unique.
    DuplicateRequestId(u64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(report) => {
                write!(f, "serve plan rejected by pre-flight analysis:\n{report}")
            }
            ServeError::Engine(e) => write!(f, "backend error: {e}"),
            ServeError::KvProtocol(e) => write!(f, "paged-KV protocol violation: {e}"),
            ServeError::DuplicateRequestId(id) => write!(f, "request id {id} submitted twice"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<lm_kvpool::KvProtocolError> for ServeError {
    fn from(e: lm_kvpool::KvProtocolError) -> Self {
        ServeError::KvProtocol(e)
    }
}

/// Derive the slot plan for `backend` under `cfg` and judge it
/// (`LMA280`), without gating on the verdict. This is the planner's full
/// arithmetic; [`preflight`](crate::preflight::preflight) is the gate
/// serving runs behind.
///
/// A context that tiles cannot oversubscribe the pool: `slots` is
/// `pages_total / ⌈pages_per_slot / 2⌉`, so the plan's half-envelope
/// residencies always fit (why `LMA250` is retired).
pub fn derive_plan(backend: &dyn ServeBackend, cfg: &ServeConfig) -> (ServePlan, Report) {
    let model = backend.model();
    let context = if cfg.slot_context > 0 {
        cfg.slot_context
    } else {
        ((model.max_seq_len / 4) as usize).max(2)
    };
    let per_slot = backend.kv_bytes_at(context).max(1);
    let pool_bytes = cfg.max_slots.max(1) * per_slot;
    let page_bytes = KV_PAGE_TOKENS * backend.kv_bytes_at(1).max(1);
    let pages_per_slot = context.div_ceil(KV_PAGE_TOKENS);
    // Throughput argmax under the pool: the shared weight stream makes
    // k/step(k) non-decreasing, so take the largest feasible k (and let
    // the lint reject a pool too small for even one).
    //
    // Feasibility is counted in *pages*: a sequence's residency tracks
    // its actual context — admission reserves `pages_for(prompt + gen)`,
    // and the traffic envelope fills the planning context about halfway
    // on average — so the pool multiplexes roughly twice the sequences
    // worst-case envelopes would. The tail where every resident sequence
    // simultaneously nears the envelope is absorbed by admission
    // backpressure (a transiently full page pool requeues the candidate;
    // it never rejects it), which is what makes the statistical bound
    // safe to plan on.
    let pages_total = pool_bytes / page_bytes.max(1);
    let slots = (pages_total.max(1) / pages_per_slot.div_ceil(2).max(1)).max(1);
    let est_step_seconds = backend.decode_step_seconds(&vec![context as u64; slots]);
    let plan = ServePlan {
        slots,
        slot_context: context,
        kv_bytes_per_slot: per_slot as u64,
        kv_pool_bytes: pool_bytes as u64,
        est_step_seconds,
        est_tokens_per_s: if est_step_seconds > 0.0 {
            slots as f64 / est_step_seconds
        } else {
            0.0
        },
        page_tokens: KV_PAGE_TOKENS as u64,
        page_bytes: page_bytes as u64,
        pages_total: pages_total as u64,
        pages_per_slot: pages_per_slot as u64,
    };
    // LMA280: a context that is not a whole number of pages leaves every
    // slot's last page part padding. A context of 0 asks the planner to
    // derive one, so it is no neighbour to suggest.
    let mut diagnostics = Vec::new();
    if !context.is_multiple_of(KV_PAGE_TOKENS) {
        let below = context - context % KV_PAGE_TOKENS;
        let above = below + KV_PAGE_TOKENS;
        let nearest = if below == 0 {
            format!("the nearest whole-page context is {above} tokens")
        } else {
            format!("the nearest whole-page contexts are {below} and {above} tokens")
        };
        diagnostics.push(Diagnostic::error(
            LintCode::Lma280PageGeometryInvalid,
            "paging.geometry",
            format!(
                "a {context}-token planning context is not a whole number of \
                 {KV_PAGE_TOKENS}-token pages; {nearest}"
            ),
        ));
    }
    (plan, Report::new(diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnalyticBackend, EngineBackend};
    use crate::preflight::preflight;
    use lm_engine::{EngineOptions, MemPool};
    use lm_kvpool::{PageConfig, PagedKvPool};
    use lm_models::{DType, ModelConfig};

    /// `m` on the analytic backend at the A100 preset and FlexGen's
    /// default policy.
    fn analytic(m: ModelConfig) -> Box<dyn ServeBackend> {
        Box::new(AnalyticBackend::new(
            lm_hardware::presets::single_gpu_a100(),
            m,
            lm_sim::Policy::flexgen_default(),
        ))
    }

    #[test]
    fn default_plan_is_clean_and_model_guided() {
        let b = AnalyticBackend::opt_30b();
        // The default pool of 8 worst-case envelopes admits 16
        // statistical slots at the expected half-envelope residency.
        let plan = preflight(&b, &ServeConfig::default(), None).unwrap();
        assert_eq!(plan.slots, 16);
        assert!(plan.est_step_seconds > 0.0);
        assert!(plan.est_tokens_per_s > 0.0);
        assert!(plan.slots as u64 * plan.pages_per_slot.div_ceil(2) <= plan.pages_total);
    }

    #[test]
    fn pool_bound_caps_slots_below_ceiling() {
        let b = AnalyticBackend::opt_30b();
        // A 3-envelope pool is 96 pages; over an expected residency of
        // 16 pages per sequence that admits 6.
        let cfg = ServeConfig {
            max_slots: 3,
            ..ServeConfig::default()
        };
        let plan = preflight(&b, &cfg, None).unwrap();
        assert_eq!(
            plan.slots, 6,
            "page residency outpacks worst-case envelopes"
        );
    }

    /// A pool too small for one slot needs a context of less than one
    /// page, which is not a whole number of pages: `LMA280` refuses it
    /// (`LMA250` is retired).
    #[test]
    fn pool_too_small_for_one_slot_is_rejected_with_lma250() {
        let b = AnalyticBackend::opt_30b();
        // One 8-token envelope is half a page: the pool holds none.
        let cfg = ServeConfig {
            max_slots: 1,
            slot_context: 8,
            ..ServeConfig::default()
        };
        assert_eq!(derive_plan(&b, &cfg).0.pages_total, 0);
        match preflight(&b, &cfg, None) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma280PageGeometryInvalid), "{report}");
                assert_eq!(report.error_count(), 1, "{report}");
            }
            other => panic!("expected plan rejection, got ok={}", other.is_ok()),
        }
    }

    /// A serve page is an engine KV page on every shipped model, at its
    /// derived context and at the served workloads' 368, and on the real
    /// engine backend those workloads run.
    #[test]
    fn default_plan_page_geometry_tiles_the_block() {
        let mut cases: Vec<(Box<dyn ServeBackend>, usize)> = lm_models::presets::all_presets()
            .into_iter()
            .flat_map(|m| [(analytic(m.clone()), 0), (analytic(m), 368)])
            .collect();
        cases.push((Box::new(EngineBackend::tiny_test(7).unwrap()), 368));
        for kv in [DType::Int8, DType::Int4] {
            let options = EngineOptions::default().with_dtypes(DType::F32, kv);
            let tiny = lm_models::presets::tiny_test();
            cases.push((
                Box::new(EngineBackend::new(&tiny, 7, options).unwrap()),
                368,
            ));
        }
        for (b, slot_context) in &cases {
            let cfg = ServeConfig {
                slot_context: *slot_context,
                ..ServeConfig::default()
            };
            let plan = preflight(b.as_ref(), &cfg, None).unwrap();
            let at = format!("{} @ {}", b.model().name, plan.slot_context);
            assert_eq!(plan.page_tokens, KV_PAGE_TOKENS as u64, "{at}");
            assert_eq!(
                plan.pages_per_slot * plan.page_tokens,
                plan.slot_context as u64,
                "{at}"
            );
            assert_eq!(
                plan.page_bytes * plan.pages_per_slot,
                plan.kv_bytes_per_slot,
                "{at}"
            );
            // A pool built from the plan's geometry maps exactly the
            // pages an engine `KvCache` holding the same positions has.
            let pool = PagedKvPool::new(
                MemPool::new("test.kv", plan.kv_pool_bytes as usize),
                PageConfig {
                    page_tokens: plan.page_tokens as usize,
                    bytes_per_token: (plan.page_bytes / plan.page_tokens) as usize,
                },
            );
            for n in 1..=64usize {
                let known: Vec<u32> = (0..n as u32).collect();
                let pages = pool.admit(&known, 0).unwrap().mapped_pages();
                assert_eq!(pages, n.div_ceil(KV_PAGE_TOKENS), "{at}: {n} tokens");
            }
        }
    }

    #[test]
    fn explicit_non_dividing_page_size_rejected_with_lma280() {
        let b = AnalyticBackend::opt_30b();
        // Below one page the only whole-page neighbour is one page: a
        // context of 0 would ask the planner to derive one instead.
        for (slot_context, nearest) in [
            (100, "contexts are 96 and 112 tokens"),
            (8, "context is 16 tokens"),
        ] {
            let cfg = ServeConfig {
                slot_context,
                ..ServeConfig::default()
            };
            match preflight(&b, &cfg, None) {
                Err(ServeError::Plan(report)) => {
                    assert!(report.has(LintCode::Lma280PageGeometryInvalid), "{report}");
                    assert!(report.to_string().contains(nearest), "{report}");
                }
                other => panic!("expected plan rejection, got ok={}", other.is_ok()),
            }
        }
    }

    /// The planner takes `pages_total / h` slots at the half-envelope
    /// residency `h = ⌈pages_per_slot / 2⌉`, so a plan neither
    /// oversubscribes its pool nor leaves a whole residency of it idle —
    /// why no lint looks for an underused pool.
    #[test]
    fn derived_plans_fill_the_pool_to_within_one_residency() {
        let mut backends: Vec<Box<dyn ServeBackend>> = lm_models::presets::all_presets()
            .into_iter()
            .map(analytic)
            .collect();
        for kv in [DType::F32, DType::Int4] {
            let options = EngineOptions::default().with_dtypes(DType::F32, kv);
            let tiny = lm_models::presets::tiny_test();
            backends.push(Box::new(EngineBackend::new(&tiny, 7, options).unwrap()));
        }
        for b in &backends {
            for max_slots in [1, 2, 3, 8, 16] {
                for slot_context in [0, 16, 32, 48, 128, 368, 1024] {
                    let cfg = ServeConfig {
                        max_slots,
                        slot_context,
                        ..ServeConfig::default()
                    };
                    let (plan, _) = derive_plan(b.as_ref(), &cfg);
                    let h = plan.pages_per_slot.div_ceil(2);
                    let at = format!("{} x{max_slots} @ {}", b.model().name, plan.slot_context);
                    let planned = plan.slots as u64 * h;
                    assert!(planned <= plan.pages_total, "{at}: oversubscribed");
                    assert!(
                        plan.pages_total - planned < h,
                        "{at}: a residency sits idle"
                    );
                }
            }
        }
    }

    #[test]
    fn bigger_blocks_estimate_higher_throughput() {
        let b = AnalyticBackend::opt_30b();
        let one = preflight(
            &b,
            &ServeConfig {
                max_slots: 1,
                ..ServeConfig::default()
            },
            None,
        )
        .unwrap();
        let eight = preflight(&b, &ServeConfig::default(), None).unwrap();
        assert!(
            eight.est_tokens_per_s > one.est_tokens_per_s * 2.0,
            "amortised weights must show up in the estimate: {} vs {}",
            eight.est_tokens_per_s,
            one.est_tokens_per_s
        );
    }
}
