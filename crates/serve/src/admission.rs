//! The admission controller: turn a [`ServeConfig`] into a checked
//! [`ServePlan`] by consulting the analytic performance model and the KV
//! pool headroom.
//!
//! Slot count is chosen as the throughput argmax of the cost model:
//! because each decode step pays one shared layer fetch plus per-slot
//! terms, modelled tokens/s (`k / step(k)`) is non-decreasing in `k`, so
//! the argmax is the largest `k` the KV pool's pages admit at the
//! expected per-sequence residency. The plan is judged in
//! [`crate::preflight`] before any request is served — an infeasible
//! plan is a typed error carrying the diagnostic report, the same
//! contract as the engine's strict pre-flight.

use crate::backend::ServeBackend;
use crate::preflight::plan_report;
use crate::slo::{DegradeLadder, SloPolicy};
use lm_analyze::Report;
use lm_engine::EngineError;
use lm_fault::{FaultInjector, RetryPolicy};
use lm_parallelism::{analyze, attention_block_graph};
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Operator-facing serving knobs.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worst-case envelopes the derived KV pool is sized for
    /// (`max_slots` sequences at the full planning context). It is a
    /// memory budget, not a concurrency ceiling: the slot count comes
    /// from page residency.
    pub max_slots: usize,
    /// KV pool capacity in bytes; `0` derives `max_slots` worst-case
    /// envelopes.
    pub kv_pool_bytes: usize,
    /// Worst-case per-slot context length used to size the pool and the
    /// plan; `0` derives a quarter of the model's context window (the
    /// traffic synthesizer's envelope).
    pub slot_context: usize,
    /// Head groups of the per-sequence attention graph (the Kahn-width
    /// bound input).
    pub head_groups: usize,
    /// Tokens per KV page (DESIGN.md §9.3); `0` derives the largest
    /// divisor of the planning context not exceeding 16, so pages
    /// always tile the KV block exactly (`LMA280`).
    pub page_tokens: usize,
    /// Retry budget for admissions that hit transient pool pressure.
    pub retry: RetryPolicy,
    /// Fault plan attached to the serve KV pool.
    pub fault: FaultInjector,
    /// Span/metrics recorder (TTFT, queue depth, slot occupancy, ...).
    pub tracer: Tracer,
    /// Optional TTFT objective; `None` keeps the pre-SLO behaviour
    /// (no prediction, no shedding, no preemption).
    pub slo: Option<SloPolicy>,
    /// Fallback ladder the scheduler climbs when the SLO monitor calls
    /// for degradation; `None` disables that actuator.
    pub ladder: Option<Arc<dyn DegradeLadder>>,
    /// Flight recorder teed into scheduler decisions and injected
    /// faults; frozen into a post-mortem dump on the first observed SLO
    /// breach (DESIGN.md §8). Disabled by default.
    pub flight: lm_trace::FlightRecorder,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_slots: 8,
            kv_pool_bytes: 0,
            slot_context: 0,
            head_groups: 7,
            page_tokens: 0,
            retry: RetryPolicy::none(),
            fault: FaultInjector::disabled(),
            tracer: Tracer::disabled(),
            slo: None,
            ladder: None,
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
    /// Kahn width (max concurrency) of the `slots`-sequence block graph.
    pub kahn_width: u64,
    /// Modelled seconds per decode step with every slot at the planning
    /// context.
    pub est_step_seconds: f64,
    /// Modelled steady-state throughput, tokens/second.
    pub est_tokens_per_s: f64,
    /// Tokens per KV page (tiles `slot_context` exactly).
    pub page_tokens: u64,
    /// Bytes one page leases (`page_tokens · kv_bytes_at(1)`).
    pub page_bytes: u64,
    /// Pages the pool holds in total (`kv_pool_bytes / page_bytes`).
    pub pages_total: u64,
    /// Pages one worst-case slot maps (`slot_context / page_tokens`).
    pub pages_per_slot: u64,
}

/// Largest page size not exceeding 16 tokens that tiles `context`
/// exactly. 16 matches FlexGen's block granularity at the default
/// contexts (512 → 16, 128 → 16) and degrades to smaller divisors —
/// ultimately 1, which divides everything — for odd contexts.
fn derive_page_tokens(context: usize) -> usize {
    (1..=context.min(16))
        .rev()
        .find(|d| context.is_multiple_of(*d))
        .unwrap_or(1)
}

/// Serving-layer failures.
#[derive(Debug)]
pub enum ServeError {
    /// The run failed its pre-flight ([`crate::preflight`]); the report
    /// names each violation with stable codes.
    Plan(Report),
    /// The backend failed (engine construction, materialization).
    Engine(EngineError),
    /// A paged-KV sequence broke the admit/append protocol mid-decode
    /// (reserve exhausted, append past admitted capacity). Admission
    /// reservations make this unreachable; surfacing it as an error
    /// keeps the scheduler panic-free if the arithmetic ever regresses.
    KvProtocol(lm_kvpool::KvProtocolError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Plan(report) => {
                write!(f, "serve plan rejected by pre-flight analysis:\n{report}")
            }
            ServeError::Engine(e) => write!(f, "backend error: {e}"),
            ServeError::KvProtocol(e) => write!(f, "paged-KV protocol violation: {e}"),
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

/// Derive the slot plan for `backend` under `cfg` and lint it
/// (`LMA25x` + `LMA28x`), without gating on the verdict. This is the
/// planner's full arithmetic; [`preflight`](crate::preflight::preflight)
/// is the gate serving runs behind.
pub fn derive_plan(backend: &dyn ServeBackend, cfg: &ServeConfig) -> (ServePlan, Report) {
    let model = backend.model();
    let context = if cfg.slot_context > 0 {
        cfg.slot_context
    } else {
        ((model.max_seq_len / 4) as usize).max(2)
    };
    let per_slot = backend.kv_bytes_at(context).max(1);
    let pool_bytes = if cfg.kv_pool_bytes > 0 {
        cfg.kv_pool_bytes
    } else {
        cfg.max_slots.max(1) * per_slot
    };
    let page_tokens = if cfg.page_tokens > 0 {
        cfg.page_tokens
    } else {
        derive_page_tokens(context)
    };
    let page_bytes = page_tokens * backend.kv_bytes_at(1).max(1);
    let pages_per_slot = context.div_ceil(page_tokens.max(1));
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
    let graph = attention_block_graph(
        1,
        slots as u64,
        context as u64,
        model.hidden,
        cfg.head_groups.max(1),
    );
    let kahn_width = analyze(&graph).map(|a| a.max_concurrency()).unwrap_or(0) as u64;
    let est_step_seconds = backend.decode_step_seconds(&vec![context as u64; slots]);
    let plan = ServePlan {
        slots,
        slot_context: context,
        kv_bytes_per_slot: per_slot as u64,
        kv_pool_bytes: pool_bytes as u64,
        kahn_width,
        est_step_seconds,
        est_tokens_per_s: if est_step_seconds > 0.0 {
            slots as f64 / est_step_seconds
        } else {
            0.0
        },
        page_tokens: page_tokens as u64,
        page_bytes: page_bytes as u64,
        pages_total: pages_total as u64,
        pages_per_slot: pages_per_slot as u64,
    };
    let report = plan_report(&plan);
    (plan, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::preflight::{paging_report, preflight, serve_report};
    use lm_analyze::LintCode;

    #[test]
    fn default_plan_is_clean_and_model_guided() {
        let b = AnalyticBackend::opt_30b();
        // The default pool of 8 worst-case envelopes admits 16
        // statistical slots at the expected half-envelope residency.
        let plan = preflight(&b, &ServeConfig::default(), None).unwrap();
        assert_eq!(plan.slots, 16);
        assert!(plan.est_step_seconds > 0.0);
        assert!(plan.est_tokens_per_s > 0.0);
        assert!(plan.kahn_width >= plan.slots as u64);
        assert!(serve_report(&plan).is_clean());
    }

    #[test]
    fn pool_bound_caps_slots_below_ceiling() {
        let b = AnalyticBackend::opt_30b();
        let per_slot = {
            let p = preflight(&b, &ServeConfig::default(), None).unwrap();
            p.kv_bytes_per_slot as usize
        };
        // A 3.5-envelope pool is 112 pages; over an expected residency
        // of 16 pages per sequence that admits 7.
        let cfg = ServeConfig {
            kv_pool_bytes: 3 * per_slot + per_slot / 2,
            ..ServeConfig::default()
        };
        let plan = preflight(&b, &cfg, None).unwrap();
        assert_eq!(plan.slots, 7, "page residency outpacks worst-case envelopes");
    }

    #[test]
    fn pool_too_small_for_one_slot_is_rejected_with_lma250() {
        let b = AnalyticBackend::opt_30b();
        let cfg = ServeConfig {
            kv_pool_bytes: 1024, // far below one lease
            ..ServeConfig::default()
        };
        match preflight(&b, &cfg, None) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma250SlotsExceedPool), "{report}")
            }
            other => panic!("expected plan rejection, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn default_plan_page_geometry_tiles_the_block() {
        let b = AnalyticBackend::opt_30b();
        let plan = preflight(&b, &ServeConfig::default(), None).unwrap();
        assert_eq!(plan.page_tokens, 16, "512-token context derives 16-token pages");
        assert_eq!(plan.slot_context as u64 % plan.page_tokens, 0);
        assert_eq!(
            plan.page_bytes * plan.pages_per_slot,
            plan.kv_bytes_per_slot,
            "pages tile the worst-case envelope exactly"
        );
        // The plan over-subscribes slots against worst-case envelopes
        // (that is the point of paging); what it must guarantee is the
        // *expected* residency — half the per-slot envelope per slot —
        // with scheduler backpressure absorbing the tail.
        assert!(
            plan.pages_total >= plan.pages_per_slot.div_ceil(2) * plan.slots as u64,
            "paged pool holds the expected residency: {} vs {}",
            plan.pages_total,
            plan.pages_per_slot.div_ceil(2) * plan.slots as u64
        );
        assert!(paging_report(&plan).is_clean());
    }

    #[test]
    fn odd_context_derives_a_dividing_page_size() {
        assert_eq!(derive_page_tokens(512), 16);
        assert_eq!(derive_page_tokens(128), 16);
        assert_eq!(derive_page_tokens(100), 10);
        assert_eq!(derive_page_tokens(7), 7);
        assert_eq!(derive_page_tokens(13), 13);
        assert_eq!(derive_page_tokens(17), 1, "primes above 16 fall back to 1");
    }

    #[test]
    fn explicit_non_dividing_page_size_rejected_with_lma280() {
        let b = AnalyticBackend::opt_30b();
        let cfg = ServeConfig {
            page_tokens: 11, // 512 % 11 != 0
            ..ServeConfig::default()
        };
        match preflight(&b, &cfg, None) {
            Err(ServeError::Plan(report)) => {
                assert!(report.has(LintCode::Lma280PageGeometryInvalid), "{report}")
            }
            other => panic!("expected plan rejection, got ok={}", other.is_ok()),
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
