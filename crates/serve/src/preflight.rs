//! The serve pre-flight: the one place a serving configuration meets
//! `lm-analyze`. Every probe is built here and every `lint_*` call on
//! the serve side is made here, so what a run is judged by is read in
//! one file:
//!
//! - [`preflight`] is the run gate — [`ServeSession`](crate::ServeSession)
//!   calls it once per run, before any request is served or thread
//!   spawned, and hands the plan it returns to the scheduler;
//! - the `*_report` functions are the same families one at a time, for
//!   callers that publish a verdict instead of gating on it
//!   (`repro analyze`, `repro obs`, `lm-verify`'s sweep);
//! - [`quiescence_report`] is the live half of `LMA28x`, audited by the
//!   scheduler when a run ends.
//!
//! `LMA27x` is deliberately *not* part of the gate: the scheduler
//! simulator and the scheduler's own tests enforce an SLO with no tracer
//! attached and must keep running, so observability wiring is reported
//! (`repro obs`), never refused.

use crate::admission::{derive_plan, ServeConfig, ServeError, ServePlan};
use crate::backend::ServeBackend;
use crate::session::AsyncConfig;
use crate::slo::{DegradeLadder, SloPolicy};
use lm_analyze::{
    lint_async, lint_obs, lint_paging, lint_serve, lint_slo, AsyncProbe, ObsProbe, PagingProbe,
    Report, ServeProbe, SloProbe,
};
use lm_kvpool::PagedKvPool;
use std::sync::Arc;

/// Derive the plan for `backend` under `cfg` once and judge it by every
/// family that gates a run: `LMA25x` + `LMA28x` always, `LMA26x` when
/// `cfg.slo` is set, `LMA30x` when the run is asynchronous. The first
/// report with an `Error` finding rejects the run.
pub fn preflight(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    acfg: Option<&AsyncConfig>,
) -> Result<ServePlan, ServeError> {
    let (plan, reports) = preflight_reports(backend, cfg, acfg);
    match reports.into_iter().find(|r| !r.is_clean()) {
        Some(report) => Err(ServeError::Plan(report)),
        None => Ok(plan),
    }
}

/// What [`preflight`] judges, ungated: the plan and its reports in gate
/// order — the async session's own knobs first (so a wall-clock SLO
/// below the floor reads as `LMA301`, not `LMA260`), then the plan, then
/// the SLO policy. `lm-verify` classifies lattice points by this verdict
/// and still needs the plan of a configuration the lints refuse.
pub fn preflight_reports(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    acfg: Option<&AsyncConfig>,
) -> (ServePlan, Vec<Report>) {
    let (plan, plan_report) = derive_plan(backend, cfg);
    let mut reports = Vec::new();
    if let Some(acfg) = acfg {
        reports.push(async_report(&plan, backend, cfg, acfg));
    }
    reports.push(plan_report);
    if let Some(slo) = cfg.slo.as_ref() {
        reports.push(slo_report(&plan, backend, slo, cfg.ladder.as_ref()));
    }
    (plan, reports)
}

/// The physical TTFT floor of a plan: one worst-case-padded group
/// prefill plus one full-occupancy decode step — the fastest any
/// admitted request can reach its first token. `LMA260` and `LMA301`
/// both judge an objective against it.
pub fn ttft_floor_s(plan: &ServePlan, backend: &dyn ServeBackend) -> f64 {
    backend.prefill_seconds(plan.slot_context, plan.slots) + plan.est_step_seconds
}

/// `LMA25x` + `LMA28x` over a freshly derived plan: the report
/// [`derive_plan`] returns.
pub(crate) fn plan_report(plan: &ServePlan) -> Report {
    let mut report = serve_report(plan);
    report.extend(paging_report(plan));
    report
}

/// `LMA25x`: slots against the pool and the block graph's Kahn width.
/// Per slot the probe carries the *planned page residency* of one
/// sequence (half the envelope, the statistical bound admission banks
/// on), because that — not the worst case — is what `slots` of them
/// must fit in the pool.
pub fn serve_report(plan: &ServePlan) -> Report {
    lint_serve(&ServeProbe {
        slots: plan.slots as u64,
        kv_bytes_per_slot: plan.pages_per_slot.div_ceil(2).max(1) * plan.page_bytes,
        kv_pool_bytes: plan.kv_pool_bytes,
        block_size: plan.slots as u64,
        kahn_width: plan.kahn_width,
    })
}

/// The static half of `LMA28x`: page geometry, with the live counters at
/// their quiescent values.
pub fn paging_report(plan: &ServePlan) -> Report {
    lint_paging(&paging_probe(plan))
}

/// The live half of `LMA28x`: the same geometry with the pool's counters
/// filled in. With every sequence retired, refcounts and page residency
/// must be back at zero and no write may ever have landed on a shared
/// page.
pub(crate) fn quiescence_report(plan: &ServePlan, pages: &PagedKvPool) -> Report {
    let counters = pages.counters();
    lint_paging(&PagingProbe {
        pages_in_use: counters.pages_in_use,
        page_refcount_sum: counters.refcount_sum,
        seq_mapped_pages: counters.refcount_sum,
        shared_write_violations: pages.stats().shared_write_violations,
        ..paging_probe(plan)
    })
}

fn paging_probe(plan: &ServePlan) -> PagingProbe {
    PagingProbe {
        page_tokens: plan.page_tokens,
        page_bytes: plan.page_bytes,
        bytes_per_token: plan.page_bytes.checked_div(plan.page_tokens).unwrap_or(0),
        kv_block_tokens: plan.slot_context as u64,
        pages_total: plan.pages_total,
        pages_in_use: 0,
        page_refcount_sum: 0,
        seq_mapped_pages: 0,
        shared_write_violations: 0,
    }
}

/// `LMA26x`: an SLO policy against the plan's TTFT floor and its own
/// actuators.
pub fn slo_report(
    plan: &ServePlan,
    backend: &dyn ServeBackend,
    slo: &SloPolicy,
    ladder: Option<&Arc<dyn DegradeLadder>>,
) -> Report {
    // A ladder is finite in practice; cap the census so a buggy
    // implementation cannot hang the pre-flight.
    let degrade_rungs = ladder.map_or(0, |l| {
        (1..=64).take_while(|&i| l.rung(i).is_some()).count() as u64
    });
    lint_slo(&SloProbe {
        ttft_p99_slo_s: slo.ttft_p99_s,
        floor_ttft_s: ttft_floor_s(plan, backend),
        slots: plan.slots as u64,
        enforce: slo.enforce,
        preempt: slo.preempt,
        shed: slo.shed,
        degrade_rungs,
    })
}

/// `LMA27x`: whether an enforced SLO can see its breaches (the tracer
/// carries the `serve.ttft_s` histogram) and whether an armed flight
/// recorder can hold evidence. Reported, not gated (module docs).
pub fn obs_report(cfg: &ServeConfig) -> Report {
    lint_obs(&ObsProbe {
        slo_enforce: cfg.slo.as_ref().is_some_and(|s| s.enforce),
        ttft_histogram_registered: cfg.tracer.is_enabled(),
        flight_enabled: cfg.flight.is_enabled(),
        flight_capacity: cfg.flight.capacity().unwrap_or(0) as u64,
        chaos_faults_armed: cfg.fault.is_enabled(),
    })
}

/// `LMA30x`: the channel and clock knobs of `acfg`, and the SLO of `cfg`
/// (if any) against the same floor `LMA260` uses.
pub fn async_report(
    plan: &ServePlan,
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    acfg: &AsyncConfig,
) -> Report {
    lint_async(&AsyncProbe {
        channel_capacity: acfg.channel_capacity as u64,
        time_scale: acfg.time_scale,
        ttft_p99_slo_s: cfg.slo.as_ref().map(|s| s.ttft_p99_s),
        floor_ttft_s: ttft_floor_s(plan, backend),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use lm_analyze::LintCode;

    /// One seeded defect per gated family: `preflight` refuses it with
    /// exactly the report that family gives for the derived plan — what
    /// the three separate gate sites used to return.
    #[test]
    fn each_gated_family_rejects_with_its_own_report() {
        use LintCode::*;
        let b = AnalyticBackend::opt_30b();
        let acfg = AsyncConfig::default();
        let zero_capacity = AsyncConfig {
            channel_capacity: 0,
            ..AsyncConfig::default()
        };
        let below_floor = || ServeConfig {
            slo: Some(SloPolicy::enforcing(1e-3)),
            ..ServeConfig::default()
        };
        let rows: [(LintCode, ServeConfig, Option<&AsyncConfig>); 5] = [
            (
                Lma250SlotsExceedPool,
                ServeConfig {
                    kv_pool_bytes: 1024, // far below one lease
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma280PageGeometryInvalid,
                ServeConfig {
                    page_tokens: 11, // 512 % 11 != 0
                    ..ServeConfig::default()
                },
                None,
            ),
            (Lma260SloBelowFloor, below_floor(), None),
            (Lma301AsyncSloBelowFloor, below_floor(), Some(&acfg)),
            (
                Lma300AsyncZeroChannelCapacity,
                ServeConfig::default(),
                Some(&zero_capacity),
            ),
        ];
        for (code, cfg, acfg) in rows {
            let (plan, plan_report) = derive_plan(&b, &cfg);
            let expected = match (code, acfg, cfg.slo.as_ref()) {
                (Lma250SlotsExceedPool | Lma280PageGeometryInvalid, ..) => plan_report,
                (Lma260SloBelowFloor, _, Some(slo)) => slo_report(&plan, &b, slo, None),
                (_, Some(acfg), _) => async_report(&plan, &b, &cfg, acfg),
                _ => unreachable!("row {} names no family", code.as_str()),
            };
            match preflight(&b, &cfg, acfg) {
                Err(ServeError::Plan(report)) => {
                    assert!(report.has(code), "{}: {report}", code.as_str());
                    assert_eq!(report.to_json(), expected.to_json(), "{}", code.as_str());
                }
                other => panic!(
                    "{}: expected rejection, ok={}",
                    code.as_str(),
                    other.is_ok()
                ),
            }
        }
    }
}
