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
//!   (`repro analyze`, `repro obs`, `lm-verify`'s sweep).
//!
//! `LMA28x` judges page geometry only: a leak at the end of a run is
//! caught by the lifecycle check ([`conform`](crate::conform)'s
//! `NotQuiescent`) and the pool's own `accounting_balanced`, not by a
//! lint.
//!
//! `LMA27x` is deliberately *not* part of the gate: the scheduler
//! simulator and the scheduler's own tests enforce an SLO with no tracer
//! attached and must keep running, so observability wiring is reported
//! (`repro obs`), never refused.

use crate::admission::{derive_plan, ServeConfig, ServeError, ServePlan};
use crate::backend::ServeBackend;
use crate::session::AsyncConfig;
use crate::slo::SloPolicy;
use lm_analyze::{
    lint_async, lint_obs, lint_paging, lint_serve, lint_slo, AsyncProbe, ObsProbe, PagingProbe,
    Report, ServeProbe, SloProbe,
};

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
/// order — the async session's channel and clock first, then the plan,
/// then the SLO policy, which judges an async run's objective exactly as
/// it does a virtual run's. `lm-verify` classifies lattice points by this
/// verdict and still needs the plan of a configuration the lints refuse.
pub fn preflight_reports(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    acfg: Option<&AsyncConfig>,
) -> (ServePlan, Vec<Report>) {
    let (plan, plan_report) = derive_plan(backend, cfg);
    let mut reports = Vec::new();
    if let Some(acfg) = acfg {
        reports.push(async_report(acfg));
    }
    reports.push(plan_report);
    if let Some(slo) = cfg.slo.as_ref() {
        reports.push(slo_report(&plan, backend, slo));
    }
    (plan, reports)
}

/// The physical TTFT floor of a plan: one worst-case-padded group
/// prefill plus one full-occupancy decode step — the fastest any
/// admitted request can reach its first token. `LMA260` judges an
/// objective against it.
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

/// `LMA25x`: slots against the pool. Per slot the probe carries the
/// *planned page residency* of one sequence (half the envelope, the
/// statistical bound admission banks on), because that — not the worst
/// case — is what `slots` of them must fit in the pool.
pub fn serve_report(plan: &ServePlan) -> Report {
    lint_serve(&ServeProbe {
        slots: plan.slots as u64,
        kv_bytes_per_slot: plan.pages_per_slot.div_ceil(2).max(1) * plan.page_bytes,
        kv_pool_bytes: plan.kv_pool_bytes,
    })
}

/// `LMA28x`: page geometry.
pub fn paging_report(plan: &ServePlan) -> Report {
    lint_paging(&PagingProbe {
        page_tokens: plan.page_tokens,
        page_bytes: plan.page_bytes,
        bytes_per_token: plan.page_bytes.checked_div(plan.page_tokens).unwrap_or(0),
        kv_block_tokens: plan.slot_context as u64,
        pages_total: plan.pages_total,
    })
}

/// `LMA26x`: an SLO policy against the plan's TTFT floor and slots.
pub fn slo_report(plan: &ServePlan, backend: &dyn ServeBackend, slo: &SloPolicy) -> Report {
    lint_slo(&SloProbe {
        ttft_p99_slo_s: slo.ttft_p99_s,
        floor_ttft_s: ttft_floor_s(plan, backend),
        slots: plan.slots as u64,
        enforce: slo.enforce,
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

/// `LMA30x`: the channel and clock knobs of `acfg`.
pub fn async_report(acfg: &AsyncConfig) -> Report {
    lint_async(&AsyncProbe {
        channel_capacity: acfg.channel_capacity as u64,
        time_scale: acfg.time_scale,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use lm_analyze::LintCode;

    /// One seeded defect per gated family, the SLO one on both clocks:
    /// `preflight` refuses it with exactly the report that family gives
    /// for the derived plan — what the three separate gate sites used to
    /// return.
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
                    max_slots: 1,
                    slot_context: 8, // half a page: the pool holds none
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma280PageGeometryInvalid,
                ServeConfig {
                    slot_context: 100, // 100 % 16 != 0
                    ..ServeConfig::default()
                },
                None,
            ),
            (Lma260SloBelowFloor, below_floor(), None),
            // An async run's SLO is judged like a virtual run's.
            (Lma260SloBelowFloor, below_floor(), Some(&acfg)),
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
                (Lma260SloBelowFloor, _, Some(slo)) => slo_report(&plan, &b, slo),
                (_, Some(acfg), _) => async_report(acfg),
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

    /// The registry guard: every kept serve-side code (`LMA25x`–`LMA28x`
    /// and `LMA30x`) fires from a shipped configuration through
    /// [`preflight_reports`] or [`obs_report`], with no hand-built probe.
    /// A new serve-side code with no row here fails the final assertion;
    /// one that no configuration can fire has no row to give, and is
    /// retired instead.
    #[test]
    fn every_serve_side_code_fires_from_a_shipped_config() {
        use LintCode::*;
        let b = AnalyticBackend::opt_30b();
        let enforcing = |ttft_p99_s| Some(SloPolicy::enforcing(ttft_p99_s));
        let storm = lm_fault::FaultInjector::new(lm_fault::FaultConfig::storm(
            7,
            lm_fault::StormProfile::Default,
        ));
        let rows: [(LintCode, ServeConfig, Option<AsyncConfig>); 8] = [
            (
                Lma250SlotsExceedPool,
                ServeConfig {
                    max_slots: 1,
                    slot_context: 8, // half a page: the pool holds none
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma260SloBelowFloor,
                ServeConfig {
                    slo: enforcing(1e-3),
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma262PreemptSingleSlot,
                ServeConfig {
                    max_slots: 1,
                    slot_context: 16, // one page: one slot
                    slo: enforcing(1e6),
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma270SloWithoutTtftHistogram,
                ServeConfig {
                    slo: enforcing(1e6),
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma271FlightRecorderZeroCapacity,
                ServeConfig {
                    flight: lm_trace::FlightRecorder::new(0),
                    fault: storm,
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma280PageGeometryInvalid,
                ServeConfig {
                    slot_context: 100, // 100 % 16 != 0
                    ..ServeConfig::default()
                },
                None,
            ),
            (
                Lma300AsyncZeroChannelCapacity,
                ServeConfig::default(),
                Some(AsyncConfig {
                    channel_capacity: 0,
                    ..AsyncConfig::default()
                }),
            ),
            (
                Lma302AsyncBadTimeScale,
                ServeConfig::default(),
                Some(AsyncConfig {
                    time_scale: 0.0,
                    ..AsyncConfig::default()
                }),
            ),
        ];
        for (code, cfg, acfg) in &rows {
            let (_, mut reports) = preflight_reports(&b, cfg, acfg.as_ref());
            reports.push(obs_report(cfg));
            assert!(
                reports.iter().any(|r| r.has(*code)),
                "{} does not fire from its shipped config: {reports:?}",
                code.as_str()
            );
        }
        let serve_side = |code: &LintCode| {
            matches!(code.as_str()[3..].parse::<u32>(), Ok(250..=289 | 300..=309))
        };
        let kept: Vec<LintCode> = LintCode::ALL.into_iter().filter(serve_side).collect();
        let fired: Vec<LintCode> = rows.iter().map(|row| row.0).collect();
        assert_eq!(fired, kept, "one shipped config per kept serve-side code");
    }
}
