//! The serve pre-flight: the one gate every serving run passes.
//! [`ServeSession`](crate::ServeSession) calls [`preflight`] once per run,
//! before any request is served or thread spawned, and hands the plan it
//! returns to the scheduler. Each check it gates on lives beside the
//! value it judges:
//!
//! - `LMA280`, the planning context against the page size, in
//!   [`derive_plan`], which judges the plan it builds;
//! - `LMA26x`, an SLO objective against the plan's TTFT floor, in
//!   [`SloPolicy::check`];
//! - `LMA30x`, the async front end's channel and clock, in
//!   [`AsyncConfig::check`].
//!
//! A leak at the end of a run is caught by the lifecycle check
//! ([`conform`](crate::conform)'s `NotQuiescent`) and the pool's own
//! `accounting_balanced`, not by a lint. `LMA27x`
//! ([`obs_report`](crate::obs::obs_report)) is deliberately *not* part of
//! the gate: the scheduler simulator and the scheduler's own tests
//! enforce an SLO with no tracer attached and must keep running, so
//! observability wiring is reported (`repro obs`), never refused.

use crate::admission::{derive_plan, ServeConfig, ServeError, ServePlan};
use crate::backend::ServeBackend;
use crate::session::AsyncConfig;
use crate::slo::SloPolicy;
use lm_analyze::Report;

/// Derive the plan for `backend` under `cfg` once and judge it by every
/// check that gates a run: the plan's own always, the SLO policy's when
/// `cfg.slo` is set, the async front end's when the run is asynchronous.
/// The first report with an `Error` finding rejects the run.
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
/// verdict and still needs the plan of a configuration the gate refuses.
pub fn preflight_reports(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    acfg: Option<&AsyncConfig>,
) -> (ServePlan, Vec<Report>) {
    let (plan, plan_report) = derive_plan(backend, cfg);
    let mut reports = Vec::new();
    if let Some(acfg) = acfg {
        reports.push(acfg.check());
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

/// `LMA26x`: `slo` against the plan's TTFT floor and slots.
pub fn slo_report(plan: &ServePlan, backend: &dyn ServeBackend, slo: &SloPolicy) -> Report {
    slo.check(ttft_floor_s(plan, backend), plan.slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::obs::obs_report;
    use lm_analyze::LintCode;

    /// One seeded defect per gated check, the SLO one on both clocks:
    /// `preflight` refuses it with exactly the report that check gives
    /// for the derived plan.
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
        let rows: [(LintCode, ServeConfig, Option<&AsyncConfig>); 4] = [
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
                (Lma280PageGeometryInvalid, ..) => plan_report,
                (Lma260SloBelowFloor, _, Some(slo)) => slo_report(&plan, &b, slo),
                (_, Some(acfg), _) => acfg.check(),
                _ => unreachable!("row {} names no check", code.as_str()),
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

    /// The registry guard: every kept serve-side code (`LMA26x`–`LMA28x`
    /// and `LMA30x`) fires from a shipped configuration through
    /// [`preflight_reports`] or [`obs_report`]. A new serve-side code with
    /// no row here fails the final assertion; one that no configuration
    /// can fire has no row to give, and is retired instead.
    #[test]
    fn every_serve_side_code_fires_from_a_shipped_config() {
        use LintCode::*;
        let b = AnalyticBackend::opt_30b();
        let enforcing = |ttft_p99_s| Some(SloPolicy::enforcing(ttft_p99_s));
        let storm = lm_fault::FaultInjector::new(lm_fault::FaultConfig::storm(
            7,
            lm_fault::StormProfile::Default,
        ));
        let rows: [(LintCode, ServeConfig, Option<AsyncConfig>); 7] = [
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
