//! `LMA27x` — a deployment that enforces an SLO or arms chaos faults is
//! only as good as the evidence it leaves behind; these judge an
//! [`ObsProbe`] of the tracer and flight-recorder wiring. Reported by
//! `repro obs`, not a run gate (`lm-serve`'s `preflight` says why).

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// Observations sampled from one serving deployment's observability
/// configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsProbe {
    /// Whether the SLO policy acts on predicted violations.
    pub slo_enforce: bool,
    /// Whether the metrics registry carries a TTFT histogram (the
    /// `serve.ttft_s` series the breach detector and the drift audit
    /// both read).
    pub ttft_histogram_registered: bool,
    /// Whether a flight recorder handle is armed at all.
    pub flight_enabled: bool,
    /// Ring capacity of the armed flight recorder (events).
    pub flight_capacity: u64,
    /// Whether the fault injector has any chaos fault rates configured.
    pub chaos_faults_armed: bool,
}

/// Run every observability lint over a sampled probe.
pub fn lint_obs(probe: &ObsProbe) -> Report {
    let mut out = Vec::new();

    // LMA270: enforcement promises reaction to breaches; without the
    // TTFT histogram there is no record of whether the promise held.
    if probe.slo_enforce && !probe.ttft_histogram_registered {
        out.push(Diagnostic::error(
            LintCode::Lma270SloWithoutTtftHistogram,
            "obs.ttft_histogram".to_string(),
            "SLO enforcement is enabled but no TTFT histogram is \
             registered: realized breaches would be invisible"
                .to_string(),
        ));
    }

    // LMA271: an armed, zero-capacity recorder accepts triggers but can
    // never carry evidence. Warning: the system still runs correctly.
    if probe.flight_enabled && probe.flight_capacity == 0 && probe.chaos_faults_armed {
        out.push(Diagnostic::warn(
            LintCode::Lma271FlightRecorderZeroCapacity,
            "obs.flight_capacity".to_string(),
            "flight recorder armed with zero capacity while chaos faults \
             are active: any post-mortem dump will be empty"
                .to_string(),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> ObsProbe {
        ObsProbe {
            slo_enforce: true,
            ttft_histogram_registered: true,
            flight_enabled: true,
            flight_capacity: 256,
            chaos_faults_armed: true,
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let r = lint_obs(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn enforcement_without_ttft_histogram_caught() {
        let mut p = sound();
        p.ttft_histogram_registered = false;
        let r = lint_obs(&p);
        assert!(r.has(LintCode::Lma270SloWithoutTtftHistogram), "{r}");
        assert!(!r.is_clean());
        // Observe-only deployments may legitimately skip the histogram.
        p.slo_enforce = false;
        assert!(lint_obs(&p).is_clean());
    }

    #[test]
    fn zero_capacity_flight_recorder_warned_not_fatal() {
        let mut p = sound();
        p.flight_capacity = 0;
        let r = lint_obs(&p);
        assert!(r.has(LintCode::Lma271FlightRecorderZeroCapacity), "{r}");
        assert!(r.is_clean(), "capacity warning must not be fatal: {r}");
        // Quiescent faults: an empty ring records nothing anyway.
        p.chaos_faults_armed = false;
        assert!(!lint_obs(&p).has(LintCode::Lma271FlightRecorderZeroCapacity));
        // A disabled recorder is the documented null object, not a bug.
        p.chaos_faults_armed = true;
        p.flight_enabled = false;
        assert!(!lint_obs(&p).has(LintCode::Lma271FlightRecorderZeroCapacity));
    }

    #[test]
    fn probe_serializes() {
        let json = serde_json::to_string(&sound()).expect("serialize");
        assert!(json.contains("flight_capacity"), "{json}");
    }
}
