//! Observability wiring (`LMA27x`), judged by `obs::obs_report` on real
//! configurations.

mod tests {
    use crate::admission::ServeConfig;
    use crate::obs::obs_report;
    use crate::slo::SloPolicy;
    use lm_analyze::LintCode;
    use lm_fault::{FaultConfig, FaultInjector, StormProfile};
    use lm_trace::{FlightRecorder, Tracer};

    /// An enforced SLO with its histogram registered and a chaos storm
    /// recorded by a 256-event flight recorder.
    fn sound() -> ServeConfig {
        ServeConfig {
            slo: Some(SloPolicy::enforcing(100.0)),
            tracer: Tracer::new(),
            flight: FlightRecorder::new(256),
            fault: FaultInjector::new(FaultConfig::storm(7, StormProfile::Default)),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let r = obs_report(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn enforcement_without_ttft_histogram_caught() {
        let untraced = ServeConfig {
            tracer: Tracer::disabled(),
            ..sound()
        };
        let r = obs_report(&untraced);
        assert!(r.has(LintCode::Lma270SloWithoutTtftHistogram), "{r}");
        assert!(!r.is_clean());
        // Observe-only deployments may legitimately skip the histogram.
        let observing = ServeConfig {
            slo: Some(SloPolicy::observe(100.0)),
            ..untraced
        };
        assert!(obs_report(&observing).is_clean());
    }

    #[test]
    fn zero_capacity_flight_recorder_warned_not_fatal() {
        let empty = ServeConfig {
            flight: FlightRecorder::new(0),
            ..sound()
        };
        let r = obs_report(&empty);
        assert!(r.has(LintCode::Lma271FlightRecorderZeroCapacity), "{r}");
        assert!(r.is_clean(), "capacity warning must not be fatal: {r}");
        // Quiescent faults: an empty ring records nothing anyway.
        let quiet = ServeConfig {
            fault: FaultInjector::disabled(),
            ..empty.clone()
        };
        assert!(!obs_report(&quiet).has(LintCode::Lma271FlightRecorderZeroCapacity));
        // A disabled recorder is the documented null object, not a bug.
        let disabled = ServeConfig {
            flight: FlightRecorder::disabled(),
            ..empty
        };
        assert!(!obs_report(&disabled).has(LintCode::Lma271FlightRecorderZeroCapacity));
    }
}
