//! `LMA30x` — `ServeSession::run_async` drives the same scheduler with a
//! wall-clock driver and per-request bounded token channels; these are
//! the misconfigurations that survive type checking but can never work
//! at runtime, judged on an [`AsyncProbe`] before any thread spawns.

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// Observations sampled from one async serving session configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncProbe {
    /// Capacity of each request's bounded token channel.
    pub channel_capacity: u64,
    /// Virtual microseconds per wall microsecond (`1.0` = real time).
    pub time_scale: f64,
    /// Configured p99 TTFT objective, seconds; `None` when the session
    /// runs without an SLO policy.
    pub ttft_p99_slo_s: Option<f64>,
    /// Physical service floor under the session's admission plan: one
    /// worst-case group prefill plus one full-occupancy decode step,
    /// seconds — the same arithmetic `LMA260` judges the virtual path
    /// by.
    pub floor_ttft_s: f64,
}

/// Run every async-runtime lint over a sampled probe.
pub fn lint_async(probe: &AsyncProbe) -> Report {
    let mut out = Vec::new();

    // LMA300: capacity zero means try_send can never succeed — the
    // scheduler would burn the whole backpressure grace per token and
    // then cancel the stream as disconnected.
    if probe.channel_capacity == 0 {
        out.push(Diagnostic::error(
            LintCode::Lma300AsyncZeroChannelCapacity,
            "async.channel_capacity".to_string(),
            "per-request token channel has capacity 0: no token can ever \
             be delivered, every stream would resolve as a spurious \
             disconnect"
                .to_string(),
        ));
    }

    // LMA301: the same floor argument as LMA260, restated for wall
    // clocks: if the modelled best case already misses the objective,
    // wall jitter (which only ever adds) certainly will.
    if let Some(slo_s) = probe.ttft_p99_slo_s {
        if slo_s <= probe.floor_ttft_s || !slo_s.is_finite() {
            out.push(Diagnostic::error(
                LintCode::Lma301AsyncSloBelowFloor,
                "async.ttft_p99_s".to_string(),
                format!(
                    "wall-clock p99 TTFT objective {:.3}s is at or below \
                     the physical service floor {:.3}s (one prefill + one \
                     step); wall jitter only adds latency",
                    slo_s, probe.floor_ttft_s
                ),
            ));
        }
    }

    // LMA302: the pacer computes `wall_elapsed · time_scale` virtual
    // microseconds; zero, negative, NaN or infinite scales make that
    // mapping meaningless (the clock never catches up, or jumps past
    // every deadline instantly).
    if !probe.time_scale.is_finite() || probe.time_scale <= 0.0 {
        out.push(Diagnostic::error(
            LintCode::Lma302AsyncBadTimeScale,
            "async.time_scale".to_string(),
            format!(
                "time scale {} cannot map wall time onto the modelled \
                 clock (must be finite and > 0)",
                probe.time_scale
            ),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> AsyncProbe {
        AsyncProbe {
            channel_capacity: 32,
            time_scale: 1.0,
            ttft_p99_slo_s: Some(400.0),
            floor_ttft_s: 12.0,
        }
    }

    #[test]
    fn sound_async_config_is_clean() {
        let r = lint_async(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn zero_channel_capacity_caught() {
        let mut p = sound();
        p.channel_capacity = 0;
        let r = lint_async(&p);
        assert!(r.has(LintCode::Lma300AsyncZeroChannelCapacity), "{r}");
        assert!(!r.is_clean());
        // Capacity one is the smallest workable channel.
        p.channel_capacity = 1;
        assert!(lint_async(&p).is_clean());
    }

    #[test]
    fn wall_slo_below_floor_caught() {
        let mut p = sound();
        p.ttft_p99_slo_s = Some(10.0);
        let r = lint_async(&p);
        assert!(r.has(LintCode::Lma301AsyncSloBelowFloor), "{r}");
        assert!(!r.is_clean());
        // Exactly at the floor is still unmeetable (<=, like LMA260).
        p.ttft_p99_slo_s = Some(12.0);
        assert!(lint_async(&p).has(LintCode::Lma301AsyncSloBelowFloor));
        // Non-finite objectives land in the same bucket.
        p.ttft_p99_slo_s = Some(f64::NAN);
        assert!(lint_async(&p).has(LintCode::Lma301AsyncSloBelowFloor));
    }

    #[test]
    fn no_slo_means_no_floor_check() {
        let mut p = sound();
        p.ttft_p99_slo_s = None;
        p.floor_ttft_s = 1e9; // would fail any objective
        assert!(lint_async(&p).is_clean());
    }

    #[test]
    fn bad_time_scale_caught() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut p = sound();
            p.time_scale = bad;
            let r = lint_async(&p);
            assert!(r.has(LintCode::Lma302AsyncBadTimeScale), "scale {bad}: {r}");
            assert!(!r.is_clean());
        }
        // Any finite positive scale — however extreme — is legal: it
        // only compresses or stretches wall time.
        let mut p = sound();
        p.time_scale = 1e6;
        assert!(lint_async(&p).is_clean());
    }

    #[test]
    fn async_probe_serializes() {
        let json = serde_json::to_string(&sound()).expect("serialize");
        assert!(json.contains("channel_capacity"), "{json}");
        let back: AsyncProbe = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.channel_capacity, 32);
        assert_eq!(back.ttft_p99_slo_s, Some(400.0));
    }
}
