//! The async front end's channel and clock (`LMA30x`), judged by
//! `AsyncConfig::check`.

mod tests {
    use crate::session::AsyncConfig;
    use lm_analyze::LintCode;

    #[test]
    fn sound_async_config_is_clean() {
        let r = AsyncConfig::default().check();
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn zero_channel_capacity_caught() {
        let mut acfg = AsyncConfig {
            channel_capacity: 0,
            ..AsyncConfig::default()
        };
        let r = acfg.check();
        assert!(r.has(LintCode::Lma300AsyncZeroChannelCapacity), "{r}");
        assert!(!r.is_clean());
        // Capacity one is the smallest workable channel.
        acfg.channel_capacity = 1;
        assert!(acfg.check().is_clean());
    }

    #[test]
    fn bad_time_scale_caught() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let acfg = AsyncConfig {
                time_scale: bad,
                ..AsyncConfig::default()
            };
            let r = acfg.check();
            assert!(r.has(LintCode::Lma302AsyncBadTimeScale), "scale {bad}: {r}");
            assert!(!r.is_clean());
        }
        // Any finite positive scale — however extreme — is legal: it
        // only compresses or stretches wall time.
        let fast = AsyncConfig {
            time_scale: 1e6,
            ..AsyncConfig::default()
        };
        assert!(fast.check().is_clean());
    }
}
