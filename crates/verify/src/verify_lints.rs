//! The verification run's own verdict (`LMA29x`), judged by
//! `verify_report` on a `SweepReport` and `ProtocolReport`s.

mod tests {
    use crate::{verify_report, ProtocolReport, SweepReport, UnsoundnessWitness};
    use lm_analyze::LintCode;

    fn sweep() -> SweepReport {
        SweepReport {
            axes: vec![("model".into(), 3), ("max_slots".into(), 4)],
            configs: 288,
            unsoundness: Vec::new(),
            incompleteness: 7,
            consistent: 281,
        }
    }

    /// One exploration that declares and drives the same two transitions.
    fn protocols() -> Vec<ProtocolReport> {
        let both = vec!["admit/fresh".to_string(), "append/new-page".to_string()];
        vec![ProtocolReport {
            name: "kvpool".into(),
            interleavings: 12_000,
            truncated: false,
            failure: None,
            declared: both.clone(),
            exercised: both,
        }]
    }

    fn witness(config: &str) -> UnsoundnessWitness {
        UnsoundnessWitness {
            config: config.into(),
            invariant: "pool_capacity".into(),
            detail: "granted 257 of 256 pages".into(),
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let r = verify_report(&sweep(), &protocols());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn unsoundness_witness_caught() {
        let mut s = sweep();
        s.unsoundness.push(witness("opt-30b/pool=8GiB/page=16"));
        let r = verify_report(&s, &protocols());
        assert!(r.has(LintCode::Lma291LintUnsoundnessWitness), "{r}");
        assert!(!r.is_clean());
        let text = r.to_string();
        assert!(
            text.contains("pool_capacity") && text.contains("opt-30b"),
            "{text}"
        );
    }

    #[test]
    fn each_witness_gets_its_own_finding() {
        let mut s = sweep();
        s.unsoundness = (0..3).map(|i| witness(&format!("cfg-{i}"))).collect();
        let r = verify_report(&s, &protocols());
        assert_eq!(r.error_count(), 3, "{r}");
    }

    #[test]
    fn unexercised_transition_caught() {
        let mut p = protocols();
        p[0].exercised.pop();
        let r = verify_report(&sweep(), &p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn undeclared_transition_caught() {
        let mut p = protocols();
        p[0].exercised.push("append/ghost".into());
        let r = verify_report(&sweep(), &p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
    }

    #[test]
    fn zero_interleavings_caught() {
        let mut p = protocols();
        p[0].interleavings = 0;
        let r = verify_report(&sweep(), &p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
    }
}
