//! `LMA29x` — the *verification run itself*: a sweep whose lattice
//! collapsed proves nothing, a lint that passed where executable ground
//! truth failed is unsound, and a declared protocol transition the
//! exploration never drove is unverified. `lm-verify` fills the
//! [`VerifyProbe`] from a finished sweep + exploration.

use crate::diag::{Diagnostic, LintCode, Report};
use serde::{Deserialize, Serialize};

/// One lint-unsoundness witness: the sweep point and the invariant that
/// failed there while the lints stayed clean.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnsoundnessWitness {
    /// Human-readable sweep-point identity (model, pool bytes, page
    /// geometry, SLO policy, ladder).
    pub config: String,
    /// The executable invariant that failed (e.g. `pool_capacity`).
    pub invariant: String,
    /// Offending values inline.
    pub detail: String,
}

/// Observations sampled from one `lm-verify` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VerifyProbe {
    /// `(axis name, distinct values swept)` for every lattice axis.
    pub axes: Vec<(String, u64)>,
    /// Lattice points actually explored.
    pub configs_explored: u64,
    /// Minimum point count for the sweep to count as coverage.
    pub configs_floor: u64,
    /// Configs where lints passed but ground truth failed.
    pub unsoundness_witnesses: Vec<UnsoundnessWitness>,
    /// Transitions the protocol state machines declare.
    pub declared_transitions: Vec<String>,
    /// Transitions the bounded exploration actually drove.
    pub exercised_transitions: Vec<String>,
    /// Interleavings (executions) the protocol exploration ran.
    pub interleavings: u64,
}

/// Run every verification lint over a sampled probe.
pub fn lint_verify(probe: &VerifyProbe) -> Report {
    let mut out = Vec::new();

    // LMA290: a degenerate lattice. Every axis must actually vary and
    // the point count must clear the floor, otherwise downstream "zero
    // witnesses" claims are vacuously true.
    let flat_axes: Vec<&str> = probe
        .axes
        .iter()
        .filter(|(_, n)| *n < 2)
        .map(|(name, _)| name.as_str())
        .collect();
    if !flat_axes.is_empty() || probe.configs_explored < probe.configs_floor {
        out.push(Diagnostic::error(
            LintCode::Lma290SweepDomainDegenerate,
            "verify.sweep".to_string(),
            format!(
                "lattice explored {} of >= {} required configs; axes with \
                 fewer than two values: {:?}",
                probe.configs_explored, probe.configs_floor, flat_axes
            ),
        ));
    }

    // LMA291: unsoundness witnesses. One finding per witness so every
    // offending config is visible in the report.
    for w in &probe.unsoundness_witnesses {
        out.push(Diagnostic::error(
            LintCode::Lma291LintUnsoundnessWitness,
            format!("verify.witness[{}]", w.config),
            format!(
                "lints passed but invariant `{}` failed: {}",
                w.invariant, w.detail
            ),
        ));
    }

    // LMA292: transition coverage. Declared-but-unexercised transitions
    // carry unverified invariants; exercised-but-undeclared transitions
    // mean the declared table itself is stale (equally an error — the
    // table is the spec the exploration is checked against).
    let missing: Vec<&str> = probe
        .declared_transitions
        .iter()
        .filter(|t| !probe.exercised_transitions.contains(t))
        .map(|t| t.as_str())
        .collect();
    let undeclared: Vec<&str> = probe
        .exercised_transitions
        .iter()
        .filter(|t| !probe.declared_transitions.contains(t))
        .map(|t| t.as_str())
        .collect();
    if !missing.is_empty() || !undeclared.is_empty() || probe.interleavings == 0 {
        out.push(Diagnostic::error(
            LintCode::Lma292UncheckedProtocolTransition,
            "verify.protocol".to_string(),
            format!(
                "after {} interleavings, declared-but-unexercised \
                 transitions {:?}; exercised-but-undeclared {:?}",
                probe.interleavings, missing, undeclared
            ),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sound() -> VerifyProbe {
        VerifyProbe {
            axes: vec![
                ("model".into(), 3),
                ("pool_bytes".into(), 4),
                ("page_tokens".into(), 4),
                ("slo".into(), 3),
                ("ladder".into(), 2),
            ],
            configs_explored: 288,
            configs_floor: 200,
            unsoundness_witnesses: Vec::new(),
            declared_transitions: vec!["admit/fresh".into(), "append/cow-fork".into()],
            exercised_transitions: vec!["admit/fresh".into(), "append/cow-fork".into()],
            interleavings: 12_000,
        }
    }

    #[test]
    fn sound_probe_is_clean() {
        let r = lint_verify(&sound());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn flat_axis_caught() {
        let mut p = sound();
        p.axes[1].1 = 1;
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma290SweepDomainDegenerate), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn point_count_below_floor_caught() {
        let mut p = sound();
        p.configs_explored = p.configs_floor - 1;
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma290SweepDomainDegenerate), "{r}");
    }

    #[test]
    fn unsoundness_witness_caught() {
        let mut p = sound();
        p.unsoundness_witnesses.push(UnsoundnessWitness {
            config: "opt-30b/pool=8GiB/page=16".into(),
            invariant: "pool_capacity".into(),
            detail: "granted 257 of 256 pages".into(),
        });
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma291LintUnsoundnessWitness), "{r}");
        assert!(!r.is_clean());
        let text = r.to_string();
        assert!(text.contains("pool_capacity") && text.contains("opt-30b"), "{text}");
    }

    #[test]
    fn each_witness_gets_its_own_finding() {
        let mut p = sound();
        for i in 0..3 {
            p.unsoundness_witnesses.push(UnsoundnessWitness {
                config: format!("cfg-{i}"),
                invariant: "slots_feasible".into(),
                detail: "admission failed at slot 12".into(),
            });
        }
        let r = lint_verify(&p);
        assert_eq!(r.error_count(), 3, "{r}");
    }

    #[test]
    fn unexercised_transition_caught() {
        let mut p = sound();
        p.exercised_transitions.pop();
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
        assert!(!r.is_clean());
    }

    #[test]
    fn undeclared_transition_caught() {
        let mut p = sound();
        p.exercised_transitions.push("append/ghost".into());
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
    }

    #[test]
    fn zero_interleavings_caught() {
        let mut p = sound();
        p.interleavings = 0;
        let r = lint_verify(&p);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
    }

    #[test]
    fn probe_serializes() {
        let json = serde_json::to_string(&sound()).expect("serialize");
        assert!(json.contains("unsoundness_witnesses"), "{json}");
    }
}
