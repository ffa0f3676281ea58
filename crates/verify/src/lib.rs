//! `lm-verify` — exhaustive bounded verification of the planning and
//! serving stack (DESIGN.md §10).
//!
//! Two complementary instruments, both deterministic:
//!
//! 1. **Planner-space sweep** ([`lattice`]): enumerate a bounded lattice
//!    of deployment configs (model size × pool envelopes × planning context ×
//!    SLO policy × degrade ladder) and prove at every point that the
//!    lint verdict is consistent with *executable* ground truth — the
//!    planned admissions are actually granted by a real paged pool,
//!    capacity and accounting hold throughout, teardown leaks nothing,
//!    the degrade ladder is monotone in predicted step time, and TTFT
//!    predictions respect the physical floor. A config where the lints
//!    pass but ground truth fails is a **lint-unsoundness witness**
//!    (`LMA291`); a config the lints reject while every invariant holds
//!    is **lint incompleteness** (reported, tolerated).
//!
//! 2. **Protocol checking** ([`protocol`]): bounded-interleaving
//!    exploration (vendored loom, CHESS-style preemption bound) of the
//!    paged-KV grant/append/drop protocol, with refcount conservation,
//!    no-double-grant and zero-leak quiescence asserted on every
//!    interleaving; and the shipped scheduler run over a fixed set of
//!    storms, SLO overload and cancels, each run's lifecycle log checked
//!    against `lm-serve`'s executable specification
//!    ([`lm_serve::conform`]) — plus transition-coverage accounting for
//!    `LMA292`.
//!
//! [`verify_report`] judges the outputs of both (`LMA291`, `LMA292`);
//! `repro verify` publishes the result as `results/verify.json` and
//! `scripts/verify.sh` gates on it.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod lattice;
pub mod protocol;

pub use lattice::{run_sweep, Mutation, SweepDepth, SweepPoint, SweepReport, UnsoundnessWitness};
pub use protocol::{
    check_kvpool_protocol, check_scheduler_protocol, kvpool_declared, ProtocolReport,
};

use lm_analyze::{Diagnostic, LintCode, Report};
use std::collections::BTreeSet;

/// Minimum lattice points for a sweep to count as coverage: both
/// [`SweepDepth`] lattices clear it, and `repro verify` gates on it.
pub const CONFIGS_FLOOR: u64 = 200;

/// The verification run's own verdict: one `LMA291` per unsoundness
/// witness of `sweep`, and `LMA292` when the explorations in `protocols`
/// ran no interleaving or, taken together, left a declared transition
/// unexercised or exercised an undeclared one.
pub fn verify_report(sweep: &SweepReport, protocols: &[ProtocolReport]) -> Report {
    // LMA291: one finding per witness, so every offending config shows.
    let mut out: Vec<Diagnostic> = sweep
        .unsoundness
        .iter()
        .map(|w| {
            Diagnostic::error(
                LintCode::Lma291LintUnsoundnessWitness,
                format!("verify.witness[{}]", w.config),
                format!(
                    "lints passed but invariant `{}` failed: {}",
                    w.invariant, w.detail
                ),
            )
        })
        .collect();

    // LMA292: a declared transition never driven carries unverified
    // invariants; one driven but undeclared means the declared table —
    // the spec the exploration is checked against — is stale.
    let union = |side: fn(&ProtocolReport) -> &Vec<String>| -> BTreeSet<&str> {
        protocols
            .iter()
            .flat_map(|p| side(p).iter().map(String::as_str))
            .collect()
    };
    let declared = union(|p| &p.declared);
    let exercised = union(|p| &p.exercised);
    let missing: Vec<&str> = declared.difference(&exercised).copied().collect();
    let undeclared: Vec<&str> = exercised.difference(&declared).copied().collect();
    let interleavings: u64 = protocols.iter().map(|p| p.interleavings).sum();
    if !missing.is_empty() || !undeclared.is_empty() || interleavings == 0 {
        out.push(Diagnostic::error(
            LintCode::Lma292UncheckedProtocolTransition,
            "verify.protocol",
            format!(
                "after {interleavings} interleavings, declared-but-unexercised \
                 transitions {missing:?}; exercised-but-undeclared {undeclared:?}"
            ),
        ));
    }
    Report::new(out)
}

// `verify_report`'s unit tests, under the module name they have always
// been reported by.
#[cfg(test)]
mod verify_lints;

#[cfg(test)]
mod tests {
    use super::*;

    /// Transitions are judged over the union of every exploration, and
    /// interleavings summed: a transition one protocol declares and
    /// another drives is covered, and two empty explorations are not.
    #[test]
    fn probe_assembly_unions_transitions_and_sums_interleavings() {
        let sweep = SweepReport {
            axes: vec![("model".into(), 3), ("pool".into(), 4)],
            configs: 288,
            unsoundness: Vec::new(),
            incompleteness: 7,
            consistent: 281,
        };
        let mk = |name: &str, n: u64, decl: &[&str], exer: &[&str]| ProtocolReport {
            name: name.into(),
            interleavings: n,
            truncated: false,
            failure: None,
            declared: decl.iter().map(|s| s.to_string()).collect(),
            exercised: exer.iter().map(|s| s.to_string()).collect(),
        };
        let split = [
            mk("kvpool", 6_000, &["k:a", "k:b"], &["k:a"]),
            mk("scheduler", 5_000, &["s:a"], &["s:a", "k:b"]),
        ];
        let r = verify_report(&sweep, &split);
        assert!(r.is_clean(), "{r}");
        let idle = [mk("kvpool", 0, &[], &[]), mk("scheduler", 0, &[], &[])];
        let r = verify_report(&sweep, &idle);
        assert!(r.has(LintCode::Lma292UncheckedProtocolTransition), "{r}");
        assert!(r.to_string().contains("after 0 interleavings"), "{r}");
    }
}
