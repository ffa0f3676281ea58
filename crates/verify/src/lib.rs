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
//! The outputs of both fold into one [`VerifyProbe`] judged by
//! `lm-analyze`'s `LMA29x` family; `repro verify` publishes the result
//! as `results/verify.json` and `scripts/verify.sh` gates on it.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

pub mod lattice;
pub mod protocol;

pub use lattice::{run_sweep, Mutation, SweepDepth, SweepPoint, SweepReport};
pub use protocol::{
    check_kvpool_protocol, check_scheduler_protocol, kvpool_declared, ProtocolReport,
};

use lm_analyze::VerifyProbe;
use std::collections::BTreeSet;

/// Minimum lattice points for a sweep to count as coverage: both
/// [`SweepDepth`] lattices clear it, and `repro verify` gates on it.
pub const CONFIGS_FLOOR: u64 = 200;

/// Fold a finished sweep and the protocol explorations into the probe
/// `lm-analyze`'s `LMA29x` lints judge.
pub fn build_probe(sweep: &SweepReport, protocols: &[ProtocolReport]) -> VerifyProbe {
    let declared: BTreeSet<String> = protocols
        .iter()
        .flat_map(|p| p.declared.iter().cloned())
        .collect();
    let exercised: BTreeSet<String> = protocols
        .iter()
        .flat_map(|p| p.exercised.iter().cloned())
        .collect();
    VerifyProbe {
        unsoundness_witnesses: sweep.unsoundness.clone(),
        declared_transitions: declared.into_iter().collect(),
        exercised_transitions: exercised.into_iter().collect(),
        interleavings: protocols.iter().map(|p| p.interleavings).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let probe = build_probe(
            &sweep,
            &[
                mk("kvpool", 6_000, &["k:a", "k:b"], &["k:a", "k:b"]),
                mk("scheduler", 5_000, &["s:a"], &["s:a"]),
            ],
        );
        assert_eq!(probe.interleavings, 11_000);
        assert_eq!(
            probe.declared_transitions,
            vec!["k:a".to_string(), "k:b".to_string(), "s:a".to_string()]
        );
        assert_eq!(probe.declared_transitions, probe.exercised_transitions);
    }
}
