//! End-to-end exercise of the `lm-verify` pipeline exactly as `repro
//! verify` runs it: the quick planner-space sweep must clear its floor
//! with zero lint-unsoundness witnesses, the seeded over-grant mutation
//! must surface as an `LMA291` witness, a kvpool exploration too
//! shallow to share a page must surface as `LMA292`, the lane's kvpool
//! exploration and the scheduler's lifecycle-conformance runs must cover
//! every declared transition, and the assembled probe must pass the `LMA29x` lints
//! cleanly — deterministically, twice.

#![allow(clippy::unwrap_used)]

use lm_analyze::{lint_verify, LintCode};
use lm_verify::{
    build_probe, check_kvpool_protocol, check_scheduler_protocol, run_sweep, Mutation, SweepDepth,
    CONFIGS_FLOOR,
};
use loom::Options;

/// The `repro verify` exploration bounds (kept small here only via the
/// shared default preemption bound; the lane itself uses bound 3).
fn lane_opts() -> Options {
    Options {
        preemption_bound: 2,
        max_iterations: 50_000,
    }
}

#[test]
fn quick_sweep_clears_the_floor_with_zero_witnesses() {
    let sweep = run_sweep(SweepDepth::Quick, Mutation::None);
    assert!(
        sweep.configs >= CONFIGS_FLOOR,
        "quick lattice explored only {} configs",
        sweep.configs
    );
    assert!(
        sweep.unsoundness.is_empty(),
        "shipped planner produced lint-unsoundness witnesses: {:?}",
        sweep.unsoundness
    );
    // The lattice deliberately includes lint-reject regions (non-tiling
    // pages, sub-floor SLOs); every one of them must also fail ground
    // truth or be counted as incompleteness — never silently dropped.
    assert_eq!(
        sweep.configs,
        sweep.consistent + sweep.incompleteness + sweep.unsoundness.len() as u64,
        "sweep points must partition into the three verdict classes"
    );
}

#[test]
fn seeded_overgrant_mutation_becomes_an_lma291_witness() {
    let sweep = run_sweep(SweepDepth::Quick, Mutation::OvergrantPage);
    assert!(
        !sweep.unsoundness.is_empty(),
        "an admission over-granting one page per sequence must be caught"
    );
    let protocols = [
        check_kvpool_protocol(lane_opts()),
        check_scheduler_protocol(),
    ];
    let probe = build_probe(&sweep, &protocols);
    let report = lint_verify(&probe);
    assert!(
        report.has(LintCode::Lma291LintUnsoundnessWitness),
        "the witness must surface as LMA291: {report}"
    );
}

/// A one-interleaving, preemption-free exploration runs the three
/// sequences in order with no peer holding the prompt page, so no admit
/// shares it: the shipped probe assembly must report that gap as
/// `LMA292`.
#[test]
fn truncated_kvpool_exploration_becomes_an_lma292_finding() {
    let kvpool = check_kvpool_protocol(Options {
        preemption_bound: 0,
        max_iterations: 1,
    });
    assert!(
        !kvpool.exercised.iter().any(|t| t == "kvpool:admit/shared-full"),
        "the bound was meant to leave the shared admit unexercised: {:?}",
        kvpool.exercised
    );
    let sweep = run_sweep(SweepDepth::Quick, Mutation::None);
    let probe = build_probe(&sweep, &[kvpool, check_scheduler_protocol()]);
    let report = lint_verify(&probe);
    assert!(
        report.has(LintCode::Lma292UncheckedProtocolTransition),
        "the unexercised transition must surface as LMA292: {report}"
    );
}

#[test]
fn protocol_explorations_cover_every_declared_transition() {
    for report in [
        check_kvpool_protocol(lane_opts()),
        check_scheduler_protocol(),
    ] {
        assert!(report.passed(), "{}: {:?}", report.name, report.failure);
        for t in &report.declared {
            assert!(
                report.exercised.contains(t),
                "{}: declared transition never exercised under the bound: {t}",
                report.name
            );
        }
        for t in &report.exercised {
            assert!(
                report.declared.contains(t),
                "{}: undeclared transition exercised (stale spec): {t}",
                report.name
            );
        }
    }
}

#[test]
fn assembled_probe_passes_the_lma29x_lints_and_is_deterministic() {
    let run = || {
        let sweep = run_sweep(SweepDepth::Quick, Mutation::None);
        let protocols = [
            check_kvpool_protocol(lane_opts()),
            check_scheduler_protocol(),
        ];
        build_probe(&sweep, &protocols)
    };
    let probe = run();
    let report = lint_verify(&probe);
    assert!(report.is_clean(), "{report}");
    assert!(probe.interleavings > 0);
    let a = serde_json::to_string(&probe).unwrap();
    let b = serde_json::to_string(&run()).unwrap();
    assert_eq!(a, b, "verification must be deterministic run-over-run");
}
