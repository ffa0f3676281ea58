//! The `lmoffload` command line as a user meets it. It shares `repro`'s
//! flag parser (`lm_bench::cli`), so the contract is the same: a typo is
//! a usage error that names what was wrong, never a run on defaults.

#![allow(clippy::unwrap_used)]
use std::process::{Command, Output};

fn lmoffload(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lmoffload"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn usage_errors_exit_2_and_name_the_offender() {
    for (bad, names) in [
        (
            &["advise", "OPT-30B", "--prompt", "abc"][..],
            "--prompt expects an integer, got 'abc'",
        ),
        (
            &["advise", "OPT-30B", "--prompt"],
            "--prompt expects an integer, got nothing",
        ),
        (
            &["advise", "--gne=16", "OPT-30B"],
            "unknown flag '--gne=16'",
        ),
        (
            &["advise", "OPT-30B", "--gne", "16"],
            "unknown flag '--gne'",
        ),
        (
            &["advise", "OPT-30B", "OPT-66B"],
            "unexpected argument 'OPT-66B'",
        ),
        (&["advice", "OPT-30B"], "unknown command 'advice'"),
        (&[], "no command given"),
    ] {
        let out = lmoffload(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(
            stderr.contains(names),
            "{bad:?} must say {names:?}: {stderr}"
        );
        assert!(
            stderr.contains("usage: lmoffload"),
            "{bad:?} prints the usage text"
        );
        assert!(out.stdout.is_empty(), "{bad:?} must not start planning");
    }
}

#[test]
fn both_flag_spellings_reach_the_command() {
    let spaced = lmoffload(&["advise", "OPT-30B", "--gen", "16"]);
    let inline = lmoffload(&["advise", "--gen=16", "OPT-30B"]);
    assert_eq!(spaced.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&spaced.stdout).contains("n=16"));
    assert_eq!(
        spaced.stdout, inline.stdout,
        "flag spelling and position do not matter"
    );
}
