//! The `repro` command line as a user (and `scripts/verify.sh`) meets
//! it: exit codes, the usage text and the gate table. Only millisecond
//! lanes are run, so the suite stays cheap in a debug build.

#![allow(clippy::unwrap_used)]
use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(cwd: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .unwrap()
}

/// A fresh, empty working directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_2_and_run_nothing() {
    let dir = scratch("usage_errors");
    for bad in [
        &["slo", "--sede", "9"][..],
        &["slo", "--sede", "9", "bogus"],
        &["table4", "bogus"],
        &["slo", "--seed"],
        &["slo", "--seed", "--rps", "4"],
        &["serve", "--rps=-1"],
        &["serve", "--requests", "0"],
        &["chaos", "--storm", "hurricane"],
    ] {
        let out = repro(&dir, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: repro"), "{bad:?} prints the usage text");
        assert!(out.stdout.is_empty(), "{bad:?} must not start a lane");
    }
    let typo = repro(&dir, &["slo", "--sede", "9"]);
    assert!(stderr(&typo).contains("unknown flag '--sede'"), "the error names the flag");
    assert!(!dir.join("results").exists(), "a usage error writes nothing");
}

#[test]
fn both_flag_spellings_reach_the_lane() {
    let dir = scratch("flag_spellings");
    for args in [&["faults", "--fault-seed", "7"][..], &["faults", "--fault-seed=7"]] {
        let out = repro(&dir, args);
        assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
        let json = std::fs::read_to_string(dir.join("results/faults.json")).unwrap();
        assert!(json.contains("\"fault_seed\": 7"), "{args:?} ran with seed 7");
    }
}

/// With `results` a plain file nothing can be written: every lane's
/// `artifact_written` gate is false, the run exits 1, and — the gates
/// being values collected by the runner — the failure in the first lane
/// does not keep the second from running and reporting.
#[test]
fn an_unwritable_results_dir_fails_the_gate_without_stopping_later_lanes() {
    let dir = scratch("unwritable_results");
    std::fs::write(dir.join("results"), "not a directory").unwrap();
    let out = repro(&dir, &["table4", "table1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== Table 4") && stdout.contains("== Table 1"), "{stdout}");
    let failed_rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("artifact_written") && l.contains("FAILED"))
        .collect();
    assert_eq!(failed_rows.len(), 2, "one failed gate row per lane: {stdout}");
    assert!(failed_rows[0].contains("table4") && failed_rows[1].contains("table1"));
    assert!(stderr(&out).contains("could not write results/table4.json"));
}

/// The usage text is generated from `LANES`: its names are unique, each
/// one is accepted as a lane, and `all` is not a row of the table.
#[test]
fn lane_names_in_the_usage_text_are_unique_and_resolve() {
    let dir = scratch("lane_names");
    let usage = stderr(&repro(&dir, &["no-such-lane"]));
    assert!(usage.contains("unknown lane 'no-such-lane'"), "{usage}");
    let names: Vec<&str> = usage
        .lines()
        .skip_while(|l| !l.starts_with("lanes"))
        .skip(1)
        .filter_map(|l| l.trim_start_matches([' ', '*']).split_whitespace().next())
        .collect();
    assert!(names.len() >= 21 && names.contains(&"summary"), "{names:?}");
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "lane {name} is listed twice");
        assert_ne!(*name, "all");
        // A known lane gets past the positional check to the bad flag.
        let err = stderr(&repro(&dir, &[name, "--no-such-flag"]));
        assert!(err.contains("unknown flag '--no-such-flag'"), "{name}: {err}");
    }
}
