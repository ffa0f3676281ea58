//! `lmbench compare A.json B.json`: hold a candidate result file against
//! a baseline, one row per (end-to-end metric, workload), by the bounds
//! in `BENCHMARK.json`.

use crate::spec::Better;
use crate::stats::median;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound, and no better than the spread.
    Unchanged,
    /// Better by more than the run-to-run spread.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound: no call either way.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so that the spread computed here is the one
/// the benchmark's acceptance is judged by. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median; 0 for a single run.
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, _, q3]) if median(values) != 0.0 => (q3 - q1) / median(values).abs(),
        _ => 0.0,
    }
}

/// The rule. `worse_by` is the candidate's median against the baseline's
/// as a share of the baseline, positive when worse.
pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread && worse_by < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

pub fn worse_by(baseline: f64, candidate: f64, better: Better) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

pub struct Row {
    pub metric: String,
    pub workload: String,
    pub baseline: f64,
    pub candidate: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Why two result files may not be compared, if anything.
pub fn mismatch(a: &Value, b: &Value) -> Option<String> {
    for key in ["fingerprint", "quick"] {
        if a[key] != b[key] {
            return Some(format!(
                "{key} differs: {} vs {}",
                serde_json::to_string(&a[key]).unwrap_or_default(),
                serde_json::to_string(&b[key]).unwrap_or_default(),
            ));
        }
    }
    None
}

/// Every run's value of one end-to-end metric on one workload.
fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file["workloads"][workload]["runs"]
        .as_array()
        .unwrap_or_default()
        .iter()
        .filter_map(|run| run["untraced"]["end_to_end"][metric]["value"].as_f64())
        .collect()
}

pub fn rows(a: &Value, b: &Value, bounds: &[(String, Better, f64)]) -> Vec<Row> {
    let mut out = Vec::new();
    let Some(workloads) = a["workloads"].as_object() else {
        return out;
    };
    for workload in workloads.keys() {
        for (metric, better, bound) in bounds {
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worse_by(ma, mb, *better);
            let spread = spread(&va).max(spread(&vb));
            out.push(Row {
                metric: metric.clone(),
                workload: workload.clone(),
                baseline: ma,
                candidate: mb,
                worse_by: worse,
                spread,
                bound: *bound,
                verdict: judge(worse, spread, *bound),
            });
        }
    }
    out
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse by", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<20} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.baseline,
            r.candidate,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_table() {
        use Verdict::*;
        // (worse_by, spread, bound) → verdict
        let table = [
            (0.00, 0.00, 0.10, Unchanged),
            (0.05, 0.02, 0.10, Unchanged), // worse, but inside the bound
            (0.10, 0.02, 0.10, Unchanged), // exactly the bound is allowed
            (0.11, 0.02, 0.10, Regressed),
            (-0.01, 0.02, 0.10, Unchanged), // better, but inside the spread
            (-0.05, 0.02, 0.10, Improved),
            (-0.50, 0.12, 0.10, Unresolved), // spread wider than the bound:
            (0.50, 0.12, 0.10, Unresolved),  // no call either way
            (-0.03, 0.00, 0.10, Improved),   // single runs have no spread
        ];
        for (worse, spread, bound, want) in table {
            assert_eq!(
                judge(worse, spread, bound),
                want,
                "{worse} {spread} {bound}"
            );
        }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert_eq!(worse_by(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), Some([2.5, 4.0, 5.5]));
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    fn file(quick: bool, values: &[f64]) -> Value {
        let runs: Vec<String> = values
            .iter()
            .map(|v| format!(r#"{{"untraced": {{"end_to_end": {{"gen_tok_s": {{"value": {v}, "unit": "tok/s"}}}}}}}}"#))
            .collect();
        let text = format!(
            r#"{{"fingerprint": {{"nproc": 2}}, "quick": {quick}, "workloads": {{"w": {{"runs": [{}]}}}}}}"#,
            runs.join(",")
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn rows_use_medians_and_refuse_mismatched_files() {
        let bounds = vec![("gen_tok_s".to_string(), Better::Higher, 0.07)];
        let a = file(false, &[10.0, 10.1, 9.9]);
        let b = file(false, &[8.0, 8.1, 7.9]);
        let r = rows(&a, &b, &bounds);
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].baseline, r[0].candidate), (10.0, 8.0));
        assert_eq!(r[0].verdict, Verdict::Regressed);
        assert_eq!(rows(&a, &a, &bounds)[0].verdict, Verdict::Unchanged);
        assert!(mismatch(&a, &b).is_none());
        assert!(mismatch(&a, &file(true, &[10.0]))
            .unwrap()
            .starts_with("quick"));
    }
}
