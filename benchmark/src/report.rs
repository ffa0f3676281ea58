//! What one workload run produces, how it is printed, and the identity
//! (machine fingerprint, commit, seed, pinned parameters) every result
//! file carries so that two files can be told comparable or not.

use crate::json::{object, text};
use crate::micro;
use crate::params::Params;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use serde::{Map, Value};
use std::collections::BTreeMap;

/// Requests (or offline sequences) one phase sent and what became of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: &'static str,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

#[derive(Default)]
pub struct Report {
    /// Metric name → value: the end-to-end metrics of an untraced run, or
    /// the per-layer metrics this workload exercises in a traced one.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Distributions behind the timings.
    pub timings: BTreeMap<&'static str, Summary>,
    pub phases: Vec<Phase>,
    /// Named output checks; any `false` fails the run.
    pub checks: Vec<(String, bool)>,
    /// Hash of the program's outputs, for parent-vs-change comparison of
    /// greedy generations.
    pub output_hash: u64,
    pub micro: Vec<micro::Row>,
    pub trace_file: Option<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        self.timings.insert(name, Summary::of(samples));
    }

    /// Record an output check; a check made more than once (one per
    /// burst, say) passes only if every instance did.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Count `sent` operations into the phase called `name`.
    pub fn phase(&mut self, name: &'static str, sent: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.sent += sent;
                p.succeeded += sent - failed;
                p.failed += failed;
            }
            None => self.phases.push(Phase {
                name,
                sent,
                succeeded: sent - failed,
                failed,
            }),
        }
    }

    /// Report every row of a finished micro-pass as a metric and keep
    /// the rows for the result file.
    pub fn take_micro(&mut self, rows: Vec<micro::Row>) {
        for row in &rows {
            self.set(row.name, row.value);
        }
        self.micro = rows;
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }
}

/// FNV-1a over a stream of words: the output hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn tokens(&mut self, tokens: &[u32]) {
        self.word(tokens.len() as u64);
        for &t in tokens {
            self.word(t as u64);
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What must match before two result files are compared: core count, CPU
/// model, compiler, and build profile.
pub fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    object(vec![
        (
            "nproc",
            Value::PosInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu", text(cpu)),
        ("rustc", text(env!("LMBENCH_RUSTC"))),
        (
            "profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// The commit of the enclosing checkout, read from `.git` under the
/// current directory without running git ("unknown" outside a checkout).
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => read(&format!(".git/{reference}"))
            .or_else(|| {
                let packed = read(".git/packed-refs")?;
                let line = packed.lines().find(|l| l.ends_with(reference))?;
                Some(line.split_whitespace().next()?.to_string())
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    object(vec![("value", Value::Float(value)), ("unit", text(unit))])
}

/// The `metrics` object of the final line: every end-to-end metric of an
/// untraced run, or every per-layer metric of a traced one. A per-layer
/// metric the workload does not exercise reads 0.
pub fn contract_metrics(report: &Report, traced: bool) -> Result<Value, String> {
    let mut out = Map::new();
    if traced {
        for m in &PER_LAYER {
            let v = report.metrics.get(m.name).copied().unwrap_or(0.0);
            out.insert(m.name.into(), metric_value(v, m.unit));
        }
    } else {
        for m in &END_TO_END {
            let v = *report
                .metrics
                .get(m.name)
                .ok_or_else(|| format!("workload did not report {}", m.name))?;
            out.insert(m.name.into(), metric_value(v, m.unit));
        }
    }
    Ok(Value::Object(out))
}

/// The one-object final line of standard output.
pub fn final_line(report: &Report, traced: bool) -> Result<String, String> {
    let line = object(vec![
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::PosInt(report.attempted().max(1))),
        ("failed", Value::PosInt(report.failed())),
        ("metrics", contract_metrics(report, traced)?),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// One workload's section of a result file.
pub fn workload_value(report: &Report, traced: bool) -> Result<Value, String> {
    let phases = report
        .phases
        .iter()
        .map(|p| {
            object(vec![
                ("name", text(p.name)),
                ("sent", Value::PosInt(p.sent)),
                ("succeeded", Value::PosInt(p.succeeded)),
                ("failed", Value::PosInt(p.failed)),
            ])
        })
        .collect();
    let micro = report
        .micro
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name", text(r.name)),
                ("value", Value::Float(r.value)),
                ("iters", Value::PosInt(r.iters as u64)),
                ("ns_per_call", r.ns_per_call.to_value()),
            ];
            if let Some(f) = r.flops_per_call {
                fields.push(("computed_flops_per_call", Value::Float(f)));
            }
            if let Some(b) = r.bytes_per_call {
                fields.push(("computed_bytes_per_call", Value::Float(b)));
            }
            object(fields)
        })
        .collect();
    Ok(object(vec![
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::PosInt(report.attempted())),
        ("failed", Value::PosInt(report.failed())),
        ("output_hash", text(format!("{:016x}", report.output_hash))),
        (
            if traced { "per_layer" } else { "end_to_end" },
            contract_metrics(report, traced)?,
        ),
        (
            "timings",
            Value::Object(
                report
                    .timings
                    .iter()
                    .map(|(k, s)| (k.to_string(), s.to_value()))
                    .collect::<Map>(),
            ),
        ),
        ("phases", Value::Array(phases)),
        (
            "checks",
            Value::Object(
                report
                    .checks
                    .iter()
                    .map(|(k, ok)| (k.to_string(), Value::Bool(*ok)))
                    .collect::<Map>(),
            ),
        ),
        ("micro", Value::Array(micro)),
        (
            "trace_file",
            report.trace_file.clone().map_or(Value::Null, Value::String),
        ),
    ]))
}

/// The identity block of a result file.
pub fn header(params: &Params, seed: u64, seconds: f64) -> Vec<(&'static str, Value)> {
    vec![
        ("fingerprint", fingerprint()),
        ("commit", text(git_commit())),
        ("seed", Value::PosInt(seed)),
        ("seconds", Value::Float(seconds)),
        ("quick", Value::Bool(params.quick)),
        ("params", serde_json::to_value(params)),
    ]
}

/// Human-readable rendering of one run, printed before the final line.
pub fn print_table(workload: &str, report: &Report, traced: bool) {
    println!(
        "== {workload} ({}) ==",
        if traced { "traced" } else { "untraced" }
    );
    // Unit and, for a layer metric, the end-to-end number it should move.
    let notes: BTreeMap<&str, (&str, &str)> = END_TO_END
        .iter()
        .map(|m| (m.name, (m.unit, "")))
        .chain(PER_LAYER.iter().map(|m| (m.name, (m.unit, m.moves))))
        .collect();
    for (name, value) in &report.metrics {
        let (unit, moves) = notes.get(name).copied().unwrap_or_default();
        let arrow = if moves.is_empty() { "" } else { "  -> " };
        println!("  {name:<30} {value:>16.4} {unit:<8}{arrow}{moves}");
    }
    for (name, s) in &report.timings {
        let tail = s
            .tail
            .map_or(String::new(), |(q, v)| format!(" p{:.0} {v:.4}", q * 100.0));
        println!(
            "  {name:<30} median {:.4} [q1 {:.4}, q3 {:.4}]{tail} n={}",
            s.median, s.q1, s.q3, s.n
        );
    }
    for p in &report.phases {
        println!(
            "  phase {:<10} sent {} succeeded {} failed {}",
            p.name, p.sent, p.succeeded, p.failed
        );
    }
    for (name, ok) in &report.checks {
        println!("  check {name:<40} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("  output_hash {:016x}", report.output_hash);
    if let Some(f) = &report.trace_file {
        println!("  trace written to {f}");
    }
}
