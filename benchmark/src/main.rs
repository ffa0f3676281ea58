//! `lmbench`: one wall-clock scoreboard for the LM-Offload reproduction —
//! offline tokens per second, served time to first token, scheduler
//! throughput — with per-layer attribution. Every layer is measured from
//! outside, through public functions only. See `benchmark/README.md`.

mod compare;
mod gen;
mod json;
mod micro;
mod offline;
mod params;
mod report;
mod serve;
mod sim;
mod spans;
mod spec;
mod stats;
mod timed;

use json::object;
use params::Params;
use report::Report;
use serde::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: lmbench run [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
                   [--quick] [--runs N] [--out FILE]
       lmbench compare A.json B.json [--force] [--benchmark BENCHMARK.json]
       lmbench spec

run      without --workload: every workload, each run in a process of its
         own, merged into --out (default benchmark/out/result.json).
         with --workload: that workload here; the last line of output is
         one JSON object {correct, attempted, failed, metrics} holding the
         end-to-end metrics, or with --trace the per-layer metrics.
compare  one row per (end-to-end metric, workload): unchanged, improved,
         regressed or unresolved by the bounds in BENCHMARK.json; exits
         non-zero on any regressed row.
spec     print BENCHMARK.json from the tables in src/spec.rs.";

const OUT_DIR: &str = "benchmark/out";

/// What a workload needs to know about this invocation.
pub struct Ctx<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub params: &'a Params,
}

impl Ctx<'_> {
    /// Write the traced pass's Perfetto document — the harness's spans
    /// and, where the program's own tracer was on, its report — and give
    /// the path on success.
    pub fn write_trace(
        &self,
        program: Option<&lm_trace::TraceReport>,
        recorder: &spans::Recorder,
    ) -> Option<String> {
        let mut trace = lm_trace::PerfettoTrace::new(&format!("lmbench {}", self.workload));
        if let Some(report) = program {
            trace.add_report(report);
        }
        spans::add_to_perfetto(&mut trace, recorder);
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", self.workload));
        std::fs::create_dir_all(OUT_DIR).ok()?;
        std::fs::write(&path, trace.to_json_string()).ok()?;
        Some(path.display().to_string())
    }
}

/// Set up `k` times over (at least once): the last product, and the wall
/// seconds of every repetition — the samples behind `setup_s`.
pub fn repeat_setup<T>(
    k: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut seconds = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let product = setup()?;
        seconds.push(t.elapsed().as_secs_f64());
        if seconds.len() >= k {
            return Ok((product, seconds));
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 7,
        seconds: None,
        traced: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if spec::workload(&w).is_none() {
                    let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload '{w}' (known: {})",
                        known.join(", ")
                    ));
                }
                parsed.workload = Some(w);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                parsed.seconds = Some(s);
            }
            "--runs" => {
                parsed.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&parsed.runs) {
                    return Err(format!("--runs must be 1 to 100, got {}", parsed.runs));
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => parsed.quick = true,
            // `--trace` alone switches tracing on; the driver's form
            // carries an explicit 0 or 1.
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// One workload, in this process.
fn run_one(workload: &str, args: &RunArgs, params: &Params, seconds: f64) -> Result<bool, String> {
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds,
        traced: args.traced,
        params,
    };
    let mut report: Report = match workload {
        spec::OFFLINE_DECODE => offline::run(&ctx, &params.offline_decode),
        spec::OFFLINE_PREFILL_Q4 => offline::run(&ctx, &params.offline_prefill_q4),
        spec::SERVE_UNSHARED => serve::run(&ctx, &params.serve, false),
        spec::SERVE_SHARED_PREFIX => serve::run(&ctx, &params.serve, true),
        spec::SCHED_SIM => sim::run(&ctx, &params.sim),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    if args.traced {
        report.check("trace file written", report.trace_file.is_some());
    } else {
        report.set("peak_rss_mb", report::peak_rss_mb());
    }
    report::print_table(workload, &report, args.traced);
    if let Some(out) = &args.out {
        write_json(out, &report::workload_value(&report, args.traced)?)?;
    }
    println!("{}", report::final_line(&report, args.traced)?);
    Ok(report.correct())
}

/// Every workload, each run in a child process so that peak memory is
/// per workload; the children's sections merged into one result file.
fn run_all(args: &RunArgs, params: &Params, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("result.json"));
    let part = Path::new(OUT_DIR).join("part.json");
    let mut all_ok = true;
    let mut workloads = Map::new();
    for w in &spec::WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..args.runs as u64 {
            let seed = args.seed + i;
            let mut child = |traced: bool| -> Result<Value, String> {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["run", "--workload", w.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&part);
                if args.quick {
                    cmd.arg("--quick");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("spawning {}: {e}", w.name))?;
                all_ok &= status.success();
                let section = read_json(&part.display().to_string());
                // Best effort: the next child overwrites it anyway.
                let _ = std::fs::remove_file(&part);
                section
            };
            let untraced = child(false)?;
            let traced = if args.traced {
                child(true)?
            } else {
                Value::Null
            };
            runs.push(object(vec![
                ("seed", Value::PosInt(seed)),
                ("untraced", untraced),
                ("traced", traced),
            ]));
        }
        workloads.insert(
            w.name.to_string(),
            object(vec![("runs", Value::Array(runs))]),
        );
    }
    let mut fields = report::header(params, args.seed, seconds);
    fields.push(("workloads", Value::Object(workloads)));
    write_json(&out, &object(fields))?;
    println!("result written to {}", out.display());
    Ok(all_ok)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let params = Params::new(args.quick);
    let seconds = args.seconds.unwrap_or(if args.quick {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    });
    match &args.workload {
        Some(w) => run_one(w, &args, &params, seconds),
        None => run_all(&args, &params, seconds),
    }
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut force = false;
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--force" => force = true,
            "--benchmark" => benchmark = it.next().cloned().ok_or("--benchmark needs a value")?,
            other if other.starts_with("--") => return Err(format!("unknown argument '{other}'")),
            file => files.push(file.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let (a, b) = (read_json(a)?, read_json(b)?);
    if let Some(why) = compare::mismatch(&a, &b) {
        if !force {
            return Err(format!(
                "refusing to compare ({why}); pass --force to compare anyway"
            ));
        }
        println!("warning: {why}");
    }
    let bounds = spec::bounds_from(&read_json(&benchmark)?)?;
    let rows = compare::rows(&a, &b, &bounds);
    if rows.is_empty() {
        return Err("the two files share no (metric, workload) pair".into());
    }
    compare::print(&rows);
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} unchanged, {} improved, {} regressed, {} unresolved",
        count(compare::Verdict::Unchanged),
        count(compare::Verdict::Improved),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
    );
    Ok(count(compare::Verdict::Regressed) == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("spec") => serde_json::to_string_pretty(&spec::benchmark_json())
            .map(|text| {
                println!("{text}");
                true
            })
            .map_err(|e| e.to_string()),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lmbench: {e}");
            ExitCode::from(2)
        }
    }
}
