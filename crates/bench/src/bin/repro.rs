//! `repro` — regenerate every table and figure of the LM-Offload paper
//! and gate the result.
//!
//! Usage: `repro [<lane>... | all] [--seed S] [--rps R] [--requests N]`
//! `[--storm P] [--fault-seed N] [--tokens N]`
//!
//! The lanes are the rows of [`LANES`]; a usage error prints them, and
//! README "Reproducing the paper" says what each one measures and gates.
//! Every lane writes its artifacts under `results/` and returns its
//! gates as values; after the last requested lane the runner prints one
//! `lane / gate / ok` table and exits 1 if any gate is false (2 on a
//! usage error). `repro all` with no flags reproduces every committed
//! deterministic `results/` file byte for byte (README "Testing").

#![forbid(unsafe_code)]

use lm_bench::cli::{flag_value, split_flag};
use lm_bench::experiments::*;
use lm_bench::table::{f, print_rows};
use lm_fault::StormProfile;
use lm_offload::{whatif_sweep, Axis, Table3Row};
use serde::Serialize;
use std::fs;
use std::path::Path;

/// The experiment inputs a lane may read; [`parse`] starts from the
/// configuration of the committed `results/`.
struct Args {
    seed: u64,
    rps: f64,
    requests: usize,
    storm: StormProfile,
    fault_seed: u64,
    tokens: u64,
}

/// One verdict of one lane; any `ok == false` fails the run.
struct Gate {
    lane: &'static str,
    name: &'static str,
    ok: bool,
}

fn gate(lane: &'static str, name: &'static str, ok: bool) -> Gate {
    Gate { lane, name, ok }
}

struct Lane {
    name: &'static str,
    /// Printed as the lane's header and in the usage text.
    title: &'static str,
    /// `repro all` runs it.
    in_all: bool,
    run: fn(&Args) -> Vec<Gate>,
}

#[rustfmt::skip]
const LANES: &[Lane] = &[
    Lane { name: "analyze", in_all: true, run: run_analyze, title: "Static analysis: lm-analyze lints over the shipped presets" },
    Lane { name: "table4", in_all: true, run: run_table4, title: "Table 4: evaluation platforms" },
    Lane { name: "whatif", in_all: true, run: run_whatif, title: "What-if sensitivity (OPT-66B, s=64, n=16; policy re-searched per point)" },
    Lane { name: "table1", in_all: true, run: run_table1, title: "Table 1: I/O traffic per generated token (OPT-30B, s=64, n=128, bls=640)" },
    Lane { name: "fig3", in_all: true, run: run_fig3, title: "Figure 3: offloading x quantization strategies (OPT-30B motivation)" },
    Lane { name: "fig4", in_all: true, run: run_fig4, title: "Figure 4: per-token time breakdown (quant / dequant / other)" },
    Lane { name: "fig5", in_all: true, run: run_fig5, title: "Figure 5: thread-level parallelism sweeps (OPT-30B, n=8)" },
    Lane { name: "table3", in_all: true, run: run_table3, title: "Table 3: FlexGen / ZeRO-Inference / LM-Offload, and the §5.2 headline speedups" },
    Lane { name: "fig7", in_all: true, run: run_fig7, title: "Figure 7: effective quantization (parallelism control disabled)" },
    Lane { name: "fig8", in_all: true, run: run_fig8, title: "Figure 8: thread-level parallelism control (OPT-30B, n=8)" },
    Lane { name: "table5", in_all: true, run: run_table5, title: "Table 5: LLC misses under default vs controlled threading" },
    Lane { name: "fig9", in_all: true, run: run_fig9, title: "Figure 9: multi-GPU weak scaling (pipeline parallelism)" },
    Lane { name: "faults", in_all: true, run: run_faults, title: "Fault injection: retry, backpressure, model-guided degradation" },
    Lane { name: "trace", in_all: true, run: run_trace, title: "Tracing & drift: lm-trace spans, Perfetto export, model-vs-measured ratios" },
    Lane { name: "serve", in_all: true, run: run_serve, title: "Serving: continuous batching vs baselines, shared-prefix study (OPT-30B)" },
    Lane { name: "chaos", in_all: true, run: run_chaos, title: "Chaos: a fault storm over the continuous scheduler" },
    Lane { name: "slo", in_all: true, run: run_slo, title: "SLO: observe vs enforcing under overload" },
    Lane { name: "obs", in_all: true, run: run_obs, title: "Observability: serve-path drift audit, exposition, flight recorder" },
    Lane { name: "verify", in_all: true, run: run_verify, title: "Verification: planner-space sweep + protocol model checking (DESIGN.md §10)" },
    Lane { name: "async", in_all: true, run: run_async, title: "Async serving: real-time streaming over the continuous scheduler" },
    Lane { name: "summary", in_all: false, run: run_summary, title: "§5.2 headline speedups alone (re-runs Table 3)" },
];

/// Write `results/<file>` — the one function that writes files.
fn save(file: &str, body: &str) -> std::io::Result<()> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    fs::write(dir.join(file), body)
}

/// The `artifact_written` gate: `body` serialised and reached
/// `results/<file>`. A lane that could not write what it computed has
/// not reproduced anything, whatever its other gates say.
fn artifact(lane: &'static str, file: &str, body: Result<String, serde_json::Error>) -> Gate {
    let written = body
        .map_err(std::io::Error::other)
        .and_then(|body| save(file, &body));
    if let Err(e) = &written {
        eprintln!("error: could not write results/{file}: {e}");
    }
    gate(lane, "artifact_written", written.is_ok())
}

/// [`artifact`] for the common case: `value` as `results/<lane>.json`.
fn artifact_json<T: Serialize>(lane: &'static str, value: &T) -> Gate {
    artifact(lane, &format!("{lane}.json"), serde_json::to_string_pretty(value))
}

fn run_table1(_: &Args) -> Vec<Gate> {
    let rows = table1::run();
    print_rows(
        &["scenario", "direction", "tensor", "ours (GiB)", "paper (GiB)"],
        &rows,
        |r| {
            vec![
                r.scenario.clone(),
                r.direction.clone(),
                r.tensor.clone(),
                f(r.ours_gib, 2),
                r.paper_gib.map(|p| f(p, 2)).unwrap_or_default(),
            ]
        },
    );
    vec![artifact_json("table1", &rows)]
}

fn run_fig3(_: &Args) -> Vec<Gate> {
    let rows = fig3::run();
    print_rows(&["strategy", "wg", "tokens/s"], &rows, |r| {
        vec![r.name.clone(), format!("{}%", r.wg), f(r.tput, 1)]
    });
    vec![artifact_json("fig3", &rows)]
}

fn run_fig4(_: &Args) -> Vec<Gate> {
    let rows = fig3::run_breakdown();
    print_rows(
        &["strategy", "quant (s)", "dequant (s)", "other (s)"],
        &rows,
        |r| {
            vec![
                r.name.clone(),
                f(r.quant, 3),
                f(r.dequant, 3),
                f(r.other, 3),
            ]
        },
    );
    vec![artifact_json("fig4", &rows)]
}

fn run_fig5(_: &Args) -> Vec<Gate> {
    let fig = fig5::run();
    for (name, series) in [("intra-op", &fig.intra_sweep), ("inter-op", &fig.inter_sweep)] {
        println!("-- {name} sweep --");
        print_rows(&["threads", "step (ms)", "rel tput"], series, |p| {
            vec![
                p.threads.to_string(),
                f(p.step_time * 1e3, 2),
                f(p.relative_tput, 3),
            ]
        });
    }
    vec![artifact_json("fig5", &fig)]
}

fn run_table3(_: &Args) -> Vec<Gate> {
    let rows = table3::run();
    print_rows(
        &["model", "len", "framework", "bsz", "wg", "cg", "hg", "w/kv bits", "mem", "tput", "norm"],
        &rows,
        |r| {
            vec![
                r.model.clone(),
                r.gen_len.to_string(),
                r.framework.clone(),
                r.bsz.to_string(),
                r.wg.to_string(),
                r.cg.to_string(),
                r.hg.to_string(),
                format!("{}b/{}b", r.weight_bits, r.kv_bits),
                f(r.mem_gib, 0),
                f(r.tput, 1),
                f(r.norm_tput, 2),
            ]
        },
    );
    vec![artifact_json("table3", &rows), summarise("table3", &rows)]
}

fn run_summary(_: &Args) -> Vec<Gate> {
    vec![summarise("summary", &table3::run())]
}

/// Print the §5.2 headline numbers of `rows` and write them to
/// `results/summary.json` on behalf of `lane`.
fn summarise(lane: &'static str, rows: &[Table3Row]) -> Gate {
    let s = summary::summarise(rows);
    println!("\n-- §5.2 headline speedups (paper: vs FlexGen up to 2.95x / avg 2.34x; vs ZeRO up to 2.88x / avg 1.57x) --");
    if let Some(fg) = s.vs_flexgen {
        println!("vs FlexGen:        up to {:.2}x ({:.2}x on average)", fg.max, fg.mean);
    }
    if let Some(z) = s.vs_zero {
        println!("vs ZeRO-Inference: up to {:.2}x ({:.2}x on average)", z.max, z.mean);
    }
    if s.baseline_wins.is_empty() {
        println!("baseline wins: none");
    } else {
        println!("baseline wins: {}", s.baseline_wins.join(", "));
    }
    artifact(lane, "summary.json", serde_json::to_string_pretty(&s))
}

fn run_table4(_: &Args) -> Vec<Gate> {
    let rows = table4::run();
    print_rows(&["platform", "cpu", "gpu", "interconnect"], &rows, |r| {
        vec![
            r.platform.clone(),
            format!("{} ({} cores, {:.0} GiB)", r.cpu, r.cores, r.host_mem_gib),
            format!("{}x {} ({:.0} GiB)", r.num_gpus, r.gpu, r.gpu_mem_gib),
            format!("{} ({:.0} GB/s bidir)", r.interconnect, r.bidir_bw_gbps),
        ]
    });
    vec![artifact_json("table4", &rows)]
}

fn run_table5(_: &Args) -> Vec<Gate> {
    let t = table5::run();
    print_rows(
        &["setting", "load miss (sim)", "store miss (sim)", "load (scaled)", "store (scaled)"],
        &t.rows,
        |r| {
            vec![
                r.setting.clone(),
                r.load_misses_sim.to_string(),
                r.store_misses_sim.to_string(),
                format!("{:.1}B", r.load_misses_scaled as f64 / 1e9),
                format!("{:.1}B", r.store_misses_scaled as f64 / 1e9),
            ]
        },
    );
    println!(
        "reduction: loads {:.0}% stores {:.0}% (paper: ~38-40%, 10B->6B / 19B->12B)",
        t.load_reduction_pct, t.store_reduction_pct
    );
    vec![artifact_json("table5", &t)]
}

fn run_fig7(_: &Args) -> Vec<Gate> {
    let rows = fig7::run();
    print_rows(
        &["model", "len", "FlexGen", "LM-Offload (no ctl)", "gain"],
        &rows,
        |r| {
            vec![
                r.model.clone(),
                r.gen_len.to_string(),
                f(r.flexgen_tput, 1),
                f(r.lm_offload_noctl_tput, 1),
                format!("{:+.0}%", r.gain_pct),
            ]
        },
    );
    vec![artifact_json("fig7", &rows)]
}

fn run_fig8(_: &Args) -> Vec<Gate> {
    let fig = fig8::run();
    print_rows(
        &["task", "default (s)", "controlled (s)", "reduction"],
        &fig.tasks,
        |t| {
            vec![
                t.task.clone(),
                f(t.default_secs, 2),
                f(t.controlled_secs, 2),
                format!("-{:.0}%", t.reduction_pct),
            ]
        },
    );
    println!(
        "end-to-end: {:.2}s -> {:.2}s (-{:.0}%; paper: -38%)",
        fig.default_end_to_end, fig.controlled_end_to_end, fig.end_to_end_reduction_pct
    );
    println!(
        "plan: inter-op {} (compute {} + 5 transfers), intra-op {} (paper: 12 / 16)",
        fig.plan.inter_op_total, fig.plan.inter_op_compute, fig.plan.intra_op_compute
    );
    println!("\n-- decode timeline (first step, first layers; controlled threading) --");
    println!("{}", fig8::gantt_first_step(80));
    vec![artifact_json("fig8", &fig)]
}

fn run_fig9(_: &Args) -> Vec<Gate> {
    let rows = fig9::run();
    print_rows(
        &["model", "GPUs", "FlexGen", "LM-Offload", "speedup"],
        &rows,
        |r| {
            vec![
                r.model.clone(),
                r.num_gpus.to_string(),
                f(r.flexgen_tput, 1),
                f(r.lm_offload_tput, 1),
                format!("{:.2}x", r.speedup),
            ]
        },
    );
    vec![artifact_json("fig9", &rows)]
}

fn run_whatif(_: &Args) -> Vec<Gate> {
    let platform = lm_hardware::presets::single_gpu_a100();
    let model = lm_models::presets::opt_66b();
    let factors = [0.5, 1.0, 2.0, 4.0];
    let mut curves = Vec::new();
    for axis in Axis::ALL {
        let c = whatif_sweep(axis, &platform, &model, 64, 16, &factors);
        println!("-- {} --", c.axis);
        print_rows(
            &["scale", "tok/s", "wg", "w/kv", "attn", "block"],
            &c.points,
            |pt| {
                vec![
                    format!("{:.1}x", pt.factor),
                    f(pt.throughput, 1),
                    format!("{}%", pt.wg_pct),
                    format!("{}b/{}b", pt.weight_bits, pt.kv_bits),
                    if pt.attention_on_cpu { "CPU" } else { "GPU" }.into(),
                    pt.block_size.to_string(),
                ]
            },
        );
        curves.push(c);
    }
    vec![artifact_json("whatif", &curves)]
}

fn run_analyze(_: &Args) -> Vec<Gate> {
    let rows = analyze::run();
    print_rows(&["preset", "inter/intra", "errors", "warnings"], &rows, |r| {
        vec![
            r.preset.clone(),
            format!("{}/{}", r.inter_op_total, r.intra_op_compute),
            r.errors.to_string(),
            r.warnings.to_string(),
        ]
    });
    for r in &rows {
        for d in &r.diagnostics {
            println!("  {}: {d}", r.preset);
        }
    }
    vec![
        artifact_json("analyze", &rows),
        gate("analyze", "zero_error_diagnostics", rows.iter().all(|r| r.errors == 0)),
    ]
}

fn run_faults(a: &Args) -> Vec<Gate> {
    println!("fault seed {}", a.fault_seed);
    let r = faults::run(a.fault_seed);
    println!(
        "checkpoint: {} layers, loaded={} (disk faults {}, torn {}, retries {}, recovered {})",
        r.checkpoint.layers,
        r.checkpoint.loaded,
        r.checkpoint.disk_io_faults,
        r.checkpoint.torn_reads,
        r.checkpoint.retries,
        r.checkpoint.retry_successes
    );
    println!(
        "degradation: completed={} ({} tokens/row, {} policy switch(es) -> {}-bit weights; {} pressure spikes, {} prefetch drops)",
        r.degradation.completed,
        r.degradation.tokens_per_row,
        r.degradation.policy_switches,
        r.degradation.final_weight_bits,
        r.degradation.pool_pressure_spikes,
        r.degradation.prefetch_drops
    );
    println!(
        "simulator: decode {:.2}s -> {:.2}s ({:.2}x) under {} degraded link windows, {} stalls (+{}ms)",
        r.sim.clean_decode_s,
        r.sim.faulted_decode_s,
        r.sim.slowdown,
        r.sim.link_degrades,
        r.sim.transfer_stalls,
        r.sim.stall_ms_total
    );
    vec![artifact_json("faults", &r)]
}

fn run_trace(a: &Args) -> Vec<Gate> {
    println!("{} tokens", a.tokens);
    let (r, perfetto_json) = trace::run(a.tokens);
    println!(
        "sim: {} spans over {} decode steps ({:.3}s simulated decode)",
        r.sim.spans, r.sim.steps, r.sim.decode_s
    );
    print_rows(
        &["task", "predicted (s)", "observed (s)", "obs/pred"],
        &r.sim.drift.tasks,
        |t| {
            vec![
                t.task.clone(),
                f(t.predicted_s, 4),
                f(t.observed_s, 4),
                t.ratio.map(|x| f(x, 4)).unwrap_or_else(|| "-".into()),
            ]
        },
    );
    println!(
        "max ratio error: {:.2e} (simulator replays the model: must be ~0)",
        r.sim.drift.max_ratio_error
    );
    println!(
        "engine: {} tokens, {} task spans + {} scopes, load_weight {:.4}s / compute {:.4}s busy",
        r.engine.tokens_generated,
        r.engine.spans,
        r.engine.scopes,
        r.engine.load_weight_s,
        r.engine.compute_s
    );
    println!(
        "results/trace.json: {} events (open at https://ui.perfetto.dev)",
        r.engine.perfetto_events
    );
    vec![
        artifact("trace", "trace.json", Ok(perfetto_json)),
        artifact("trace", "trace_drift.json", serde_json::to_string_pretty(&r)),
        gate("trace", "perfetto_events_nonzero", r.engine.perfetto_events > 0),
        gate("trace", "max_ratio_error_finite", r.sim.drift.max_ratio_error.is_finite()),
    ]
}

fn print_serve_modes(modes: &[serve::ModeRow]) {
    print_rows(
        &["mode", "done", "sim (s)", "tok/s", "ttft p50", "p95", "lat p95", "pad", "pages", "shared", "miss"],
        modes,
        |m| {
            vec![
                m.mode.clone(),
                format!("{}/{}", m.completed, m.completed + m.rejected),
                f(m.sim_seconds, 1),
                f(m.tokens_per_s, 2),
                f(m.ttft.p50_s, 1),
                f(m.ttft.p95_s, 1),
                f(m.latency.p95_s, 1),
                m.padding_tokens.to_string(),
                m.kv_pages_peak.to_string(),
                m.shared_tokens.to_string(),
                m.deadline_misses.to_string(),
            ]
        },
    );
}

/// The one-line input echo of the virtual-clock serve lanes.
fn print_traffic(a: &Args) {
    println!("{} requests @ {} rps, seed {}", a.requests, a.rps, a.seed);
}

fn run_serve(a: &Args) -> Vec<Gate> {
    print_traffic(a);
    let r = serve::run(a.seed, a.rps, a.requests);
    println!(
        "plan: {} slots x {} ctx, {:.1} MiB/slot, pool {:.1} MiB = {} pages x {} tok, kahn width {}, est {:.1} tok/s",
        r.plan.slots,
        r.plan.slot_context,
        r.plan.kv_bytes_per_slot as f64 / (1 << 20) as f64,
        r.plan.kv_pool_bytes as f64 / (1 << 20) as f64,
        r.plan.pages_total,
        r.plan.page_tokens,
        r.plan.kahn_width,
        r.plan.est_tokens_per_s
    );
    print_serve_modes(&r.modes);
    println!(
        "speedup: {:.2}x vs sequential (floor {:.1}x), {:.2}x vs static; paged rejections: {}",
        r.speedup_vs_sequential,
        serve::MIN_SPEEDUP_VS_SEQUENTIAL,
        r.speedup_vs_static,
        r.modes[0].rejected
    );
    let mut gates = vec![
        artifact_json("serve", &r),
        gate("serve", "dominance_ok", r.dominance_ok),
        gate("serve", "paged_zero_rejections", r.paged_zero_rejections),
    ];
    if let Some(sp) = &r.shared_prefix {
        println!(
            "\n-- shared-prefix study: {} requests sharing a {}-token system prompt --",
            sp.requests, sp.prefix_len
        );
        print_serve_modes(&sp.modes);
        println!(
            "effective speedup vs unshared control: {:.3}x ({} prefix hits, {} shared tokens, {} COW forks, {} paged rejections)",
            sp.effective_speedup,
            sp.modes[0].shared_prefix_hits,
            sp.modes[0].shared_tokens,
            sp.modes[0].cow_forks,
            sp.paged_rejections
        );
        gates.push(gate("serve", "superlinear_ok", sp.superlinear_ok));
    }
    gates
}

fn run_chaos(a: &Args) -> Vec<Gate> {
    println!("{} storm", a.storm.name());
    print_traffic(a);
    let r = chaos::run(a.seed, a.storm, a.rps, a.requests);
    println!(
        "resolved {}/{} (completed {}, rejected {}, cancelled {}); admissions {} = completed {} + cancel {} + preempt {} + crash {}",
        r.resolved,
        r.requests,
        r.completed,
        r.rejected,
        r.cancelled,
        r.stats.admitted,
        r.stats.completed,
        r.stats.cancelled_in_slot,
        r.stats.preemptions,
        r.stats.slot_crashes
    );
    println!(
        "injected: {} disconnects, {} slot crashes, {} pool spikes, {} stalls (+{}ms), {} retries; {} log events dropped",
        r.faults.client_disconnects,
        r.faults.slot_crashes,
        r.faults.pool_pressure_spikes,
        r.faults.transfer_stalls,
        r.faults.stall_ms_total,
        r.faults.retries,
        r.faults.dropped_events
    );
    println!(
        "invariants: leases={} pages={} resolution={} conservation={} transparency={} ({} survivors) replay={}",
        r.invariants.zero_leaked_leases,
        r.invariants.zero_leaked_pages,
        r.invariants.all_resolved,
        r.invariants.admissions_balanced,
        r.invariants.survivors_transparent,
        r.survivors_checked,
        r.invariants.replay_identical
    );
    vec![
        artifact_json("chaos", &r),
        gate("chaos", "invariants_ok", r.invariants_ok),
    ]
}

fn run_slo(a: &Args) -> Vec<Gate> {
    print_traffic(a);
    let r = slo::run(a.seed, a.rps, a.requests);
    println!(
        "objective: p99 TTFT <= {:.1}s (floor {:.1}s x {:.1}); model-guided ladder: {} rungs",
        r.ttft_p99_slo_s,
        r.floor_ttft_s,
        slo::SLO_FLOOR_HEADROOM,
        r.ladder_rungs
    );
    print_rows(
        &["mode", "done", "p99 ttft", "meets", "shed", "preempt", "degrade", "pred viol", "tok/s"],
        [&r.observe, &r.enforced],
        |m| {
            vec![
                m.mode.clone(),
                format!("{}/{}", m.completed, r.requests),
                f(m.achieved_ttft_p99_s, 1),
                if m.meets_slo { "yes" } else { "NO" }.into(),
                m.shed.to_string(),
                m.preemptions.to_string(),
                m.degradations.to_string(),
                m.predicted_violations.to_string(),
                f(m.tokens_per_s, 2),
            ]
        },
    );
    println!(
        "throughput: enforcing {:.2} tok/s vs sequential {:.2} tok/s",
        r.enforced.tokens_per_s, r.sequential_tokens_per_s
    );
    vec![artifact_json("slo", &r), gate("slo", "slo_ok", r.slo_ok)]
}

fn run_obs(a: &Args) -> Vec<Gate> {
    print_traffic(a);
    let (r, timeline) = obs::run(a.seed, a.rps, a.requests);
    println!(
        "record: {} lifecycle events, {} boundary samples, {} TTFT pairs over {} slots",
        r.lifecycle_events, r.boundary_samples, r.ttft_samples, r.plan.slots
    );
    print_rows(
        &["metric", "predicted", "observed", "obs/pred", "tolerance", "verdict"],
        &r.drift_gates,
        |g| {
            let m = r.drift.metric(&g.metric);
            vec![
                g.metric.clone(),
                m.map(|m| f(m.predicted, 3)).unwrap_or_default(),
                m.map(|m| f(m.observed, 3)).unwrap_or_default(),
                f(g.ratio, 4),
                format!("±{:.0}%", g.tolerance * 100.0),
                if g.ok { "ok" } else { "DRIFT" }.into(),
            ]
        },
    );
    println!(
        "exposition: {} bytes, round-trip {}; flight: '{}' ({} events, {} dropped), round-trip {}; lints: {} errors / {} warnings",
        r.exposition.len(),
        if r.expo_round_trip_ok { "ok" } else { "FAILED" },
        r.flight.reason,
        r.flight.events.len(),
        r.flight.dropped,
        if r.flight_round_trip_ok { "ok" } else { "FAILED" },
        r.lint_errors,
        r.lint_warnings
    );
    vec![
        artifact_json("obs", &r),
        artifact("obs", "serve_timeline.json", Ok(timeline)),
        // The Perfetto serve timeline (open at https://ui.perfetto.dev)
        // is drawn from the lifecycle record: no events, no timeline.
        gate("obs", "timeline_nonempty", r.lifecycle_events > 0),
        gate("obs", "drift_ok", r.drift_ok),
        gate("obs", "obs_ok", r.obs_ok),
    ]
}

fn run_verify(_: &Args) -> Vec<Gate> {
    let r = verify::run(lm_verify::SweepDepth::Full, "results/serve.json");
    println!(
        "sweep ({}): {} configs over {} axes -> {} consistent, {} incomplete, {} unsound (floor {})",
        r.sweep_depth,
        r.configs_explored,
        r.axes.len(),
        r.consistent,
        r.incompleteness,
        r.unsoundness.len(),
        r.configs_floor
    );
    for w in &r.unsoundness {
        println!("  UNSOUND [{}] {}: {}", w.config, w.invariant, w.detail);
    }
    println!(
        "mutation: over-grant-one-page -> {} witnesses, LMA291 {} (caught={})",
        r.mutation_witnesses,
        if r.mutated_lint_has_lma291 { "fires" } else { "SILENT" },
        r.mutation_caught
    );
    for p in &r.protocols {
        println!(
            "protocol {}: {} interleavings, {}/{} transitions exercised, {}{}",
            p.name,
            p.interleavings,
            p.exercised.len(),
            p.declared.len(),
            if p.passed() { "passed" } else { "FAILED" },
            p.failure
                .as_deref()
                .map(|f| format!(" ({f})"))
                .unwrap_or_default()
        );
    }
    println!(
        "interleavings: {} total (floor {}); lints: {} errors / {} warnings",
        r.interleavings_total, r.interleavings_floor, r.lint_errors, r.lint_warnings
    );
    for d in &r.diagnostics {
        println!("  {d}");
    }
    match (r.zero_cost.snapshot_tokens_per_s, r.zero_cost.rel_delta) {
        (Some(snap), Some(rel)) => println!(
            "zero-cost-off: {:.6} tok/s vs snapshot {:.6} (rel delta {:.2e}) -> {}",
            r.zero_cost.measured_tokens_per_s,
            snap,
            rel,
            if r.zero_cost.ok { "ok" } else { "REGRESSED" }
        ),
        _ => println!(
            "zero-cost-off: {:.6} tok/s (no results/serve.json snapshot; skipped)",
            r.zero_cost.measured_tokens_per_s
        ),
    }
    vec![
        artifact_json("verify", &r),
        gate("verify", "mutation_caught", r.mutation_caught),
        gate("verify", "verify_ok", r.verify_ok),
    ]
}

fn run_async(a: &Args) -> Vec<Gate> {
    println!("{} requests, seed {}", async_rt::DEFAULT_REQUESTS, a.seed);
    let r = async_rt::run(a.seed, async_rt::DEFAULT_REQUESTS);
    println!(
        "calibration: {:.3} virtual s compressed at {:.1}x -> {:.3} wall s ({:.1} wall tok/s, mean wall TTFT {:.1} ms)",
        r.virtual_sim_seconds,
        r.time_scale,
        r.wall_seconds,
        r.wall_tokens_per_s,
        r.wall_ttft_mean_s * 1e3
    );
    println!(
        "resolved: {} completed, {} rejected, {} mid-stream disconnects of {} requests",
        r.completed, r.rejected, r.disconnects, r.requests
    );
    vec![
        artifact_json("async", &r),
        gate("async", "transparency_ok", r.transparency_ok),
        gate("async", "zero_leak_ok", r.zero_leak_ok),
        gate("async", "async_ok", r.async_ok),
    ]
}

fn usage() -> String {
    let width = LANES.iter().map(|l| l.name.len()).max().unwrap_or(0);
    let mut text = String::from(
        "usage: repro [<lane>... | all] [--seed S] [--rps R] [--requests N]\n\
         \x20            [--storm P] [--fault-seed N] [--tokens N]\n\
         lanes (`all`, the default, runs every lane not marked *):\n",
    );
    for l in LANES {
        let mark = if l.in_all { ' ' } else { '*' };
        text.push_str(&format!(" {mark}{:width$}  {}\n", l.name, l.title));
    }
    text
}

/// Parse the command line into the lanes to run, in order, and their
/// inputs. Anything unrecognised is an error: a mistyped flag must not
/// silently run the default experiment.
fn parse(argv: &[String]) -> Result<(Vec<&'static Lane>, Args), String> {
    let mut args = Args {
        seed: DEFAULT_SEED,
        rps: DEFAULT_RPS,
        requests: DEFAULT_REQUESTS,
        storm: StormProfile::Default,
        fault_seed: faults::DEFAULT_FAULT_SEED,
        tokens: trace::DEFAULT_TOKENS,
    };
    let mut lanes: Vec<&'static Lane> = Vec::new();
    let mut rest = argv.iter();
    while let Some(a) = rest.next() {
        let Some((key, inline)) = split_flag(a) else {
            if a == "all" {
                lanes.extend(LANES.iter().filter(|l| l.in_all));
            } else {
                let lane = LANES.iter().find(|l| l.name == a);
                lanes.push(lane.ok_or_else(|| format!("unknown lane '{a}'"))?);
            }
            continue;
        };
        let rest = &mut rest;
        match key {
            "seed" => {
                args.seed = flag_value(key, inline, rest, "an integer", |v| v.parse().ok())?
            }
            "fault-seed" => {
                args.fault_seed = flag_value(key, inline, rest, "an integer", |v| v.parse().ok())?
            }
            "rps" => {
                args.rps = flag_value(key, inline, rest, "a positive number", |v| {
                    v.parse().ok().filter(|r: &f64| *r > 0.0 && r.is_finite())
                })?
            }
            "requests" => {
                args.requests = flag_value(key, inline, rest, "a positive integer", |v| {
                    v.parse().ok().filter(|n| *n >= 1)
                })?
            }
            "tokens" => {
                args.tokens = flag_value(key, inline, rest, "a positive integer", |v| {
                    v.parse().ok().filter(|t| *t >= 1)
                })?
            }
            "storm" => {
                let names: Vec<&str> = StormProfile::ALL.iter().map(|p| p.name()).collect();
                let expects = format!("one of {}", names.join("|"));
                args.storm = flag_value(key, inline, rest, &expects, StormProfile::parse)?
            }
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    if lanes.is_empty() {
        lanes.extend(LANES.iter().filter(|l| l.in_all));
    }
    Ok((lanes, args))
}

/// Run every lane to the end — a failed gate never hides a later
/// lane's verdict — and collect the gates.
fn run_lanes(lanes: &[&Lane], args: &Args) -> Vec<Gate> {
    let mut gates = Vec::new();
    for lane in lanes {
        println!("\n== {} ==", lane.title);
        gates.extend((lane.run)(args));
    }
    gates
}

/// Print the gate table; the process exit code is 1 if any gate failed.
fn report(gates: &[Gate]) -> i32 {
    println!("\n== Gates ==");
    print_rows(&["lane", "gate", "ok"], gates, |g| {
        let verdict = if g.ok { "ok" } else { "FAILED" };
        vec![g.lane.to_string(), g.name.to_string(), verdict.to_string()]
    });
    let failed = gates.iter().filter(|g| !g.ok).count();
    if failed > 0 {
        eprintln!("error: {failed} of {} gates failed", gates.len());
    }
    i32::from(failed > 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (lanes, args) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", usage());
        std::process::exit(2)
    });
    std::process::exit(report(&run_lanes(&lanes, &args)));
}
