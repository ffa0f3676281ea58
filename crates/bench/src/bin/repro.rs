//! `repro` — regenerate every table and figure of the LM-Offload paper.
//!
//! Usage:
//!   repro <experiment> [--fast] [--fault-seed N] [--tokens N]
//!                      [--rps R] [--requests N] [--seed S]
//!                      [--storm <profile>] [--shared-prefix]
//!                      [--sweep quick|full]
//!   repro all [--fast]
//!
//! Experiments: analyze table1 table3 table4 table5 fig3 fig4 fig5 fig7
//! fig8 fig9 whatif faults summary trace serve chaos slo obs verify
//! async.
//! `analyze` runs
//! the `lm-analyze` static linter over the shipped presets (plus the
//! default serving plan and SLO policy) and exits non-zero on any
//! `Error`-level diagnostic. `serve` replays a seeded traffic trace
//! through the continuous-batching scheduler and both baselines (`--rps`, `--requests`, `--seed`) and exits
//! non-zero unless continuous batching dominates and the paged
//! scheduler rejects nothing; `--shared-prefix` adds the cross-request
//! prefix-sharing study, which must beat its unshared control
//! super-linearly. `chaos` drives the scheduler under a
//! seeded fault storm (`--seed`, `--storm default|pool-squeeze|`
//! `disconnects|crashes|blackout`) and exits non-zero unless every
//! resilience invariant holds (zero leaked KV leases and pages, total
//! resolution,
//! conservation, solo-run transparency, byte-identical replay). `slo`
//! serves the trace in observe vs enforcing mode under a TTFT objective
//! and exits non-zero unless enforcement meets the SLO that observe mode
//! violates. `--fast` restricts Table-3-derived sweeps to two generation
//! lengths; `--fault-seed N` sets the deterministic fault plan of the
//! `faults` experiment; `--tokens N` sets the token count of the `trace`
//! experiment. JSON results are written to `results/<experiment>.json`;
//! `trace` additionally writes the engine timeline as Chrome/Perfetto
//! trace JSON to `results/trace.json` (load it at
//! https://ui.perfetto.dev) and the model-vs-measured drift report to
//! `results/trace_drift.json`. `obs` audits the serve path's
//! observability surfaces (DESIGN.md §13) — drift ratios vs documented
//! tolerances, OpenMetrics round-trip, a flight-recorder post-mortem
//! from an injected overload, `LMA27x` lints — writing `results/obs.json`
//! plus the Perfetto serve timeline to `results/serve_timeline.json`,
//! and exits non-zero unless every gate holds. `verify` runs the exhaustive bounded verification lane (DESIGN.md §15): the
//! planner-space sweep against executable ground truth (`--sweep
//! quick|full` picks the lattice), a seeded over-grant mutation that
//! must be caught as `LMA291`, preemption-bounded model checking of the
//! paged-KV and scheduler protocols, the `LMA29x` lints over the
//! assembled probe, and the zero-cost-off throughput comparison against
//! the committed `results/serve.json` —
//! writing deterministic `results/verify.json` and exiting non-zero
//! unless every gate holds. `async` drives the real-time serving lane
//! (DESIGN.md §16): `ServeSession::run_async` on the miniature engine
//! with tokio streaming clients and mid-stream disconnects — output
//! transparency, zero KV leaks and total resolution are gated;
//! wall-clock TTFT/throughput are recorded into `results/async.json`
//! but never byte-compared.

use lm_bench::experiments::*;
use lm_bench::table::{f, render};
use lm_offload::{whatif_sweep, Axis};
use serde::Serialize;
use std::fs;
use std::path::Path;

fn save<T: Serialize>(name: &str, value: &T) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(json) => {
                if let Err(e) = fs::write(&path, json) {
                    eprintln!("warning: could not write {}: {e}", path.display());
                }
            }
            Err(e) => eprintln!("warning: could not serialise {name}: {e}"),
        }
    }
}

fn run_table1() {
    println!("\n== Table 1: I/O traffic per generated token (OPT-30B, s=64, n=128, bls=640) ==");
    let rows = table1::run();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.direction.clone(),
                r.tensor.clone(),
                f(r.ours_gib, 2),
                r.paper_gib.map(|p| f(p, 2)).unwrap_or_default(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["scenario", "direction", "tensor", "ours (GiB)", "paper (GiB)"],
            &rendered
        )
    );
    save("table1", &rows);
}

fn run_fig3() {
    println!("\n== Figure 3: offloading x quantization strategies (OPT-30B motivation) ==");
    let rows = fig3::run();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.name.clone(), format!("{}%", r.wg), f(r.tput, 1)])
        .collect();
    println!("{}", render(&["strategy", "wg", "tokens/s"], &rendered));
    save("fig3", &rows);
}

fn run_fig4() {
    println!("\n== Figure 4: per-token time breakdown (quant / dequant / other) ==");
    let rows = fig3::run_breakdown();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                f(r.quant, 3),
                f(r.dequant, 3),
                f(r.other, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["strategy", "quant (s)", "dequant (s)", "other (s)"], &rendered)
    );
    save("fig4", &rows);
}

fn run_fig5() {
    println!("\n== Figure 5: thread-level parallelism sweeps (OPT-30B, n=8) ==");
    let fig = fig5::run();
    for (name, series) in [("intra-op", &fig.intra_sweep), ("inter-op", &fig.inter_sweep)] {
        let rendered: Vec<Vec<String>> = series
            .iter()
            .map(|p| {
                vec![
                    p.threads.to_string(),
                    f(p.step_time * 1e3, 2),
                    f(p.relative_tput, 3),
                ]
            })
            .collect();
        println!("-- {name} sweep --");
        println!(
            "{}",
            render(&["threads", "step (ms)", "rel tput"], &rendered)
        );
    }
    save("fig5", &fig);
}

fn run_table3(lens: &[u64]) {
    println!("\n== Table 3: FlexGen / ZeRO-Inference / LM-Offload ==");
    let rows = table3::run(lens);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
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
        })
        .collect();
    println!(
        "{}",
        render(
            &["model", "len", "framework", "bsz", "wg", "cg", "hg", "w/kv bits", "mem", "tput", "norm"],
            &rendered
        )
    );
    save("table3", &rows);

    let s = summary::summarise(&rows);
    print_summary(&s);
    save("summary", &s);
}

fn print_summary(s: &summary::Summary) {
    println!("\n== §5.2 headline speedups (paper: vs FlexGen up to 2.95x / avg 2.34x; vs ZeRO up to 2.88x / avg 1.57x) ==");
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
}

fn run_table4() {
    println!("\n== Table 4: evaluation platforms ==");
    let rows = table4::run();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.platform.clone(),
                format!("{} ({} cores, {:.0} GiB)", r.cpu, r.cores, r.host_mem_gib),
                format!("{}x {} ({:.0} GiB)", r.num_gpus, r.gpu, r.gpu_mem_gib),
                format!("{} ({:.0} GB/s bidir)", r.interconnect, r.bidir_bw_gbps),
            ]
        })
        .collect();
    println!("{}", render(&["platform", "cpu", "gpu", "interconnect"], &rendered));
    save("table4", &rows);
}

fn run_table5() {
    println!("\n== Table 5: LLC misses under default vs controlled threading ==");
    let t = table5::run();
    let rendered: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                r.load_misses_sim.to_string(),
                r.store_misses_sim.to_string(),
                format!("{:.1}B", r.load_misses_scaled as f64 / 1e9),
                format!("{:.1}B", r.store_misses_scaled as f64 / 1e9),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["setting", "load miss (sim)", "store miss (sim)", "load (scaled)", "store (scaled)"],
            &rendered
        )
    );
    println!(
        "reduction: loads {:.0}% stores {:.0}% (paper: ~38-40%, 10B->6B / 19B->12B)",
        t.load_reduction_pct, t.store_reduction_pct
    );
    save("table5", &t);
}

fn run_fig7(lens: &[u64]) {
    println!("\n== Figure 7: effective quantization (parallelism control disabled) ==");
    let rows = fig7::run(lens);
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.gen_len.to_string(),
                f(r.flexgen_tput, 1),
                f(r.lm_offload_noctl_tput, 1),
                format!("{:+.0}%", r.gain_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["model", "len", "FlexGen", "LM-Offload (no ctl)", "gain"],
            &rendered
        )
    );
    save("fig7", &rows);
}

fn run_fig8() {
    println!("\n== Figure 8: thread-level parallelism control (OPT-30B, n=8) ==");
    let fig = fig8::run();
    let rendered: Vec<Vec<String>> = fig
        .tasks
        .iter()
        .map(|t| {
            vec![
                t.task.clone(),
                f(t.default_secs, 2),
                f(t.controlled_secs, 2),
                format!("-{:.0}%", t.reduction_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["task", "default (s)", "controlled (s)", "reduction"], &rendered)
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
    save("fig8", &fig);
}

fn run_fig9() {
    println!("\n== Figure 9: multi-GPU weak scaling (pipeline parallelism) ==");
    let rows = fig9::run();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                r.num_gpus.to_string(),
                f(r.flexgen_tput, 1),
                f(r.lm_offload_tput, 1),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["model", "GPUs", "FlexGen", "LM-Offload", "speedup"], &rendered)
    );
    save("fig9", &rows);
}

fn run_whatif() {
    println!("\n== What-if sensitivity (OPT-66B, s=64, n=16; policy re-searched per point) ==");
    let platform = lm_hardware::presets::single_gpu_a100();
    let model = lm_models::presets::opt_66b();
    let factors = [0.5, 1.0, 2.0, 4.0];
    let mut curves = Vec::new();
    for axis in Axis::ALL {
        let c = whatif_sweep(axis, &platform, &model, 64, 16, &factors);
        let rendered: Vec<Vec<String>> = c
            .points
            .iter()
            .map(|pt| {
                vec![
                    format!("{:.1}x", pt.factor),
                    f(pt.throughput, 1),
                    format!("{}%", pt.wg_pct),
                    format!("{}b/{}b", pt.weight_bits, pt.kv_bits),
                    if pt.attention_on_cpu { "CPU" } else { "GPU" }.into(),
                    pt.block_size.to_string(),
                ]
            })
            .collect();
        println!("-- {} --", c.axis);
        println!(
            "{}",
            render(&["scale", "tok/s", "wg", "w/kv", "attn", "block"], &rendered)
        );
        curves.push(c);
    }
    save("whatif", &curves);
}

fn run_analyze() {
    println!("\n== Static analysis: lm-analyze lints over the shipped presets ==");
    let rows = analyze::run();
    let rendered: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.preset.clone(),
                format!("{}/{}", r.inter_op_total, r.intra_op_compute),
                r.errors.to_string(),
                r.warnings.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["preset", "inter/intra", "errors", "warnings"], &rendered)
    );
    let mut all_clean = true;
    for r in &rows {
        for d in &r.diagnostics {
            println!("  {}: {d}", r.preset);
        }
        all_clean &= r.errors == 0;
    }
    save("analyze", &rows);
    if all_clean {
        println!("all shipped presets are clean (zero error diagnostics)");
    } else {
        eprintln!("error: a shipped preset has error-level diagnostics");
        std::process::exit(1);
    }
}

fn run_faults(fault_seed: u64) {
    println!("\n== Fault injection: retry, backpressure, model-guided degradation (seed {fault_seed}) ==");
    let r = faults::run(fault_seed);
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
    save("faults", &r);
}

fn run_trace(tokens: u64) {
    println!("\n== Tracing & drift: lm-trace spans, Perfetto export, model-vs-measured ratios ({tokens} tokens) ==");
    let (r, perfetto_json) = trace::run(tokens);
    println!(
        "sim: {} spans over {} decode steps ({:.3}s simulated decode)",
        r.sim.spans, r.sim.steps, r.sim.decode_s
    );
    let rendered: Vec<Vec<String>> = r
        .sim
        .drift
        .tasks
        .iter()
        .map(|t| {
            vec![
                t.task.clone(),
                f(t.predicted_s, 4),
                f(t.observed_s, 4),
                t.ratio.map(|x| f(x, 4)).unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["task", "predicted (s)", "observed (s)", "obs/pred"], &rendered)
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
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join("trace.json");
        match fs::write(&path, &perfetto_json) {
            Ok(()) => println!(
                "wrote {} ({} events; open at https://ui.perfetto.dev)",
                path.display(),
                r.engine.perfetto_events
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    save("trace_drift", &r);
}

fn serve_mode_table(modes: &[serve::ModeRow]) -> String {
    let rendered: Vec<Vec<String>> = modes
        .iter()
        .map(|m| {
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
        })
        .collect();
    render(
        &["mode", "done", "sim (s)", "tok/s", "ttft p50", "p95", "lat p95", "pad", "pages", "shared", "miss"],
        &rendered,
    )
}

fn run_serve(seed: u64, rps: f64, requests: usize, shared_prefix: bool) {
    println!(
        "\n== Serving: continuous batching vs baselines (OPT-30B, {requests} requests @ {rps} rps, seed {seed}) =="
    );
    let mut r = serve::run(seed, rps, requests);
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
    println!("{}", serve_mode_table(&r.modes));
    println!(
        "speedup: {:.2}x vs sequential (floor {:.1}x), {:.2}x vs static; paged rejections: {}",
        r.speedup_vs_sequential,
        serve::MIN_SPEEDUP_VS_SEQUENTIAL,
        r.speedup_vs_static,
        r.modes[0].rejected
    );
    if shared_prefix {
        let sp = serve::run_shared_prefix(seed, rps, requests, serve::DEFAULT_PREFIX_LEN);
        println!(
            "\n-- shared-prefix study: {} requests sharing a {}-token system prompt --",
            sp.requests, sp.prefix_len
        );
        println!("{}", serve_mode_table(&sp.modes));
        println!(
            "effective speedup vs unshared control: {:.3}x ({} prefix hits, {} shared tokens, {} COW forks, {} paged rejections)",
            sp.effective_speedup,
            sp.modes[0].shared_prefix_hits,
            sp.modes[0].shared_tokens,
            sp.modes[0].cow_forks,
            sp.paged_rejections
        );
        r.shared_prefix = Some(sp);
    }
    save("serve", &r);
    if !r.dominance_ok {
        eprintln!("error: continuous batching failed to dominate the baselines");
        std::process::exit(1);
    }
    if !r.paged_zero_rejections {
        eprintln!("error: the paged scheduler rejected requests at the default plan");
        std::process::exit(1);
    }
    if let Some(sp) = &r.shared_prefix {
        if !sp.superlinear_ok {
            eprintln!("error: prefix sharing failed to beat the unshared control");
            std::process::exit(1);
        }
        println!("superlinear_ok: sharing beats the unshared control with zero rejections");
    }
}

fn run_chaos(seed: u64, storm: lm_fault::StormProfile, rps: f64, requests: usize) {
    println!(
        "\n== Chaos: {} storm over the continuous scheduler ({requests} requests @ {rps} rps, seed {seed}) ==",
        storm.name()
    );
    let r = chaos::run(seed, storm, rps, requests);
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
    let ok = r.invariants_ok;
    save("chaos", &r);
    if ok {
        println!("invariants_ok: every resilience invariant holds");
    } else {
        eprintln!("error: a chaos invariant was violated");
        std::process::exit(1);
    }
}

fn run_slo(seed: u64, rps: f64, requests: usize) {
    println!(
        "\n== SLO: observe vs enforcing under overload ({requests} requests @ {rps} rps, seed {seed}) =="
    );
    let r = slo::run(seed, rps, requests);
    println!(
        "objective: p99 TTFT <= {:.1}s (floor {:.1}s x {:.1}); model-guided ladder: {} rungs",
        r.ttft_p99_slo_s,
        r.floor_ttft_s,
        slo::SLO_FLOOR_HEADROOM,
        r.ladder_rungs
    );
    let rendered: Vec<Vec<String>> = [&r.observe, &r.enforced]
        .iter()
        .map(|m| {
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
        })
        .collect();
    println!(
        "{}",
        render(
            &["mode", "done", "p99 ttft", "meets", "shed", "preempt", "degrade", "pred viol", "tok/s"],
            &rendered
        )
    );
    println!(
        "throughput: enforcing {:.2} tok/s vs sequential {:.2} tok/s",
        r.enforced.tokens_per_s, r.sequential_tokens_per_s
    );
    let ok = r.slo_ok;
    save("slo", &r);
    if ok {
        println!("slo_ok: enforcement meets the objective observe mode violates");
    } else {
        eprintln!("error: SLO enforcement gate failed");
        std::process::exit(1);
    }
}

fn run_obs(seed: u64, rps: f64, requests: usize) {
    println!(
        "\n== Observability: serve-path drift audit, exposition, flight recorder ({requests} requests @ {rps} rps, seed {seed}) =="
    );
    let (r, timeline) = obs::run(seed, rps, requests);
    println!(
        "record: {} lifecycle events, {} boundary samples, {} TTFT pairs over {} slots",
        r.lifecycle_events, r.boundary_samples, r.ttft_samples, r.plan.slots
    );
    let rendered: Vec<Vec<String>> = r
        .drift_gates
        .iter()
        .map(|g| {
            let m = r.drift.metric(&g.metric);
            vec![
                g.metric.clone(),
                m.map(|m| f(m.predicted, 3)).unwrap_or_default(),
                m.map(|m| f(m.observed, 3)).unwrap_or_default(),
                f(g.ratio, 4),
                format!("±{:.0}%", g.tolerance * 100.0),
                if g.ok { "ok" } else { "DRIFT" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["metric", "predicted", "observed", "obs/pred", "tolerance", "verdict"],
            &rendered
        )
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
    let ok = r.obs_ok;
    save("obs", &r);
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_ok() {
        let path = dir.join("serve_timeline.json");
        match fs::write(&path, &timeline) {
            Ok(()) => println!(
                "wrote {} (open at https://ui.perfetto.dev)",
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if ok {
        println!("obs_ok: every observability gate holds");
    } else {
        eprintln!("error: an observability gate failed");
        std::process::exit(1);
    }
}

fn run_verify(depth: lm_verify::SweepDepth) {
    println!("\n== Verification: planner-space sweep + protocol model checking (DESIGN.md §15) ==");
    let r = verify::run(depth, "results/serve.json");
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
    let ok = r.verify_ok;
    save("verify", &r);
    if ok {
        println!("verify_ok: every verification gate holds");
    } else {
        eprintln!("error: a verification gate failed");
        std::process::exit(1);
    }
}

fn run_async_lane(seed: u64) {
    println!(
        "\n== Async serving: real-time streaming over the continuous scheduler ({} requests, seed {seed}) ==",
        async_rt::DEFAULT_REQUESTS
    );
    let r = async_rt::run(seed, async_rt::DEFAULT_REQUESTS);
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
    println!(
        "gates: transparency_ok={} zero_leak_ok={} total_resolution_ok={} disconnect_ok={}",
        r.transparency_ok, r.zero_leak_ok, r.total_resolution_ok, r.disconnect_ok
    );
    let ok = r.async_ok;
    save("async", &r);
    if ok {
        println!("async_ok: the real-time path is transparent and leak-free");
    } else {
        eprintln!("error: an async serving gate failed");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fast = false;
    let mut shared_prefix = false;
    let mut fault_seed = faults::DEFAULT_FAULT_SEED;
    let mut tokens = trace::DEFAULT_TOKENS;
    let mut rps = serve::DEFAULT_RPS;
    let mut requests = serve::DEFAULT_REQUESTS;
    let mut serve_seed = serve::DEFAULT_SEED;
    let mut storm = lm_fault::StormProfile::Default;
    let mut sweep = lm_verify::SweepDepth::Quick;
    let mut which: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let seed_value = if a == "--fault-seed" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--fault-seed=").map(String::from)
        };
        let tokens_value = if a == "--tokens" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--tokens=").map(String::from)
        };
        let rps_value = if a == "--rps" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--rps=").map(String::from)
        };
        let requests_value = if a == "--requests" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--requests=").map(String::from)
        };
        let serve_seed_value = if a == "--seed" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--seed=").map(String::from)
        };
        let storm_value = if a == "--storm" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--storm=").map(String::from)
        };
        let sweep_value = if a == "--sweep" {
            i += 1;
            Some(args.get(i).cloned().unwrap_or_default())
        } else {
            a.strip_prefix("--sweep=").map(String::from)
        };
        if let Some(v) = sweep_value {
            sweep = match v.as_str() {
                "quick" => lm_verify::SweepDepth::Quick,
                "full" => lm_verify::SweepDepth::Full,
                _ => {
                    eprintln!("--sweep expects quick|full, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = storm_value {
            storm = match lm_fault::StormProfile::parse(&v) {
                Some(p) => p,
                None => {
                    let names: Vec<&str> = lm_fault::StormProfile::ALL
                        .iter()
                        .map(|p| p.name())
                        .collect();
                    eprintln!("--storm expects one of {}, got '{v}'", names.join("|"));
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = rps_value {
            rps = match v.parse::<f64>() {
                Ok(r) if r > 0.0 && r.is_finite() => r,
                _ => {
                    eprintln!("--rps expects a positive number, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = requests_value {
            requests = match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!("--requests expects a positive integer, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = serve_seed_value {
            serve_seed = match v.parse() {
                Ok(s) => s,
                Err(_) => {
                    eprintln!("--seed expects an integer, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = seed_value {
            fault_seed = match v.parse() {
                Ok(s) => s,
                Err(_) => {
                    eprintln!("--fault-seed expects an integer, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if let Some(v) = tokens_value {
            tokens = match v.parse::<u64>() {
                Ok(t) if t >= 1 => t,
                _ => {
                    eprintln!("--tokens expects a positive integer, got '{v}'");
                    std::process::exit(2);
                }
            };
        } else if a == "--fast" {
            fast = true;
        } else if a == "--shared-prefix" {
            shared_prefix = true;
        } else if !a.starts_with("--") && which.is_none() {
            which = Some(a.clone());
        }
        i += 1;
    }
    let which = which.as_deref().unwrap_or("all");
    let lens: &[u64] = if fast {
        &[8, 64]
    } else {
        &table3::GEN_LENGTHS
    };

    match which {
        "table1" => run_table1(),
        "table3" => run_table3(lens),
        "table4" => run_table4(),
        "table5" => run_table5(),
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "fig5" => run_fig5(),
        "fig7" => run_fig7(lens),
        "fig8" => run_fig8(),
        "fig9" => run_fig9(),
        "whatif" => run_whatif(),
        "analyze" => run_analyze(),
        "faults" => run_faults(fault_seed),
        "trace" => run_trace(tokens),
        "serve" => run_serve(serve_seed, rps, requests, shared_prefix),
        "chaos" => run_chaos(serve_seed, storm, rps, requests),
        "slo" => run_slo(serve_seed, rps, requests),
        "obs" => run_obs(serve_seed, rps, requests),
        "verify" => run_verify(sweep),
        "async" => run_async_lane(serve_seed),
        "summary" => {
            let s = summary::run(lens);
            print_summary(&s);
            save("summary", &s);
        }
        "all" => {
            run_analyze();
            run_table4();
            run_whatif();
            run_table1();
            run_fig3();
            run_fig4();
            run_fig5();
            run_table3(lens);
            run_fig7(lens);
            run_fig8();
            run_table5();
            run_fig9();
            run_faults(fault_seed);
            run_trace(tokens);
            run_serve(serve_seed, rps, requests, shared_prefix);
            run_chaos(serve_seed, storm, rps, requests);
            run_slo(serve_seed, rps, requests);
            run_obs(serve_seed, rps, requests);
            run_verify(sweep);
            run_async_lane(serve_seed);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!("choose from: analyze table1 table3 table4 table5 fig3 fig4 fig5 fig7 fig8 fig9 whatif faults summary trace serve chaos slo obs verify async all");
            std::process::exit(2);
        }
    }
}
