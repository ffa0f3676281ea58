//! `lmoffload` — the user-facing planning CLI: ask the performance models
//! what to do for a model on a platform, without running anything.
//!
//! Usage:
//!
//! ```text
//! lmoffload advise   <model> [--prompt N] [--gen N]
//! lmoffload plan     <model> [--prompt N] [--gen N]
//! lmoffload capacity <model>
//! lmoffload compare  <model> [--prompt N] [--gen N] [--gpus G]
//! lmoffload whatif   <model> [--prompt N] [--gen N]
//! lmoffload models
//! ```
//!
//! `<model>` is a preset name (case-insensitive), e.g. OPT-30B, LLaMA-65B.
//! The platform is the paper's single-GPU A100 box unless `--gpus G`
//! selects the multi-GPU V100 platform.

#![forbid(unsafe_code)]

use lm_bench::cli::{flag_value, split_flag};
use lm_bench::table::{f, render};
use lm_hardware::presets as hw;
use lm_models::{presets as models, DType, Footprint, ModelConfig, Workload};
use lm_offload::{
    derive_plan, run_framework, run_pipeline, transfer_tasks, whatif_sweep, Advisor, Axis,
    EngineConfig, Framework, QuantCostParams,
};
use lm_sim::{fits, max_gpu_batch, AttentionPlacement, Policy};

const USAGE: &str = "usage: lmoffload <advise|plan|capacity|compare|whatif|models> [model] \
                     [--prompt N] [--gen N] [--gpus G]";

struct Args {
    command: String,
    model: Option<String>,
    prompt: u64,
    gen: u64,
    gpus: u32,
}

/// Parse the command line. Anything unrecognised is an error: a mistyped
/// flag or a stray word must not silently plan for the defaults.
fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        model: None,
        prompt: 64,
        gen: 32,
        gpus: 1,
    };
    let mut positional = Vec::new();
    let mut rest = argv.iter();
    while let Some(a) = rest.next() {
        let Some((key, inline)) = split_flag(a) else {
            positional.push(a);
            continue;
        };
        let rest = &mut rest;
        match key {
            "prompt" => {
                args.prompt = flag_value(key, inline, rest, "an integer", |v| v.parse().ok())?
            }
            "gen" => args.gen = flag_value(key, inline, rest, "an integer", |v| v.parse().ok())?,
            "gpus" => args.gpus = flag_value(key, inline, rest, "an integer", |v| v.parse().ok())?,
            _ => return Err(format!("unknown flag '{a}'")),
        }
    }
    let mut positional = positional.into_iter();
    args.command = positional.next().ok_or("no command given")?.clone();
    args.model = positional.next().cloned();
    if let Some(stray) = positional.next() {
        return Err(format!("unexpected argument '{stray}'"));
    }
    Ok(args)
}

fn resolve_model(name: Option<&str>) -> ModelConfig {
    match name.and_then(models::by_name) {
        Some(m) => m,
        None => {
            if let Some(n) = name {
                eprintln!("unknown model '{n}'; try `lmoffload models`");
                std::process::exit(2);
            }
            models::opt_30b()
        }
    }
}

fn cmd_models() {
    let rows: Vec<Vec<String>> = models::all_presets()
        .iter()
        .filter(|m| m.name != "tiny-test")
        .map(|m| {
            vec![
                m.name.clone(),
                m.num_layers.to_string(),
                m.hidden.to_string(),
                m.ffn_hidden.to_string(),
                format!("{:.1}B", m.total_params() as f64 / 1e9),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["model", "layers", "h1", "h2", "params"], &rows)
    );
}

fn cmd_advise(model: &ModelConfig, prompt: u64, gen: u64) {
    let platform = hw::single_gpu_a100();
    let w = Workload::new(prompt, gen, 64, 10);
    let advisor = Advisor::new(&platform, model, &w, QuantCostParams::lm_offload_kernels());
    let mut gpu = Policy::flexgen_default();
    gpu.attention = AttentionPlacement::Gpu;

    println!("advisory for {} (s={prompt}, n={gen}, bls={}):", model.name, w.block_size());
    let wq = advisor.weight_quantization(gpu);
    println!(
        "  weight quantization (GPU attention): {:<14} ({:.1}s -> {:.1}s)",
        if wq.beneficial { "BENEFICIAL" } else { "not beneficial" },
        wq.baseline_cost,
        wq.candidate_cost
    );
    let kq = advisor.kv_quantization(gpu);
    println!(
        "  KV-cache quantization (GPU attention): {:<12} ({:.1}s -> {:.1}s)",
        if kq.beneficial { "BENEFICIAL" } else { "not beneficial" },
        kq.baseline_cost,
        kq.candidate_cost
    );
    let ao = advisor.attention_offloading(Policy::flexgen_default());
    println!(
        "  attention offloading (best quant each side): {:<6} (GPU {:.1}s vs CPU {:.1}s)",
        if ao.beneficial { "BENEFICIAL" } else { "not beneficial" },
        ao.baseline_cost,
        ao.candidate_cost
    );
}

fn cmd_plan(model: &ModelConfig, prompt: u64, gen: u64) {
    let platform = hw::single_gpu_a100();
    let w = Workload::new(prompt, gen, 64, 10);
    let policy = Policy::flexgen_default();
    let out = derive_plan(&platform, model, &w, &policy);
    println!("Algorithm 3 plan for {} on {}:", model.name, platform.name);
    println!(
        "  inter-op: {} total = {} compute + 5 transfers",
        out.plan.inter_op_total, out.plan.inter_op_compute
    );
    println!("  intra-op: {} threads per compute operator", out.plan.intra_op_compute);
    for (t, &g) in transfer_tasks(&platform, model, &w, &policy)
        .iter()
        .zip(&out.plan.transfer_threads)
    {
        println!("    {:<18} {:>12} B -> {g} threads", t.name, t.bytes);
    }
    println!(
        "  estimated step: {:.1} ms (default threading: {:.1} ms, {:+.0}%)",
        out.plan.est_step_time * 1e3,
        out.default_step_time * 1e3,
        (out.plan.est_step_time / out.default_step_time - 1.0) * 100.0
    );
}

fn cmd_capacity(model: &ModelConfig) {
    let platform = hw::single_gpu_a100();
    let base = Workload::new(64, 32, 64, 10);
    let fp16 = Footprint::compute(model, &base, DType::F16, DType::F16);
    let int4 = Footprint::compute(model, &base, DType::Int4, DType::Int4);
    println!("capacity report for {} on {}:", model.name, platform.name);
    println!(
        "  weights {:.0} GiB fp16 / {:.0} GiB int4; KV (bls=640, n=32) {:.0} GiB fp16 / {:.0} GiB int4",
        fp16.weights as f64 / (1u64 << 30) as f64,
        int4.weights as f64 / (1u64 << 30) as f64,
        fp16.kv_cache as f64 / (1u64 << 30) as f64,
        int4.kv_cache as f64 / (1u64 << 30) as f64,
    );
    for (name, policy) in [
        (
            "all-on-GPU fp16",
            Policy {
                wg: 1.0,
                cg: 1.0,
                hg: 1.0,
                weights_dtype: DType::F16,
                kv_dtype: DType::F16,
                attention: AttentionPlacement::Gpu,
            },
        ),
        ("offload fp16 (FlexGen default)", Policy::flexgen_default()),
        (
            "offload + int4 (LM-Offload)",
            Policy {
                weights_dtype: DType::Int4,
                kv_dtype: DType::Int4,
                attention: AttentionPlacement::Gpu,
                ..Policy::flexgen_default()
            },
        ),
    ] {
        let verdict = if !fits(model, &base, &platform, &policy) {
            "does not fit".to_string()
        } else {
            match max_gpu_batch(model, &base, &platform, &policy, 64, 4096) {
                Some(b) => format!("fits, max per-GPU batch {b}"),
                None => "fits".to_string(),
            }
        };
        println!("  {name:<32} {verdict}");
    }
}

fn cmd_compare(model: &ModelConfig, prompt: u64, gen: u64, gpus: u32) {
    if gpus > 1 {
        let platform = hw::multi_gpu_v100(gpus);
        let cfg = EngineConfig::new(&platform, model, prompt, gen);
        println!("pipeline comparison on {gpus}x V100:");
        for fw in Framework::ALL {
            match run_pipeline(fw, &cfg, gpus) {
                Some(r) => println!("  {:<15} {:>9.1} tok/s", fw.name(), r.throughput),
                None => println!("  {:<15} no feasible deployment", fw.name()),
            }
        }
        return;
    }
    let platform = hw::single_gpu_a100();
    let cfg = EngineConfig::new(&platform, model, prompt, gen);
    let rows: Vec<Vec<String>> = Framework::ALL
        .iter()
        .filter_map(|&fw| {
            run_framework(fw, &cfg).map(|run| {
                let p = run.deployment.policy;
                vec![
                    fw.name().to_string(),
                    run.deployment.workload.block_size().to_string(),
                    format!("{:.0}%", p.wg * 100.0),
                    format!("{}b/{}b", p.weights_dtype.bits(), p.kv_dtype.bits()),
                    match p.attention {
                        AttentionPlacement::Cpu => "CPU".into(),
                        AttentionPlacement::Gpu => "GPU".into(),
                    },
                    f(run.mem.total_bytes as f64 / (1u64 << 30) as f64, 0),
                    f(run.throughput(), 1),
                ]
            })
        })
        .collect();
    println!(
        "{}",
        render(
            &["framework", "block", "wg", "w/kv", "attn", "mem GiB", "tok/s"],
            &rows
        )
    );
}

fn cmd_whatif(model: &ModelConfig, prompt: u64, gen: u64) {
    let platform = hw::single_gpu_a100();
    let factors = [0.5, 1.0, 2.0, 4.0];
    println!(
        "sensitivity of {} (s={prompt}, n={gen}); policy re-searched per point:",
        model.name
    );
    for axis in Axis::ALL {
        let c = whatif_sweep(axis, &platform, model, prompt, gen, &factors);
        let series: Vec<String> = c
            .points
            .iter()
            .map(|p| format!("{:.1}x->{:.0}t/s", p.factor, p.throughput))
            .collect();
        println!(
            "  {:<15} {}  (gain {:.2}x{})",
            c.axis,
            series.join("  "),
            c.end_to_end_gain(),
            if c.policy_changes() { ", policy shifts" } else { "" }
        );
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    match args.command.as_str() {
        "models" => cmd_models(),
        "advise" => cmd_advise(&resolve_model(args.model.as_deref()), args.prompt, args.gen),
        "plan" => cmd_plan(&resolve_model(args.model.as_deref()), args.prompt, args.gen),
        "capacity" => cmd_capacity(&resolve_model(args.model.as_deref())),
        "whatif" => cmd_whatif(&resolve_model(args.model.as_deref()), args.prompt, args.gen),
        "compare" => cmd_compare(
            &resolve_model(args.model.as_deref()),
            args.prompt,
            args.gen,
            args.gpus,
        ),
        other => {
            eprintln!("error: unknown command '{other}'\n{USAGE}");
            std::process::exit(2);
        }
    }
}
