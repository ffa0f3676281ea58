//! The two offline workloads: `Engine::run` on a fixed batch, repeated
//! for `--seconds`. Tokens per second are generated (or prompt +
//! generated) tokens over the wall time of the whole call, prefill
//! included — FlexGen's definition. `Engine::run` returns every token at
//! once, so the first token reaches the caller when the call returns:
//! time to first token and latency are both the duration of the call.

use crate::micro;
use crate::params::{Offline, WEIGHT_SEED};
use crate::report::{Fnv, Report};
use crate::spans::Recorder;
use crate::stats::{median, min};
use crate::{gen, Ctx};
use lm_engine::{Engine, EngineError, EngineOptions, GenerateRequest, Generation};
use lm_models::DType;
use lm_tensor::QuantConfig;
use lm_trace::{TaskKind, TraceReport, Tracer};
use std::time::Instant;

fn options(p: &Offline, reference: bool, tracer: Tracer) -> EngineOptions {
    let quant = p.quantized.then(QuantConfig::int4);
    let layer_f32 = DType::F32.bytes_for(p.model.weights_per_layer()) as usize;
    EngineOptions {
        // The reference engine is never short of device memory and never
        // overlaps a fetch with compute.
        device_capacity: if reference {
            1 << 40
        } else {
            p.device_layers * layer_f32 + p.device_slack_bytes
        },
        prefetch: !reference,
        quantize_at_rest: quant,
        kv_quantize_at_rest: quant,
        tracer,
        ..EngineOptions::default()
    }
}

struct Built {
    engine: Engine,
    /// `Engine::new` alone.
    new_s: f64,
    /// Construction plus the warm-up call: one sample of `setup_s`.
    setup_s: f64,
}

/// Construct an engine and push one minimal request through it, so that
/// work a change moves into construction or into a lazy first call both
/// show in `setup_s`.
fn build(p: &Offline, opts: EngineOptions) -> Result<Built, EngineError> {
    let t = Instant::now();
    let engine = Engine::new(&p.model, WEIGHT_SEED, opts)?;
    let new_s = t.elapsed().as_secs_f64();
    engine.run(&GenerateRequest::new(vec![vec![1, 2, 3, 4]], 1))?;
    Ok(Built {
        engine,
        new_s,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Repeat `request` until `seconds` have passed (at least `min_reps`
/// times); every call's wall seconds and generation.
fn measure(
    engine: &Engine,
    request: &GenerateRequest,
    seconds: f64,
    min_reps: usize,
    rec: &Recorder,
) -> Result<(Vec<f64>, Vec<Generation>), EngineError> {
    let start = Instant::now();
    let (mut wall, mut gens) = (Vec::new(), Vec::new());
    while wall.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let _span = rec.span("Engine::run", "lm-engine", None, None);
        let t = Instant::now();
        let g = engine.run(request)?;
        wall.push(t.elapsed().as_secs_f64());
        gens.push(g);
    }
    Ok((wall, gens))
}

fn hash(tokens: &[Vec<u32>]) -> u64 {
    let mut h = Fnv::default();
    for row in tokens {
        h.tokens(row);
    }
    h.0
}

pub fn run(ctx: &Ctx, p: &Offline) -> Result<Report, String> {
    let prompts = gen::prompts(ctx.seed, p.prompts, p.prompt_len, p.model.vocab_size);
    let request = GenerateRequest::new(prompts, p.gen_len);
    if ctx.traced {
        traced(ctx, p, &request).map_err(|e| e.to_string())
    } else {
        untraced(ctx, p, &request).map_err(|e| e.to_string())
    }
}

fn untraced(ctx: &Ctx, p: &Offline, request: &GenerateRequest) -> Result<Report, EngineError> {
    let mut report = Report::default();
    let off = Recorder::new(false);

    // Set-up, several times over. The first construction is the
    // reference engine, which gives the expected tokens and is dropped
    // before the measured engine exists.
    let reference = build(p, options(p, true, Tracer::disabled()))?;
    let expected = reference.engine.run(request)?.tokens;
    let mut setups = vec![reference.setup_s];
    drop(reference);
    let mut built = build(p, options(p, false, Tracer::disabled()))?;
    setups.push(built.setup_s);
    while setups.len() < p.setups {
        drop(built);
        built = build(p, options(p, false, Tracer::disabled()))?;
        setups.push(built.setup_s);
    }

    let (wall, gens) = measure(
        &built.engine,
        request,
        ctx.seconds * p.measure_share,
        p.min_reps,
        &off,
    )?;

    let good = gens.iter().filter(|g| g.tokens == expected).count();
    report.check(
        "tokens equal the reference engine on every repetition",
        good == gens.len(),
    );
    report.check(
        "weight bytes streamed equal across repetitions",
        gens.iter()
            .all(|g| g.weight_bytes_streamed == gens[0].weight_bytes_streamed),
    );
    report.check(
        "every sequence generated gen_len tokens",
        expected.len() == p.prompts && expected.iter().all(|t| t.len() == p.gen_len),
    );
    report.output_hash = hash(&expected);
    let sequences = (gens.len() * p.prompts) as u64;
    let bad = ((gens.len() - good) * p.prompts) as u64;
    report.phase("offline", sequences, bad);

    // Throughput from the fastest repetition (interference only ever
    // slows one down); the p50s are the median call, as named.
    let rep_s = min(&wall);
    let generated = (p.prompts * p.gen_len) as f64;
    let total = (p.prompts * (p.prompt_len + p.gen_len)) as f64;
    report.set("setup_s", median(&setups));
    report.set("goodput_frac", good as f64 / gens.len() as f64);
    report.set("gen_tok_s", generated / rep_s);
    report.set("total_tok_s", total / rep_s);
    report.set("ttft_p50_ms", median(&wall) * 1e3);
    report.set("latency_p50_ms", median(&wall) * 1e3);
    report.timing("setup_s", &setups);
    report.timing("engine_run_s", &wall);
    Ok(report)
}

/// Per-step engine numbers from the engine's own tracer: the `prefill`
/// and `decode` scopes and the per-layer `load_weight` / compute spans.
fn engine_trace_metrics(report: &mut Report, trace: &TraceReport, gen_len: usize) {
    let ms = |s: f64| s * 1e3;
    let prefill: Vec<f64> = trace
        .scopes
        .iter()
        .filter(|s| s.name == "prefill")
        .map(|s| ms(s.end - s.start))
        .collect();
    let (mut step, mut load_busy, mut compute_busy, mut load_wait, mut overlap) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for decode in trace.scopes.iter().filter(|s| s.name == "decode") {
        step.push(ms(decode.end - decode.start) / gen_len.max(1) as f64);
        // One run's spans of one kind in one decode step, in time order.
        let of = |kind: TaskKind, step: u64| {
            let mut spans: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.kind == kind && s.step == step)
                .filter(|s| s.start >= decode.start && s.end <= decode.end)
                .collect();
            spans.sort_by(|a, b| a.start.total_cmp(&b.start));
            spans
        };
        for i in 0..gen_len as u64 {
            let (loads, computes) = (of(TaskKind::LoadWeight, i), of(TaskKind::ComputeGpu, i));
            let (Some(first), Some(last)) = (loads.first(), computes.last()) else {
                continue;
            };
            let busy_l: f64 = loads.iter().map(|s| s.duration()).sum();
            let busy_c: f64 = computes.iter().map(|s| s.duration()).sum();
            // The compute thread goes idle when a layer's compute ends
            // and resumes once the next layer's load has ended.
            let mut wait = 0.0;
            let mut idle_from = first.start;
            for l in &loads {
                wait += (l.end - idle_from).max(0.0);
                if let Some(c) = computes.iter().rev().find(|c| c.layer == l.layer) {
                    idle_from = c.end;
                }
            }
            let sweep = last.end - first.start;
            load_busy.push(ms(busy_l));
            compute_busy.push(ms(busy_c));
            load_wait.push(ms(wait));
            if busy_l.min(busy_c) > 0.0 {
                overlap.push((busy_l + busy_c - sweep) / busy_l.min(busy_c));
            }
        }
    }
    report.set("engine.prefill_ms", median(&prefill));
    report.set("engine.decode_step_ms", median(&step));
    report.set("engine.load_weight_busy_ms", median(&load_busy));
    report.set("engine.compute_busy_ms", median(&compute_busy));
    report.set("engine.load_wait_ms", median(&load_wait));
    report.set("engine.overlap_frac", median(&overlap));
}

fn traced(ctx: &Ctx, p: &Offline, request: &GenerateRequest) -> Result<Report, EngineError> {
    let mut report = Report::default();
    let tracer = Tracer::new();
    let rec = Recorder::aligned_to(&tracer);
    let off = Recorder::new(false);

    // Half the time untraced, half traced: their difference is the
    // tracing overhead.
    let plain = {
        let _span = rec.span("Engine::new", "lm-engine", None, None);
        build(p, options(p, false, Tracer::disabled()))?
    };
    let (plain_wall, plain_gens) = measure(
        &plain.engine,
        request,
        ctx.seconds * p.measure_share / 2.0,
        2,
        &off,
    )?;
    let new_plain = plain.new_s;
    drop(plain);

    let with_tracer = {
        let _span = rec.span("Engine::new", "lm-engine", None, None);
        build(p, options(p, false, tracer.clone()))?
    };
    // Spans of the warm-up call are not part of the pass.
    let warmup_end = tracer.clock().map_or(0.0, |c| c.now_s());
    let (traced_wall, traced_gens) = measure(
        &with_tracer.engine,
        request,
        ctx.seconds * p.measure_share / 2.0,
        2,
        &rec,
    )?;
    let mut trace = tracer.snapshot();
    trace.spans.retain(|s| s.start >= warmup_end);
    trace.scopes.retain(|s| s.start >= warmup_end);

    let expected = &plain_gens[0].tokens;
    report.check(
        "tokens equal with tracing on and off",
        plain_gens
            .iter()
            .chain(&traced_gens)
            .all(|g| &g.tokens == expected),
    );
    report.output_hash = hash(expected);
    let sequences = ((plain_gens.len() + traced_gens.len()) * p.prompts) as u64;
    report.phase(
        "offline",
        sequences,
        if report.correct() { 0 } else { sequences },
    );

    engine_trace_metrics(&mut report, &trace, p.gen_len);
    let last = &traced_gens[traced_gens.len() - 1];
    report.set(
        "engine.weight_bytes_streamed",
        last.weight_bytes_streamed as f64,
    );
    report.set("engine.device_peak_bytes", last.device_peak as f64);
    report.set("engine.host_peak_bytes", last.host_peak as f64);
    report.set("engine.kv_bytes_at_rest", last.kv_bytes_at_rest as f64);
    report.set(
        if p.quantized {
            "engine.new_q4_s"
        } else {
            "engine.new_s"
        },
        min(&[new_plain, with_tracer.new_s]),
    );
    report.set(
        "trace.overhead_frac",
        (min(&traced_wall) - min(&plain_wall)) / min(&plain_wall),
    );
    report.timing("engine_run_s", &plain_wall);
    report.timing("engine_run_traced_s", &traced_wall);
    drop(with_tracer);

    let micro_span = rec.span("micro-pass", "harness", None, None);
    let mut pass = micro::Pass::new(ctx.params.micro, &rec, micro_span.id());
    pass.trace_span();
    if p.quantized {
        pass.prefill_q4(p);
    } else {
        pass.decode(p);
    }
    drop(micro_span);
    report.take_micro(pass.rows);
    report.trace_file = ctx.write_trace(Some(&trace), &rec);
    Ok(report)
}
