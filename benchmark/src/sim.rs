//! `sched_sim`: the continuous-batching scheduler on its virtual clock
//! with the analytic OPT-30B backend. Nothing executes a model, so wall
//! time is scheduler boundaries, cost-model calls and page operations.
//!
//! Two kinds of number come out. Throughput is wall-clock: modelled
//! tokens (and requests) resolved per second of `ServeSession::run`. Time
//! to first token, latency and goodput are read off the *modelled* clock:
//! they are what a user of the simulator looks at, a pure speed-up leaves
//! them exactly where they were, and a change of scheduling policy that
//! worsens them is a regression like any other.

use crate::micro;
use crate::params::Sim;
use crate::report::{Fnv, Report};
use crate::serve::{reserved_over_used, set_counts, slots_mean};
use crate::spans::Recorder;
use crate::stats::{median, min, percentile};
use crate::timed::TimedBackend;
use crate::{gen, repeat_setup, Ctx};
use lm_serve::{
    AnalyticBackend, Request, ServeBackend, ServeConfig, ServeOutcome, ServeSession, SloPolicy,
};
use lm_trace::Tracer;
use std::time::Instant;

fn config(p: &Sim, tracer: Tracer) -> ServeConfig {
    ServeConfig {
        slo: Some(SloPolicy::enforcing(p.slo_ttft_s)),
        tracer,
        ..ServeConfig::default()
    }
}

/// Everything the scheduler decided, folded into one word.
fn digest(out: &ServeOutcome) -> u64 {
    let mut h = Fnv::default();
    for r in &out.responses {
        for w in [r.id, r.arrival_us, r.first_token_us, r.finish_us] {
            h.word(w);
        }
        h.tokens(&r.tokens);
    }
    for r in &out.rejections {
        h.word(r.id);
    }
    for c in &out.cancellations {
        h.word(c.id);
        h.word(c.cancel_us);
    }
    let s = &out.stats;
    for w in [
        s.admitted,
        s.completed,
        s.preemptions,
        s.shed,
        s.degradations,
        out.generated_tokens,
        out.deadline_misses,
        out.kv_pages_peak,
        out.shared_tokens,
        out.sim_seconds.to_bits(),
        out.obs.boundaries.len() as u64,
        out.obs.lifecycle.len() as u64,
    ] {
        h.word(w);
    }
    h.0
}

struct Reps {
    wall_s: Vec<f64>,
    digests: Vec<u64>,
    last: ServeOutcome,
}

/// Run the scheduler over `requests` until `seconds` have passed (at
/// least `min_reps` times). The request list is cloned outside the timed
/// region.
fn repeat(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    requests: &[Request],
    seconds: f64,
    min_reps: usize,
) -> Result<Reps, String> {
    let session = ServeSession::new(backend).config(cfg.clone());
    let start = Instant::now();
    let (mut wall_s, mut digests, mut last) = (Vec::new(), Vec::new(), None);
    while wall_s.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        // One outcome alive at a time, so peak memory is one repetition's.
        drop(last.take());
        let input = requests.to_vec();
        let t = Instant::now();
        let run = session.run(input).map_err(|e| e.to_string())?;
        wall_s.push(t.elapsed().as_secs_f64());
        digests.push(digest(&run.outcome));
        last = Some(run.outcome);
    }
    Ok(Reps {
        wall_s,
        digests,
        last: last.ok_or("no repetition ran")?,
    })
}

fn check_outcome(report: &mut Report, reps: &Reps, sent: usize) {
    let out = &reps.last;
    report.check(
        "outcome identical across repetitions",
        reps.digests.iter().all(|&d| d == reps.digests[0]),
    );
    report.check(
        "every request reached a terminal state",
        out.terminal_count() == sent,
    );
    report.check("no KV bytes leaked", out.kv_leaked_bytes == 0);
    report.check("no KV pages leaked", out.kv_pages_leaked == 0);
    report.check("admissions balance", out.stats.admissions_balanced());
    report.output_hash = reps.digests[0];
    let n = reps.wall_s.len() as u64;
    report.phase("sim reps", n, if report.correct() { 0 } else { n });
}

pub fn run(ctx: &Ctx, p: &Sim) -> Result<Report, String> {
    if ctx.traced {
        traced(ctx, p)
    } else {
        untraced(ctx, p)
    }
}

fn untraced(ctx: &Ctx, p: &Sim) -> Result<Report, String> {
    let mut report = Report::default();
    let cfg = config(p, Tracer::disabled());

    // Set-up: backend, traffic, and a short run through the scheduler.
    let ((backend, requests), setups) = repeat_setup(p.setups, || {
        let backend = AnalyticBackend::opt_30b();
        let requests = gen::sim_traffic(ctx.seed, p.rps, p.requests, backend.model());
        let head = requests[..requests.len().min(256)].to_vec();
        ServeSession::new(&backend)
            .config(cfg.clone())
            .run(head)
            .map_err(|e| e.to_string())?;
        Ok((backend, requests))
    })?;
    repeat(&backend, &cfg, &requests, 0.0, p.warmup_reps)?;

    let reps = repeat(
        &backend,
        &cfg,
        &requests,
        ctx.seconds * p.measure_share,
        p.min_reps,
    )?;
    check_outcome(&mut report, &reps, requests.len());

    let out = &reps.last;
    let wall = min(&reps.wall_s);
    let prompt: usize = out
        .responses
        .iter()
        .map(|r| requests[r.id as usize].prompt.len())
        .sum();
    let ttft_ms: Vec<f64> = out.responses.iter().map(|r| r.ttft_s() * 1e3).collect();
    let latency_ms: Vec<f64> = out.responses.iter().map(|r| r.latency_s() * 1e3).collect();
    let good = ttft_ms
        .iter()
        .filter(|&&ms| ms <= p.slo_ttft_s * 1e3)
        .count();
    report.set("setup_s", median(&setups));
    report.set("goodput_frac", good as f64 / requests.len() as f64);
    report.set("gen_tok_s", out.generated_tokens as f64 / wall);
    report.set(
        "total_tok_s",
        (prompt as u64 + out.generated_tokens) as f64 / wall,
    );
    report.set("ttft_p50_ms", median(&ttft_ms));
    report.set("latency_p50_ms", median(&latency_ms));
    report.timing("setup_s", &setups);
    report.timing("session_run_s", &reps.wall_s);
    report.timing("virtual_ttft_ms", &ttft_ms);
    Ok(report)
}

fn traced(ctx: &Ctx, p: &Sim) -> Result<Report, String> {
    let mut report = Report::default();
    let rec = Recorder::new(true);
    let backend = AnalyticBackend::opt_30b();
    let requests = gen::sim_traffic(ctx.seed, p.rps, p.requests, backend.model());
    let plain_cfg = config(p, Tracer::disabled());
    repeat(&backend, &plain_cfg, &requests, 0.0, p.warmup_reps)?;

    // A third of the time plain, a third with the serve tracer on.
    let plain = repeat(
        &backend,
        &plain_cfg,
        &requests,
        ctx.seconds * p.measure_share / 3.0,
        2,
    )?;
    let tracer = Tracer::new();
    let observed = repeat(
        &backend,
        &config(p, tracer),
        &requests,
        ctx.seconds * p.measure_share / 3.0,
        2,
    )?;
    check_outcome(&mut report, &plain, requests.len());
    report.check(
        "outcome identical with the serve tracer on",
        observed.digests[0] == plain.digests[0],
    );

    let out = &plain.last;
    let boundaries = out.obs.boundaries.len().max(1) as f64;
    let (plain_s, observed_s) = (min(&plain.wall_s), min(&observed.wall_s));
    report.set("serve.sim_req_s", requests.len() as f64 / plain_s);
    report.set("serve.boundary_ns", plain_s * 1e9 / boundaries);
    report.set("serve.boundary_obs_ns", observed_s * 1e9 / boundaries);
    report.set("trace.overhead_frac", (observed_s - plain_s) / plain_s);
    let ttft_s: Vec<f64> = out.responses.iter().map(|r| r.ttft_s()).collect();
    report.set("serve.virtual_ttft_p95_s", percentile(&ttft_s, 0.95));
    report.set("serve.virtual_tok_s", out.tokens_per_s());
    report.set("serve.slots_mean", slots_mean(out));
    set_counts(&mut report, &[out]);
    let prompt_tokens: usize = requests.iter().map(|r| r.prompt.len()).sum();
    report.set(
        "kvpool.shared_token_frac",
        out.shared_tokens as f64 / prompt_tokens.max(1) as f64,
    );
    let page_tokens = derive_page_tokens(&backend, &plain_cfg);
    report.set(
        "kvpool.reserved_over_used",
        reserved_over_used(out, &requests, page_tokens),
    );
    report.timing("session_run_s", &plain.wall_s);
    report.timing("session_run_obs_s", &observed.wall_s);

    // A shorter trace through the counting backend, with harness spans.
    let head = &requests[..p.traced_requests.min(requests.len())];
    let head_plain = repeat(&backend, &plain_cfg, head, 0.0, 3)?;
    let totals = {
        let span = rec.span("ServeSession::run", "lm-serve", None, None);
        let timed = TimedBackend::new(&backend, &rec, span.id());
        ServeSession::new(&timed)
            .config(plain_cfg.clone())
            .run(head.to_vec())
            .map_err(|e| e.to_string())?;
        timed.totals()
    };

    let micro_span = rec.span("micro-pass", "harness", None, None);
    let mut pass = micro::Pass::new(ctx.params.micro, &rec, micro_span.id());
    pass.trace_span();
    pass.sim(p);
    pass.kvpool();
    pass.parallelism();
    drop(micro_span);
    let cost_calls = totals.decode_cost_calls + totals.prefill_cost_calls;
    let cost_ns = totals.decode_cost_calls as f64 * pass.value("sim.decode_cost_ns").unwrap_or(0.0)
        + totals.prefill_cost_calls as f64 * pass.value("sim.prefill_cost_ns").unwrap_or(0.0);
    report.set("sim.cost_calls", cost_calls as f64);
    report.set("sim.cost_share", cost_ns / (min(&head_plain.wall_s) * 1e9));
    report.take_micro(pass.rows);
    report.trace_file = ctx.write_trace(None, &rec);
    Ok(report)
}

fn derive_page_tokens(backend: &AnalyticBackend, cfg: &ServeConfig) -> u64 {
    lm_serve::derive_plan(backend, cfg).0.page_tokens
}
