//! The two served workloads: `ServeSession::run_async` over the tiny real
//! engine, measured from the client's side of the token streams.
//!
//! *Open phase*: Poisson arrivals on a fixed wall-clock schedule,
//! regardless of how the server keeps up. Each request is timed from the
//! instant it was due, so a stall shows in the requests queued behind it.
//! The same schedule is replayed several times and each request keeps its
//! fastest replay: queueing the schedule itself causes recurs in every
//! replay and stays in, a neighbour on the host stealing the processor
//! for a moment does not.
//! *Burst phase*: every request due at t = 0, which saturates the server
//! and gives tokens per second. One client thread polls all streams; the
//! scheduler thread `run_async` spawns is the only other harness thread.

use crate::micro;
use crate::params::{Serve, TTFT_LIMIT_MS, WEIGHT_SEED};
use crate::report::{Fnv, Report};
use crate::spans::{self, Recorder, SpanId};
use crate::stats::{median, min, percentile};
use crate::timed::TimedBackend;
use crate::{gen, repeat_setup, Ctx};
use lm_engine::GenerateRequest;
use lm_serve::{
    AsyncConfig, EngineBackend, Request, RequestPhase, ServeBackend, ServeConfig, ServeOutcome,
    ServeRun, ServeSession, TokenStreams,
};
use lm_trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tokio::sync::mpsc::error::TryRecvError;

/// What the client saw of one phase, indexed by request id.
pub struct ClientView {
    /// When the client started polling: wall t = 0 of the phase.
    start: Instant,
    first: Vec<Option<Instant>>,
    last: Vec<Option<Instant>>,
    tokens: Vec<Vec<u32>>,
    /// Gaps between consecutive tokens of one stream, microseconds.
    gaps_us: Vec<f64>,
}

/// Poll every stream until all have closed, stamping first and last
/// tokens as they are seen.
fn client(mut streams: TokenStreams, n: usize, poll_sleep: Duration) -> ClientView {
    let start = Instant::now();
    let mut view = ClientView {
        start,
        first: vec![None; n],
        last: vec![None; n],
        tokens: vec![Vec::new(); n],
        gaps_us: Vec::new(),
    };
    let mut open = streams.drain();
    while !open.is_empty() {
        let mut progressed = false;
        open.retain_mut(|(id, rx)| loop {
            match rx.try_recv() {
                Ok(ev) => {
                    progressed = true;
                    let now = Instant::now();
                    let i = *id as usize;
                    if let Some(prev) = view.last[i] {
                        view.gaps_us.push((now - prev).as_secs_f64() * 1e6);
                    }
                    view.first[i].get_or_insert(now);
                    view.last[i] = Some(now);
                    view.tokens[i].push(ev.token);
                }
                Err(TryRecvError::Empty) => break true,
                // Sender dropped and buffer drained: end of stream.
                Err(TryRecvError::Disconnected) => break false,
            }
        });
        if !progressed {
            std::thread::sleep(poll_sleep);
        }
    }
    view
}

pub struct PhaseRun {
    pub run: ServeRun,
    pub view: ClientView,
    /// Client start to the last token of the last stream, seconds.
    pub wall_s: f64,
}

fn run_phase(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    p: &Serve,
    requests: Vec<Request>,
) -> Result<PhaseRun, String> {
    let acfg = AsyncConfig {
        channel_capacity: p.channel_capacity,
        time_scale: p.time_scale,
        ..AsyncConfig::default()
    };
    let n = requests.len();
    let poll = Duration::from_micros(p.poll_sleep_us);
    let (run, view) = ServeSession::new(backend)
        .config(cfg.clone())
        .run_async(requests, &acfg, |streams| client(streams, n, poll))
        .map_err(|e| e.to_string())?;
    let end = view
        .last
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or(view.start);
    Ok(PhaseRun {
        wall_s: (end - view.start).as_secs_f64(),
        run,
        view,
    })
}

fn serve_config(p: &Serve, tracer: Tracer) -> ServeConfig {
    ServeConfig {
        slot_context: p.slot_context,
        tracer,
        ..ServeConfig::default()
    }
}

struct Traffic {
    open: Vec<Request>,
    open_due_s: Vec<f64>,
    burst: Vec<Request>,
}

fn traffic(ctx: &Ctx, p: &Serve, shared: bool, vocab: u64) -> Traffic {
    let (open, open_due_s) = gen::chat_traffic(
        ctx.seed,
        p.open_requests,
        Some(p.open_rate),
        p.shape,
        shared,
        vocab,
        p.time_scale,
    );
    let (burst, _) = gen::chat_traffic(
        ctx.seed ^ 0xB0_0057,
        p.burst_requests,
        None,
        p.shape,
        shared,
        vocab,
        p.time_scale,
    );
    Traffic {
        open,
        open_due_s,
        burst,
    }
}

/// One set-up: the backend, and a few requests pushed through the whole
/// real-time path.
fn setup(p: &Serve, warmup: &[Request]) -> Result<EngineBackend, String> {
    let backend = EngineBackend::tiny_test(WEIGHT_SEED).map_err(|e| e.to_string())?;
    run_phase(
        &backend,
        &serve_config(p, Tracer::disabled()),
        p,
        warmup.to_vec(),
    )?;
    Ok(backend)
}

/// Client timings of one open phase, indexed by request id:
/// `(ttft_ms, latency_ms)` measured from the request's due instant, `None`
/// for a request that did not complete.
fn due_to_token_ms(run: &PhaseRun, due_s: &[f64]) -> Vec<Option<(f64, f64)>> {
    let mut timings = vec![None; due_s.len()];
    for r in &run.run.outcome.responses {
        let i = r.id as usize;
        if let (Some(first), Some(last)) = (run.view.first[i], run.view.last[i]) {
            let due = run.view.start + Duration::from_secs_f64(due_s[i]);
            let ms = |t: Instant| t.saturating_duration_since(due).as_secs_f64() * 1e3;
            timings[i] = Some((ms(first), ms(last)));
        }
    }
    timings
}

/// `(ttft_ms, latency_ms)` of every completed request of every replay.
fn completed(replays: &[Vec<Option<(f64, f64)>>]) -> (Vec<f64>, Vec<f64>) {
    replays.iter().flatten().flatten().copied().unzip()
}

/// Each request's fastest replay: `(ttft_ms, latency_ms)` over the
/// requests that completed in every one. The replays share one schedule,
/// so the wait a request owes to the arrivals before it is in every
/// replay and survives the minimum; what the host added to one replay
/// and not to another does not.
fn fastest_replay(replays: &[Vec<Option<(f64, f64)>>]) -> (Vec<f64>, Vec<f64>) {
    let n = replays.first().map_or(0, Vec::len);
    (0..n)
        .filter_map(|i| {
            let seen: Option<Vec<(f64, f64)>> = replays.iter().map(|r| r[i]).collect();
            seen?
                .into_iter()
                .reduce(|a, b| (a.0.min(b.0), a.1.min(b.1)))
        })
        .unzip()
}

/// Output checks of one phase; a request that did not complete, or whose
/// phase failed a token check, counts as failed.
fn check_phase(
    report: &mut Report,
    name: &'static str,
    run: &PhaseRun,
    sent: &[Request],
    hash: &mut Fnv,
) {
    let out = &run.run.outcome;
    let mut streamed_ok = true;
    for r in &out.responses {
        streamed_ok &= run.view.tokens[r.id as usize] == r.tokens;
        hash.word(r.id);
        hash.tokens(&r.tokens);
    }
    let complete = out
        .responses
        .iter()
        .all(|r| r.tokens.len() == sent[r.id as usize].gen_len);
    let ok = [
        ("streamed tokens equal response tokens", streamed_ok),
        ("every response has gen_len tokens", complete),
        ("no KV bytes leaked", out.kv_leaked_bytes == 0),
        ("no KV pages leaked", out.kv_pages_leaked == 0),
        (
            "every request reached a terminal state",
            out.terminal_count() == sent.len(),
        ),
    ];
    for (check, passed) in ok {
        report.check(format!("{name}: {check}"), passed);
    }
    let succeeded = if streamed_ok && complete {
        out.responses.len() as u64
    } else {
        0
    };
    report.phase(name, sent.len() as u64, sent.len() as u64 - succeeded);
}

/// Tokens of a fixed sample of requests equal a solo `Engine::run`.
fn check_solo(backend: &EngineBackend, run: &PhaseRun, sent: &[Request], sample: usize) -> bool {
    let by_id: BTreeMap<u64, &Vec<u32>> = run
        .run
        .outcome
        .responses
        .iter()
        .map(|r| (r.id, &r.tokens))
        .collect();
    sent.iter().take(sample).all(|req| {
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len));
        match (solo, by_id.get(&req.id)) {
            (Ok(g), Some(tokens)) => g.tokens.first() == Some(*tokens),
            _ => false,
        }
    })
}

pub fn run(ctx: &Ctx, p: &Serve, shared: bool) -> Result<Report, String> {
    let vocab = lm_models::presets::tiny_test().vocab_size;
    let t = traffic(ctx, p, shared, vocab);
    if ctx.traced {
        traced(ctx, p, t)
    } else {
        untraced(ctx, p, t)
    }
}

/// How many rounds of one open replay and one burst a run makes: as many
/// open schedules as fit into their share of `--seconds`.
fn rounds(p: &Serve, seconds: f64) -> usize {
    let one = p.open_requests as f64 / p.open_rate;
    ((seconds * p.open_share / one).round() as usize).max(1)
}

fn untraced(ctx: &Ctx, p: &Serve, t: Traffic) -> Result<Report, String> {
    let mut report = Report::default();
    let warmup = &t.burst[..p.warmup_requests.min(t.burst.len())];
    let cfg = serve_config(p, Tracer::disabled());

    // Set-ups, the same open schedule and the same burst, several times
    // over and in turns, so that the repetitions of each are spread over
    // the whole run: what disturbs one stretch of it leaves the others.
    let n_rounds = rounds(p, ctx.seconds);
    let (mut setups, mut opens, mut bursts) = (Vec::new(), Vec::new(), Vec::new());
    let mut backend = None;
    for _ in 0..n_rounds {
        drop(backend.take());
        let (fresh, seconds) = repeat_setup(p.setups.div_ceil(n_rounds), || setup(p, warmup))?;
        setups.extend(seconds);
        opens.push(run_phase(&fresh, &cfg, p, t.open.clone())?);
        bursts.push(run_phase(&fresh, &cfg, p, t.burst.clone())?);
        backend = Some(fresh);
    }
    let backend = backend.ok_or("no round ran")?;
    let mut hash = Fnv::default();
    for open in &opens {
        check_phase(&mut report, "open", open, &t.open, &mut hash);
        report.check(
            "open tokens equal across replays",
            open.view.tokens == opens[0].view.tokens,
        );
    }
    // Of the bursts the fastest one stands.
    for burst in &bursts {
        check_phase(&mut report, "burst", burst, &t.burst, &mut hash);
        report.check(
            "burst tokens equal across bursts",
            burst.view.tokens == bursts[0].view.tokens,
        );
    }
    report.check(
        "sampled requests equal a solo Engine::run",
        check_solo(&backend, &bursts[0], &t.burst, p.solo_sample),
    );
    let burst_wall: Vec<f64> = bursts.iter().map(|b| b.wall_s).collect();
    report.output_hash = hash.0;

    let replays: Vec<_> = opens
        .iter()
        .map(|open| due_to_token_ms(open, &t.open_due_s))
        .collect();
    // All three open-phase metrics read each request's fastest replay; a
    // request that did not complete every time misses the limit.
    let (ttft, latency) = fastest_replay(&replays);
    let good = ttft.iter().filter(|&&ms| ms <= TTFT_LIMIT_MS).count();
    let (ttft_all, latency_all) = completed(&replays);
    // Every burst request completed (checked above), so the token counts
    // are those of the traffic itself.
    let prompt: usize = t.burst.iter().map(|r| r.prompt.len()).sum();
    let generated: usize = t.burst.iter().map(|r| r.gen_len).sum();
    let wall = min(&burst_wall);
    report.set("setup_s", median(&setups));
    report.set("goodput_frac", good as f64 / t.open.len() as f64);
    report.set("gen_tok_s", generated as f64 / wall);
    report.set("total_tok_s", (prompt + generated) as f64 / wall);
    report.set("ttft_p50_ms", median(&ttft));
    report.set("latency_p50_ms", median(&latency));
    report.timing("setup_s", &setups);
    report.timing("open_ttft_ms", &ttft);
    report.timing("open_latency_ms", &latency);
    report.timing("open_ttft_every_replay_ms", &ttft_all);
    report.timing("open_latency_every_replay_ms", &latency_all);
    report.timing("burst_wall_s", &burst_wall);
    Ok(report)
}

// ---- per-layer numbers from the scheduler's own observability record ----

/// Time-weighted mean of occupied slots over the boundary samples.
pub fn slots_mean(out: &ServeOutcome) -> f64 {
    let (mut weighted, mut span) = (0.0, 0.0);
    for w in out.obs.boundaries.windows(2) {
        let dt = w[1].t_us.saturating_sub(w[0].t_us) as f64;
        weighted += w[0].active_slots as f64 * dt;
        span += dt;
    }
    if span > 0.0 {
        weighted / span
    } else {
        0.0
    }
}

/// Page-token-time reserved over token-time in use: the integral of
/// mapped pages (× tokens per page) against the integral of tokens the
/// resident sequences actually hold. Above 1 is reservation not yet
/// written; below 1 is logical tokens served from shared pages.
pub fn reserved_over_used(out: &ServeOutcome, sent: &[Request], page_tokens: u64) -> f64 {
    let mut reserved = 0.0;
    for w in out.obs.boundaries.windows(2) {
        let dt = w[1].t_us.saturating_sub(w[0].t_us) as f64;
        reserved += (w[0].pages_in_use * page_tokens) as f64 * dt;
    }
    let mut emitted: BTreeMap<u64, usize> = BTreeMap::new();
    let mut used = 0.0;
    for ev in &out.obs.lifecycle {
        let prompt = sent.get(ev.request as usize).map_or(0, |r| r.prompt.len());
        match ev.phase {
            RequestPhase::Prefill => used += prompt as f64 * ev.dur_us as f64,
            RequestPhase::Decode => {
                let k = emitted.entry(ev.request).or_insert(0);
                *k += 1;
                used += (prompt + *k) as f64 * ev.dur_us as f64;
            }
            _ => {}
        }
    }
    if used > 0.0 {
        reserved / used
    } else {
        0.0
    }
}

/// The exact lifecycle counts every serve-path workload reports.
pub fn set_counts(report: &mut Report, outs: &[&ServeOutcome]) {
    let sum = |f: &dyn Fn(&ServeOutcome) -> u64| outs.iter().map(|o| f(o)).sum::<u64>() as f64;
    report.set("serve.admitted", sum(&|o| o.stats.admitted));
    report.set("serve.rejected", sum(&|o| o.rejections.len() as u64));
    report.set("serve.shed", sum(&|o| o.stats.shed));
    report.set("serve.preempted", sum(&|o| o.stats.preemptions));
    report.set("serve.deadline_misses", sum(&|o| o.deadline_misses));
    report.set(
        "kvpool.pages_peak",
        outs.iter().map(|o| o.kv_pages_peak).max().unwrap_or(0) as f64,
    );
}

/// Wall milliseconds between each request's arrival and (a) the first
/// scheduler boundary at or after it — how late the scheduler noticed —
/// and (b) its admission to a slot.
fn noticed_and_admitted_ms(
    out: &ServeOutcome,
    sent: &[Request],
    scale: f64,
) -> (Vec<f64>, Vec<f64>) {
    let ms = |virtual_us: u64| gen::virtual_us_to_wall_s(virtual_us, scale) * 1e3;
    let boundaries: Vec<u64> = out.obs.boundaries.iter().map(|b| b.t_us).collect();
    let noticed = sent
        .iter()
        .filter_map(|r| {
            let i = boundaries.partition_point(|&t| t < r.arrival_us);
            boundaries.get(i).map(|&t| ms(t - r.arrival_us))
        })
        .collect();
    let mut seen = BTreeMap::new();
    for ev in &out.obs.lifecycle {
        if ev.phase == RequestPhase::Admitted {
            seen.entry(ev.request).or_insert(ev.t_us);
        }
    }
    let admitted = seen
        .iter()
        .filter_map(|(id, &t)| {
            let arrival = sent.get(*id as usize)?.arrival_us;
            Some(ms(t.saturating_sub(arrival)))
        })
        .collect();
    (noticed, admitted)
}

/// Record the client's view of each completed request as spans.
fn client_spans(rec: &Recorder, run: &PhaseRun, due_s: Option<&[f64]>, parent: Option<SpanId>) {
    for r in &run.run.outcome.responses {
        let i = r.id as usize;
        if let (Some(first), Some(last)) = (run.view.first[i], run.view.last[i]) {
            let due = run.view.start + Duration::from_secs_f64(due_s.map_or(0.0, |d| d[i]));
            let track = format!("client req {}", r.id);
            rec.record("due to first token", &track, due, first, parent, Some(r.id));
            rec.record(
                "first to last token",
                &track,
                first,
                last,
                parent,
                Some(r.id),
            );
        }
    }
}

fn traced(ctx: &Ctx, p: &Serve, t: Traffic) -> Result<Report, String> {
    let mut report = Report::default();
    let tracer = Tracer::new();
    let rec = Recorder::aligned_to(&tracer);
    let warmup = &t.burst[..p.warmup_requests.min(t.burst.len())];
    let backend = setup(p, warmup)?;

    // Half the bursts untraced: the baseline the traced ones are held
    // against.
    let burst_reps = (rounds(p, ctx.seconds) / 2).max(1);
    let plain_cfg = serve_config(p, Tracer::disabled());
    let plain = (0..burst_reps)
        .map(|_| run_phase(&backend, &plain_cfg, p, t.burst.clone()))
        .collect::<Result<Vec<_>, _>>()?;

    let cfg = serve_config(p, tracer.clone());
    let traced_phase = |name: &str, requests: &[Request], due_s: Option<&[f64]>| {
        let span = rec.span(name, "lm-serve", None, None);
        let timed = TimedBackend::new(&backend, &rec, span.id());
        let run = run_phase(&timed, &cfg, p, requests.to_vec())?;
        client_spans(&rec, &run, due_s, span.id());
        Ok::<_, String>((run, span.id()))
    };
    let (open, _) = traced_phase("run_async open", &t.open, Some(&t.open_due_s))?;
    let mut bursts = (0..burst_reps)
        .map(|_| traced_phase("run_async burst", &t.burst, None))
        .collect::<Result<Vec<_>, _>>()?;
    let traced_wall: Vec<f64> = bursts.iter().map(|(run, _)| run.wall_s).collect();
    let plain_wall: Vec<f64> = plain.iter().map(|run| run.wall_s).collect();
    let (burst, burst_span) = bursts.pop().ok_or("no burst ran")?;

    let mut hash = Fnv::default();
    check_phase(&mut report, "open", &open, &t.open, &mut hash);
    check_phase(&mut report, "burst", &burst, &t.burst, &mut hash);
    report.check(
        "burst tokens equal with tracing on and off",
        plain.iter().all(|run| run.view.tokens == burst.view.tokens),
    );
    report.output_hash = hash.0;

    let spans = rec.snapshot();
    let self_ns = spans::self_times_ns(&spans);
    let solo_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "materialize")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    report.set("engine.solo_req_ms", median(&solo_ms));
    if let Some(id) = burst_span {
        let dur = (spans[id].end_ns - spans[id].start_ns) as f64;
        report.set("serve.sched_self_ms", self_ns[id] as f64 / 1e6);
        report.set(
            "serve.materialize_share",
            1.0 - self_ns[id] as f64 / dur.max(1.0),
        );
    }

    let oo = &open.run.outcome;
    let bo = &burst.run.outcome;
    let (noticed, admitted) = noticed_and_admitted_ms(oo, &t.open, p.time_scale);
    report.set("serve.queue_wait_p50_ms", median(&admitted));
    report.set("serve.queue_wait_p95_ms", percentile(&admitted, 0.95));
    report.set("serve.gen_late_p95_ms", percentile(&noticed, 0.95));
    let lag_us: Vec<f64> = oo
        .responses
        .iter()
        .filter_map(|r| {
            let first = open.view.first[r.id as usize]?;
            let modelled = gen::virtual_us_to_wall_s(r.first_token_us, p.time_scale);
            Some(((first - open.view.start).as_secs_f64() - modelled) * 1e6)
        })
        .collect();
    report.set("serve.stream_lag_p50_us", median(&lag_us));
    report.set("serve.slots_mean", slots_mean(bo));
    let (ttft, latency) = completed(&[due_to_token_ms(&open, &t.open_due_s)]);
    report.set("serve.ttft_p95_ms", percentile(&ttft, 0.95));
    report.set("serve.latency_p95_ms", percentile(&latency, 0.95));
    report.set("serve.itl_p50_us", median(&open.view.gaps_us));
    set_counts(&mut report, &[oo, bo]);

    let prompt_tokens: usize = t.burst.iter().map(|r| r.prompt.len()).sum();
    // Of the burst: sharing needs the prefix resident, and at the open
    // phase's low rate a request mostly finds the pool empty.
    report.set(
        "kvpool.shared_token_frac",
        bo.shared_tokens as f64 / prompt_tokens.max(1) as f64,
    );
    let page_tokens = burst.run.plan.as_ref().map_or(1, |plan| plan.page_tokens);
    report.set(
        "kvpool.reserved_over_used",
        reserved_over_used(bo, &t.burst, page_tokens),
    );
    report.set(
        "trace.overhead_frac",
        (min(&traced_wall) - min(&plain_wall)) / min(&plain_wall),
    );
    report.timing("open_ttft_ms", &ttft);
    report.timing("open_latency_ms", &latency);
    report.timing("materialize_ms", &solo_ms);
    report.timing("burst_wall_s", &plain_wall);
    report.timing("burst_wall_traced_s", &traced_wall);

    let mut pass = micro::Pass::new(ctx.params.micro, &rec, None);
    pass.trace_span();
    report.take_micro(pass.rows);
    report.trace_file = ctx.write_trace(Some(&tracer.snapshot()), &rec);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_keeps_its_fastest_replay() {
        let replays = vec![
            vec![Some((40.0, 90.0)), Some((80.0, 81.0)), Some((35.0, 36.0))],
            vec![Some((55.0, 56.0)), Some((75.0, 120.0)), None],
        ];
        // First token and last token are minimised separately; request 2
        // did not complete every time and drops out.
        let (ttft, latency) = fastest_replay(&replays);
        assert_eq!(ttft, [40.0, 75.0]);
        assert_eq!(latency, [56.0, 81.0]);
        let (every, _) = completed(&replays);
        assert_eq!(every, [40.0, 80.0, 35.0, 55.0, 75.0]);
        assert_eq!(fastest_replay(&[]), (vec![], vec![]));
    }

    #[test]
    fn rounds_follow_seconds_not_speed() {
        let p = crate::params::Params::new(false).serve;
        // 24 requests at 5 a second are 4.8 s; 0.8 of 24 s holds four.
        assert_eq!(rounds(&p, 24.0), 4);
        assert_eq!(rounds(&p, 12.0), 2);
        assert_eq!(rounds(&p, 0.5), 1);
    }
}
