//! The two baselines the continuous scheduler is measured against:
//! sequential one-call-per-request and naive static batching.
//!
//! They are separate loops on purpose, not policies of the continuous
//! state machine (DESIGN.md §9): they are the reference the dominance
//! gate compares against, and sharing the machine would make it branch
//! on its caller for batch formation, generation padding, whole-batch
//! release, report-only deadlines and the context a step is charged at.

use crate::admission::{ServeConfig, ServeError};
use crate::backend::ServeBackend;
use crate::request::{micros, Rejection, Request, Response};
use crate::scheduler::{token_stream, ServeOutcome};
use lm_engine::EngineError;

/// Requests in service order: arrival, then id.
fn by_arrival(mut requests: Vec<Request>) -> Vec<Request> {
    requests.sort_by_key(|r| (r.arrival_us, r.id));
    requests
}

/// Report (never enforce) an admission deadline: service starting past
/// it counts as a miss, keeping the baselines comparable with the
/// continuous scheduler's rejections.
fn report_deadline(req: &Request, clock_us: u64, cfg: &ServeConfig, out: &mut ServeOutcome) {
    if req.deadline_us.is_some_and(|d| d < clock_us) {
        out.deadline_misses += 1;
        cfg.tracer.counter_add("serve.deadline_miss", 1);
    }
}

fn seconds_since_arrival(req: &Request, t_us: u64) -> f64 {
    t_us.saturating_sub(req.arrival_us) as f64 / 1e6
}

/// Baseline 1: one call per request, in arrival order — each request
/// pays its own full weight stream (no amortisation at all).
pub(crate) fn run_sequential(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    requests: Vec<Request>,
) -> Result<ServeOutcome, ServeError> {
    let tracer = &cfg.tracer;
    let mut out = ServeOutcome::default();
    let mut clock_us = 0u64;
    for req in by_arrival(requests) {
        clock_us = clock_us.max(req.arrival_us);
        report_deadline(&req, clock_us, cfg, &mut out);
        let tokens = match token_stream(backend, &req) {
            Ok(tokens) => tokens,
            Err(reason) => {
                out.rejections.push(Rejection { id: req.id, reason });
                continue;
            }
        };
        clock_us += micros(backend.prefill_seconds(req.prompt.len(), 1));
        let mut first_token_us = None;
        for i in 0..tokens.len() {
            clock_us += micros(backend.decode_step_seconds(&[(req.prompt.len() + i + 1) as u64]));
            if first_token_us.is_none() {
                first_token_us = Some(clock_us);
                tracer.histogram_record("serve.ttft_s", seconds_since_arrival(&req, clock_us));
            }
            out.generated_tokens += 1;
        }
        tracer.histogram_record("serve.latency_s", seconds_since_arrival(&req, clock_us));
        out.responses.push(Response {
            id: req.id,
            first_token_us: first_token_us.unwrap_or(clock_us),
            finish_us: clock_us,
            arrival_us: req.arrival_us,
            tokens,
        });
    }
    Ok(out.close(clock_us))
}

/// Baseline 2: naive static batching — fixed groups of `batch` in
/// arrival order; a group waits for its last member to arrive, pads
/// prompts *and* generation lengths to the group max, and releases every
/// response only when the whole group finishes.
pub(crate) fn run_static(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    batch: usize,
    requests: Vec<Request>,
) -> Result<ServeOutcome, ServeError> {
    if batch == 0 {
        return Err(ServeError::Engine(EngineError::InvalidRequest {
            reason: "static batching needs a batch size of at least 1".to_string(),
        }));
    }
    let tracer = &cfg.tracer;
    let mut out = ServeOutcome::default();
    let mut clock_us = 0u64;
    for chunk in by_arrival(requests).chunks(batch) {
        // The batch forms only when its last member has arrived; a
        // deadline passing meanwhile is the static scheduler's signature
        // failure mode.
        let formed = chunk.iter().map(|r| r.arrival_us).max().unwrap_or(0);
        clock_us = clock_us.max(formed);
        for req in chunk {
            report_deadline(req, clock_us, cfg, &mut out);
        }
        let mut members: Vec<(&Request, Vec<u32>)> = Vec::new();
        for req in chunk {
            match token_stream(backend, req) {
                Ok(tokens) => members.push((req, tokens)),
                Err(reason) => out.rejections.push(Rejection { id: req.id, reason }),
            }
        }
        if members.is_empty() {
            continue;
        }
        let pad_len = members
            .iter()
            .map(|(r, _)| r.prompt.len())
            .max()
            .unwrap_or(1);
        let max_gen = members.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
        for (r, t) in &members {
            out.padding_tokens += (pad_len - r.prompt.len()) as u64 + (max_gen - t.len()) as u64;
        }
        clock_us += micros(backend.prefill_seconds(pad_len, members.len()));
        let mut firsts: Vec<Option<u64>> = vec![None; members.len()];
        for step in 0..max_gen {
            // Every slot pays every step at the padded context — the
            // naive part: finished sequences idle inside the batch.
            let contexts: Vec<u64> = vec![(pad_len + step + 1) as u64; members.len()];
            clock_us += micros(backend.decode_step_seconds(&contexts));
            for (m, (_, tokens)) in members.iter().enumerate() {
                if step < tokens.len() {
                    out.generated_tokens += 1;
                    firsts[m].get_or_insert(clock_us);
                }
            }
        }
        // Naive release: the whole batch returns together.
        for (m, (req, tokens)) in members.into_iter().enumerate() {
            let first = firsts[m].unwrap_or(clock_us);
            tracer.histogram_record("serve.ttft_s", seconds_since_arrival(req, first));
            tracer.histogram_record("serve.latency_s", seconds_since_arrival(req, clock_us));
            out.responses.push(Response {
                id: req.id,
                tokens,
                arrival_us: req.arrival_us,
                first_token_us: first,
                finish_us: clock_us,
            });
        }
    }
    Ok(out.close(clock_us))
}
#[cfg(test)]
mod tests {
    use crate::backend::AnalyticBackend;
    use crate::request::Request;
    use crate::session::{ServeMode, ServeSession};
    use crate::ServeError;
    use lm_engine::EngineError;

    fn run(mode: ServeMode, reqs: Vec<Request>) -> Result<crate::ServeOutcome, ServeError> {
        let b = AnalyticBackend::opt_30b();
        ServeSession::new(&b).mode(mode).run(reqs).map(|r| r.outcome)
    }

    #[test]
    fn baselines_report_deadline_misses_without_enforcing() {
        // Arrives immediately but sequential service reaches it late;
        // static batch (size 2) waits for the late second arrival.
        let doomed = Request::new(0, vec![1, 2], 4).with_deadline_us(10);
        let hog = Request::new(1, vec![1; 64], 40);
        let late = Request::new(2, vec![3], 4).with_arrival_us(50_000_000);
        let seq = run(
            ServeMode::Sequential,
            vec![hog, doomed.clone().with_arrival_us(1000)],
        )
        .unwrap();
        assert_eq!(seq.deadline_misses, 1, "service starts after the deadline");
        assert_eq!(seq.responses.len(), 2, "reported, not enforced");
        let stat = run(ServeMode::Static { batch: 2 }, vec![doomed, late]).unwrap();
        assert_eq!(stat.deadline_misses, 1, "batch forms after the deadline");
        assert_eq!(stat.responses.len(), 2);
    }

    #[test]
    fn a_zero_batch_is_a_typed_error_not_a_panic() {
        let reqs = vec![Request::new(0, vec![1, 2], 4)];
        match run(ServeMode::Static { batch: 0 }, reqs) {
            Err(ServeError::Engine(EngineError::InvalidRequest { reason })) => {
                assert!(reason.contains("batch size"), "{reason}")
            }
            other => panic!("expected InvalidRequest, got ok={}", other.is_ok()),
        }
    }
}
