//! The two baselines the continuous scheduler is measured against:
//! sequential one-call-per-request and naive static batching. They are
//! one loop: sequential service is static batching with a batch of one,
//! where nothing pads and each request pays its own full weight stream
//! (no amortisation at all).
//!
//! The loop is separate on purpose, not a policy of the continuous
//! state machine (DESIGN.md §9): it is the reference the dominance
//! gate compares against, and sharing the machine would make it branch
//! on its caller for batch formation, generation padding, whole-batch
//! release, report-only deadlines and the context a step is charged at.

use crate::admission::{ServeConfig, ServeError};
use crate::backend::{ServeBackend, StepSeq};
use crate::request::{micros, RejectReason, Rejection, Request, Response};
use crate::scheduler::{admission_step, validate, ServeOutcome};
use lm_engine::EngineError;

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

/// A request's admission, as the continuous scheduler does it: the
/// shared validation, then its first token into a fresh buffer.
fn admit(backend: &dyn ServeBackend, req: &Request) -> Result<Vec<u32>, RejectReason> {
    let mut tokens = Vec::new();
    validate(backend, req)?;
    admission_step(
        backend,
        StepSeq {
            req,
            emitted: 0,
            tokens: &mut tokens,
        },
    )?;
    Ok(tokens)
}

/// Naive static batching — fixed groups of `batch` in arrival order
/// (then id); a group waits for its last member to arrive, pads prompts
/// *and* generation lengths to the group max, and releases every
/// response only when the whole group finishes.
pub(crate) fn run_static(
    backend: &dyn ServeBackend,
    cfg: &ServeConfig,
    batch: usize,
    mut requests: Vec<Request>,
) -> Result<ServeOutcome, ServeError> {
    if batch == 0 {
        return Err(ServeError::Engine(EngineError::InvalidRequest {
            reason: "static batching needs a batch size of at least 1".to_string(),
        }));
    }
    let tracer = &cfg.tracer;
    let mut out = ServeOutcome::default();
    let mut clock_us = 0u64;
    requests.sort_by_key(|r| (r.arrival_us, r.id));
    for chunk in requests.chunks(batch) {
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
            match admit(backend, req) {
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
        let max_gen = members.iter().map(|(r, _)| r.gen_len).max().unwrap_or(0);
        for (r, _) in &members {
            out.padding_tokens += (pad_len - r.prompt.len()) as u64 + (max_gen - r.gen_len) as u64;
            out.generated_tokens += r.gen_len as u64;
        }
        clock_us += micros(backend.prefill_seconds(pad_len, members.len()));
        // Every member's first token lands with the first step.
        let mut first = clock_us;
        for step in 0..max_gen {
            let mut live: Vec<StepSeq<'_>> = members
                .iter_mut()
                .filter(|(req, _)| step < req.gen_len)
                .map(|(req, tokens)| StepSeq {
                    req,
                    emitted: step,
                    tokens,
                })
                .collect();
            backend.step(&mut live)?;
            // Every slot pays every step at the padded context — the
            // naive part: finished sequences idle inside the batch.
            let contexts: Vec<u64> = vec![(pad_len + step + 1) as u64; members.len()];
            clock_us += micros(backend.decode_step_seconds(&contexts));
            if step == 0 {
                first = clock_us;
            }
        }
        // Naive release: the whole batch returns together.
        for (req, tokens) in members {
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
    use crate::request::{RejectReason, Request};
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
    fn both_baselines_reject_a_request_with_nothing_to_generate() {
        for mode in [ServeMode::Sequential, ServeMode::Static { batch: 2 }] {
            let reqs = vec![Request::new(0, vec![1, 2], 0), Request::new(1, vec![3], 4)];
            let out = run(mode, reqs).unwrap();
            assert_eq!(out.responses.len(), 1, "{mode:?}");
            assert_eq!(out.rejections[0].id, 0, "{mode:?}");
            assert!(
                matches!(out.rejections[0].reason, RejectReason::Invalid(_)),
                "{mode:?}"
            );
        }
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
