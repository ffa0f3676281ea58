//! End-to-end tests of the lm-serve continuous-batching layer
//! (DESIGN.md §9): dominance over the baselines on OPT-30B-class
//! traffic, byte-level determinism, output transparency against solo
//! `Engine::run` calls on the real miniature engine, and conservation of
//! requests (every one is answered or rejected with a typed reason).
#![allow(clippy::unwrap_used)]

use lm_engine::GenerateRequest;
use lm_serve::{
    conform, synth_traffic, AnalyticBackend, EngineBackend, RejectReason, Request, ServeBackend,
    ServeConfig, ServeMode, ServeSession,
};
use proptest::prelude::*;

/// The acceptance workload: `repro serve --rps 4 --requests 32 --seed 7`.
#[test]
fn continuous_batching_dominates_baselines_on_opt_30b_traffic() {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(7, 4.0, 32, backend.model());
    let cfg = ServeConfig::default();
    let (plan, cont) = ServeSession::new(&backend)
        .config(cfg.clone())
        .run(traffic.clone())
        .unwrap()
        .into_continuous();
    let seq = ServeSession::new(&backend)
        .config(cfg.clone())
        .mode(ServeMode::Sequential)
        .run(traffic.clone())
        .unwrap()
        .outcome;
    let stat = ServeSession::new(&backend)
        .config(cfg)
        .mode(ServeMode::Static { batch: plan.slots })
        .run(traffic)
        .unwrap()
        .outcome;

    assert!(
        cont.tokens_per_s() >= 1.3 * seq.tokens_per_s(),
        "continuous {:.3} tok/s must be >= 1.3x sequential {:.3} tok/s",
        cont.tokens_per_s(),
        seq.tokens_per_s()
    );
    assert!(
        cont.tokens_per_s() > stat.tokens_per_s(),
        "continuous {:.3} tok/s must beat static {:.3} tok/s",
        cont.tokens_per_s(),
        stat.tokens_per_s()
    );
    // The KV pool never over-commits past the linted plan.
    assert!(cont.kv_peak_bytes as u64 <= plan.kv_pool_bytes);
}

#[test]
fn serving_runs_are_bit_identical_across_repetitions() {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(7, 4.0, 32, backend.model());
    let session = ServeSession::new(&backend);
    let (plan_a, a) = session.run(traffic.clone()).unwrap().into_continuous();
    let (plan_b, b) = session.run(traffic).unwrap().into_continuous();
    assert_eq!(plan_a, plan_b);
    assert_eq!(a.responses, b.responses);
    assert_eq!(a.rejections, b.rejections);
    assert_eq!(a.sim_seconds.to_bits(), b.sim_seconds.to_bits());
    assert_eq!(a.generated_tokens, b.generated_tokens);
    assert_eq!(a.kv_peak_bytes, b.kv_peak_bytes);
}

/// Output transparency on the real engine: a request served inside a
/// continuous batch yields exactly the tokens of a solo `Engine::run`.
#[test]
fn scheduled_outputs_equal_solo_engine_runs() {
    let backend = EngineBackend::tiny_test(11).unwrap();
    let prompts: [&[u32]; 4] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10], &[11]];
    let requests: Vec<Request> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| Request::new(i as u64, p.to_vec(), 3 + i).with_arrival_us(i as u64 * 100))
        .collect();
    let out = ServeSession::new(&backend).run(requests).unwrap().outcome;
    assert_eq!(out.responses.len(), 4, "rejections: {:?}", out.rejections);
    for r in &out.responses {
        let prompt = prompts[r.id as usize].to_vec();
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![prompt], 3 + r.id as usize))
            .unwrap();
        assert_eq!(
            r.tokens, solo.tokens[0],
            "request {} must match its solo run",
            r.id
        );
    }
}

/// Output transparency under prefix sharing (DESIGN.md §9.3): requests
/// funneled through the paged pool's prefix index — fully identical
/// prompts and prompts with a divergent suffix alike — map only the
/// whole prefix pages, keep their tails private, and produce exactly the
/// tokens of their solo `Engine::run`.
#[test]
fn shared_prompt_outputs_equal_solo_runs() {
    let backend = EngineBackend::tiny_test(5).unwrap();
    // 37 tokens = two full 16-token pages plus an unaligned 5-token
    // tail: a sharer maps the two full pages (32 tokens), never the tail.
    let system: Vec<u32> = (1..=37).collect();
    let mut requests: Vec<Request> = (0..4u64)
        .map(|i| Request::new(i, system.clone(), 3 + i as usize).with_arrival_us(i * 50))
        .collect();
    // Two more diverge after the system prompt; they share the same
    // aligned pages and no more.
    for i in 4..6u64 {
        let mut prompt = system.clone();
        prompt.extend([90 + i as u32, 95 + i as u32]);
        requests.push(Request::new(i, prompt, 4).with_arrival_us(i * 50));
    }
    let prompts: Vec<Vec<u32>> = requests.iter().map(|r| r.prompt.clone()).collect();
    let gens: Vec<usize> = requests.iter().map(|r| r.gen_len).collect();

    let (plan, out) = ServeSession::new(&backend).run(requests).unwrap().into_continuous();
    assert_eq!(out.responses.len(), 6, "rejections: {:?}", out.rejections);
    assert!(
        out.shared_prefix_hits > 0,
        "identical prompts must hit the prefix index"
    );
    // Each of the five later admissions maps exactly the two full
    // pages: two hits and 32 tokens apiece.
    assert_eq!((out.shared_prefix_hits, out.shared_tokens), (5 * 2, 5 * 32));
    conform(&plan, &out).unwrap();
    for r in &out.responses {
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(
                vec![prompts[r.id as usize].clone()],
                gens[r.id as usize],
            ))
            .unwrap();
        assert_eq!(
            r.tokens, solo.tokens[0],
            "request {} diverged from its solo run under sharing",
            r.id
        );
    }
}

#[test]
fn invalid_requests_surface_typed_rejections_not_panics() {
    let backend = EngineBackend::tiny_test(11).unwrap();
    let max = backend.model().max_seq_len as usize;
    let requests = vec![
        Request::new(0, vec![], 4),
        Request::new(1, vec![1; max], max),
        Request::new(2, vec![1, 2], 4),
    ];
    let out = ServeSession::new(&backend).run(requests).unwrap().outcome;
    assert_eq!(out.responses.len(), 1);
    assert_eq!(out.rejections.len(), 2);
    for rej in &out.rejections {
        assert!(
            matches!(rej.reason, RejectReason::Invalid(_)),
            "id {} got {:?}",
            rej.id,
            rej.reason
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any ragged batch of valid requests, the scheduler's per-request
    /// output equals the solo engine run, and responses + rejections
    /// conserve the request count.
    #[test]
    fn scheduler_is_output_transparent_for_random_traffic(
        n in 1usize..6,
        traffic_seed in 0u64..1_000,
        seed in 0u64..32,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let backend = EngineBackend::tiny_test(seed).unwrap();
        let mut rng = SmallRng::seed_from_u64(traffic_seed);
        let requests: Vec<Request> = (0..n)
            .map(|i| {
                let plen = rng.gen_range(1usize..24);
                let glen = rng.gen_range(1usize..8);
                let arrival = rng.gen_range(0u64..5_000_000);
                let prompt: Vec<u32> =
                    (0..plen as u32).map(|t| 1 + (t * 7 + i as u32) % 100).collect();
                Request::new(i as u64, prompt, glen).with_arrival_us(arrival)
            })
            .collect();
        let n = requests.len();
        let out = ServeSession::new(&backend).run(requests.clone()).unwrap().outcome;
        prop_assert_eq!(out.responses.len() + out.rejections.len(), n);
        prop_assert_eq!(out.responses.len(), n, "all requests are valid: {:?}", out.rejections);
        for r in &out.responses {
            let req = &requests[r.id as usize];
            let solo = backend
                .engine()
                .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len))
                .unwrap();
            prop_assert_eq!(&r.tokens, &solo.tokens[0]);
        }
    }
}
