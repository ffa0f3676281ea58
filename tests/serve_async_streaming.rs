//! The serve API contract (DESIGN.md §9.4), end to end:
//!
//! 1. The virtual path is a pure function of its inputs — regenerating
//!    the `repro serve --shared-prefix` artifact through `ServeSession`
//!    must reproduce the committed `results/serve.json` byte for byte;
//! 2. The real-time path (`ServeSession::run_async`) changes *when*
//!    tokens arrive, never *which*: for random ragged traffic on the
//!    real miniature engine, every streamed token sequence equals the
//!    solo `Engine::run` of its request, and total resolution and KV
//!    reclamation hold even when clients disconnect mid-stream.
#![allow(clippy::unwrap_used)]

use lm_bench::experiments::serve;
use lm_engine::GenerateRequest;
use lm_serve::{conform, AsyncConfig, EngineBackend, Request, ServeSession};
use proptest::prelude::*;

/// Regenerate the default serve artifact (both the plain run and the
/// shared-prefix study, exactly as `repro serve --rps 4 --requests 32
/// --seed 7 --shared-prefix` assembles it) and compare it byte for byte
/// against the committed golden: a change to the scheduler, the
/// planner, the cost model or the clock/transport split that moves a
/// virtual-clock byte fails here.
#[test]
fn virtual_clock_serve_artifact_matches_the_committed_golden_bytes() {
    let (mut r, _) = serve::run(7, 4.0, 32);
    r.shared_prefix = Some(serve::run_shared_prefix(7, 4.0, 32, serve::DEFAULT_PREFIX_LEN).0);
    let regenerated = serde_json::to_string_pretty(&r).unwrap();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/serve.json"
    ))
    .expect("results/serve.json is committed");
    assert_eq!(
        regenerated, golden,
        "the virtual-clock serve path drifted from the committed golden artifact"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Async output transparency for arbitrary ragged traffic: each
    /// surviving stream carries exactly the solo-run tokens; dropped
    /// streams resolve without leaking a page.
    #[test]
    fn async_streams_are_output_transparent_for_random_traffic(
        n in 2usize..6,
        traffic_seed in 0u64..500,
        engine_seed in 0u64..16,
    ) {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let backend = EngineBackend::tiny_test(engine_seed).unwrap();
        let mut rng = SmallRng::seed_from_u64(traffic_seed);
        let requests: Vec<Request> = (0..n)
            .map(|i| {
                let plen = rng.gen_range(1usize..16);
                let glen = rng.gen_range(1usize..8);
                let prompt: Vec<u32> =
                    (0..plen as u32).map(|t| 1 + (t * 11 + i as u32) % 100).collect();
                Request::new(i as u64, prompt, glen)
                    .with_arrival_us(rng.gen_range(0u64..200_000))
            })
            .collect();
        // A large scale makes pacing instantaneous: the property is
        // about token values, not wall timing.
        let acfg = AsyncConfig { time_scale: 1e6, ..AsyncConfig::default() };
        let session = ServeSession::new(&backend);
        let (run, collected) = session
            .run_async(requests.clone(), &acfg, |mut streams| {
                let mut collected = Vec::new();
                for (id, mut rx) in streams.drain() {
                    // Drop one receiver mid-setup when there are enough
                    // requests: an immediate disconnect.
                    if n >= 4 && id == 1 {
                        continue;
                    }
                    let mut tokens = Vec::new();
                    while let Some(ev) = rx.blocking_recv() {
                        tokens.push(ev.token);
                    }
                    collected.push((id, tokens));
                }
                collected
            })
            .unwrap();
        let (plan, out) = run.into_continuous();
        prop_assert_eq!(conform(&plan, &out).map(|c| c.requests), Ok(n));
        for r in &out.responses {
            let req = &requests[r.id as usize];
            let solo = backend
                .engine()
                .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len))
                .unwrap();
            prop_assert_eq!(&r.tokens, &solo.tokens[0], "response {} vs solo", r.id);
            if let Some((_, streamed)) = collected.iter().find(|(id, _)| *id == r.id) {
                prop_assert_eq!(streamed, &r.tokens, "stream {} vs response", r.id);
            }
        }
    }
}
