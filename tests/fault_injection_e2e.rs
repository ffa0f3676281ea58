//! End-to-end fault injection across the offloading pipeline: the
//! acceptance tests for the robustness subsystem.
//!
//! - Faults off (or on but quiescent) must be **zero-cost**: the engine
//!   produces token-identical output to a build without injection.
//! - A fault-injected run must complete through retry/backpressure with
//!   nonzero counters and no panics.
//! - The same fault seed must replay the same event sequence.
//! - Unrecoverable pressure must degrade — the controller re-scores the
//!   fallback ladder with the analytic model — and still finish.

#![allow(clippy::unwrap_used)]
use lm_engine::{Engine, EngineOptions, GenerateRequest};
use lm_fault::{FaultConfig, FaultInjector, FaultProfile, RetryPolicy};
use lm_hardware::presets as hw;
use lm_models::{presets, Workload};
use lm_offload::{generate_with_degradation, DegradationController, QuantCostParams};
use lm_sim::Policy;

fn prompts() -> Vec<Vec<u32>> {
    vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6]]
}

/// Faults disabled vs. enabled-but-quiescent: bit-identical generations.
/// This is the zero-cost-off guarantee — every probe on the hot path is
/// an inlined `None`/no-fire check, never a behaviour change.
#[test]
fn quiescent_injector_is_token_identical() {
    let cfg = presets::tiny_test();
    let fault = FaultInjector::new(FaultConfig::quiescent(123));
    let clean = Engine::new(&cfg, 42, EngineOptions::default()).unwrap();
    let quiet = Engine::new(
        &cfg,
        42,
        EngineOptions {
            fault: fault.clone(),
            ..EngineOptions::default()
        },
    )
    .unwrap();

    let a = clean.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
    let b = quiet.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
    assert_eq!(a.tokens, b.tokens);
    assert_eq!(a.weight_bytes_streamed, b.weight_bytes_streamed);
    assert_eq!(a.kv_bytes_at_rest, b.kv_bytes_at_rest);

    let s = fault.stats();
    assert_eq!(s.total_faults(), 0, "quiescent injector fired: {s:?}");
}

/// A serial (prefetch off) faulted run: survivable pressure spikes and
/// stalls fire, generation completes with unchanged output, and the
/// whole event log replays bit-for-bit under the same seed. The serial
/// path is the one place exact event-sequence equality is well-defined —
/// with prefetch on, probe interleaving depends on thread timing.
#[test]
fn same_seed_replays_the_same_event_sequence() {
    let cfg = presets::tiny_test();
    let run = |seed: u64| {
        let fault = FaultInjector::new(FaultConfig {
            pool_pressure_rate: 0.5,
            pool_pressure_bytes: 4096, // survivable: well under pool slack
            stall_rate: 0.3,
            stall_ms: 1,
            ..FaultConfig::quiescent(seed)
        });
        let engine = Engine::new(
            &cfg,
            42,
            EngineOptions {
                prefetch: false,
                fault: fault.clone(),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gen = engine.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
        (gen.tokens, fault.events(), fault.stats())
    };

    let (tokens_a, events_a, stats_a) = run(9);
    let (tokens_b, events_b, stats_b) = run(9);
    let (_, events_c, _) = run(10);

    // Survivable faults leave the output untouched...
    let clean = Engine::new(&cfg, 42, EngineOptions::default()).unwrap();
    assert_eq!(tokens_a, clean.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap().tokens);
    assert_eq!(tokens_a, tokens_b);

    // ...while actually firing, deterministically per seed.
    assert!(stats_a.pool_pressure_spikes > 0, "{stats_a:?}");
    assert!(stats_a.transfer_stalls > 0, "{stats_a:?}");
    assert_eq!(events_a, events_b, "same seed must replay the same events");
    assert_eq!(stats_a, stats_b);
    assert_ne!(events_a, events_c, "different seeds should differ");
}

/// Dropped prefetches are re-fetched on demand: the consumer notices the
/// missing layer and falls back to a synchronous fetch, so output is
/// unchanged and only the drop counters show anything happened.
#[test]
fn prefetch_drops_are_refetched_without_changing_tokens() {
    let cfg = presets::tiny_test();
    let fault = FaultInjector::new(FaultConfig {
        prefetch_drop_rate: 0.6,
        ..FaultConfig::quiescent(5)
    });
    let faulted = Engine::new(
        &cfg,
        42,
        EngineOptions {
            fault: fault.clone(),
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let clean = Engine::new(&cfg, 42, EngineOptions::default()).unwrap();

    let a = faulted.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
    let b = clean.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
    assert_eq!(a.tokens, b.tokens);
    assert!(fault.stats().prefetch_drops > 0);
}

/// The full degradation path: a pressure episode sized to outlast the
/// retry budget makes the initial policy infeasible; the controller
/// re-runs the analytic model over the fallback ladder and generation
/// finishes at the degraded policy.
#[test]
fn unrecoverable_pressure_degrades_and_completes() {
    let cfg = presets::tiny_test();

    let probe = Engine::new(&cfg, 7, EngineOptions::default()).unwrap();
    let layer_bytes = probe.layer_fetch_bytes(0);
    drop(probe);
    let device_capacity = 2 * layer_bytes + 512;

    let retry = RetryPolicy::default();
    let mut fc = FaultConfig::profile(21, FaultProfile::Moderate);
    fc.pool_pressure_rate = 1.0;
    fc.pool_pressure_bytes = device_capacity as u64;
    fc.pool_pressure_burst = retry.max_attempts as u64;
    let fault = FaultInjector::new(fc);

    let options = EngineOptions {
        device_capacity,
        fault: fault.clone(),
        retry,
        ..EngineOptions::default()
    };

    let controller = DegradationController::new(
        &hw::single_gpu_a100(),
        &presets::opt_30b(),
        &Workload::motivation(),
        QuantCostParams::lm_offload_kernels(),
    );
    let out = generate_with_degradation(
        &controller,
        &cfg,
        11,
        &options,
        Policy::flexgen_default(),
        &prompts(),
        6,
    )
    .expect("degradation must recover the run");

    assert!(!out.switches.is_empty(), "a policy switch must have happened");
    assert_eq!(out.generation.tokens[0].len(), 6);
    assert_eq!(out.generation.tokens[1].len(), 6);
    let s = fault.stats();
    assert!(s.degradations > 0, "{s:?}");
    assert!(s.pool_pressure_spikes > 0, "{s:?}");
    // The run finished under a cheaper policy than it started with.
    assert!(out.policy.weights_dtype.bits() < Policy::flexgen_default().weights_dtype.bits());
}

/// A prefetch drop whose on-demand refetch fails while the loader still
/// has a layer to hand over: the sweep must surface the error. The
/// loader is then parked in a rendezvous `send`, so joining it while the
/// receiver is alive never returns — each run gets its own thread and a
/// deadline so a deadlock fails the test instead of wedging it.
#[test]
fn failed_refetch_returns_an_error_instead_of_hanging() {
    let cfg = presets::tiny_test();
    let mut failed = 0;
    for seed in 0..40u64 {
        let cfg = cfg.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let engine = Engine::new(
                &cfg,
                42,
                EngineOptions {
                    fault: FaultInjector::new(FaultConfig {
                        prefetch_drop_rate: 1.0,
                        pool_pressure_rate: 0.3,
                        pool_pressure_bytes: 1 << 40,
                        ..FaultConfig::quiescent(seed)
                    }),
                    retry: RetryPolicy::none(),
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let out = engine.run(&GenerateRequest::new(vec![vec![1, 2, 3, 4]], 2));
            tx.send((out.is_err(), engine.device_pool().used())).ok();
        });
        let (is_err, device_used) = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("seed {seed}: Engine::run never returned"));
        assert_eq!(device_used, 0, "seed {seed}: a fetched layer outlived the run");
        failed += usize::from(is_err);
    }
    assert!(failed > 0, "no refetch ever failed: the recipe no longer reaches the path");
}
