//! Cross-validation between the *real* engine and the analytic world:
//! the byte volumes the engine actually moves must equal what the shape
//! math in `lm-models` predicts — the bridge that justifies simulating
//! the large models from shapes alone (DESIGN.md §2).

#![allow(clippy::unwrap_used)]
use lm_engine::{Engine, EngineOptions, GenerateRequest};
use lm_models::{footprint, presets, DType, Workload};
use lm_tensor::QuantConfig;

fn prompts(n: usize, len: usize) -> Vec<Vec<u32>> {
    (0..n).map(|i| (0..len as u32).map(|t| t + i as u32).collect()).collect()
}

#[test]
fn streamed_weight_bytes_match_shape_math() {
    // The engine streams every layer once per sweep; with f32 at rest the
    // per-sweep volume must equal lm-models' weights_bytes at F32 (plus
    // the small bias/norm vectors the paper's num_weights omits).
    let cfg = presets::tiny_test();
    let engine = Engine::new(&cfg, 9, EngineOptions::default()).unwrap();
    let gen_len = 4usize;
    let g = engine.run(&GenerateRequest::new(prompts(2, 3), gen_len)).unwrap();
    let sweeps = gen_len as u64; // prefill + (gen_len - 1) decode steps
    let per_sweep = g.weight_bytes_streamed / sweeps;
    let predicted = footprint::weights_bytes(&cfg, DType::F32);
    let slack = predicted / 10; // biases + norm vectors
    assert!(
        per_sweep >= predicted && per_sweep <= predicted + slack,
        "engine {per_sweep} vs model {predicted}"
    );
}

#[test]
fn engine_runs_the_models_decode_step_count() {
    // Eq. 1 and the simulator count one prefill sweep plus
    // `gen_len.saturating_sub(1)` decode sweeps; the engine's streamed
    // bytes, read back as whole sweeps, must say the same.
    let cfg = presets::tiny_test();
    let engine = Engine::new(&cfg, 9, EngineOptions::default()).unwrap();
    // f32 at rest: a layer's host bytes are its fetched bytes.
    let per_sweep: u64 = (0..cfg.num_layers).map(|j| engine.layer_fetch_bytes(j) as u64).sum();
    for gen_len in [1usize, 2, 5] {
        let g = engine.run(&GenerateRequest::new(prompts(2, 3), gen_len)).unwrap();
        assert_eq!(g.weight_bytes_streamed % per_sweep, 0);
        let sweeps = g.weight_bytes_streamed / per_sweep;
        assert_eq!(sweeps, 1 + gen_len.saturating_sub(1) as u64, "gen_len {gen_len}");
    }
    // A single-token generation is prefill and one sample: no decode
    // sweep, so no traced fetch.
    let tracer = lm_trace::Tracer::new();
    let traced = Engine::new(
        &cfg,
        9,
        EngineOptions { tracer: tracer.clone(), ..Default::default() },
    )
    .unwrap();
    let g = traced.run(&GenerateRequest::new(prompts(2, 3), 1)).unwrap();
    assert_eq!(g.tokens[0].len(), 1);
    let spans = tracer.snapshot().spans;
    assert!(
        spans.iter().all(|s| s.kind != lm_trace::TaskKind::LoadWeight),
        "{} load_weight spans",
        spans.len()
    );
}

#[test]
fn int4_weights_stream_a_quarter_of_the_bytes() {
    let cfg = presets::tiny_test();
    let gen_len = 3usize;
    let f32_engine = Engine::new(&cfg, 9, EngineOptions::default()).unwrap();
    let q_engine = Engine::new(
        &cfg,
        9,
        EngineOptions {
            quantize_at_rest: Some(QuantConfig::int4()),
            ..Default::default()
        },
    )
    .unwrap();
    let a = f32_engine.run(&GenerateRequest::new(prompts(2, 3), gen_len)).unwrap();
    let b = q_engine.run(&GenerateRequest::new(prompts(2, 3), gen_len)).unwrap();
    let ratio = a.weight_bytes_streamed as f64 / b.weight_bytes_streamed as f64;
    // 4-bit codes are 8x smaller than f32 minus group metadata: expect
    // ~5.5-8x (the same compression the DType math predicts for codes,
    // plus metadata).
    assert!(
        (4.0..=8.0).contains(&ratio),
        "compression ratio {ratio}"
    );
}

#[test]
fn kv_at_rest_bytes_match_footprint_math() {
    // Full-precision KV at rest: 2·(s+n-1)·h·b·4 bytes per layer — the
    // last sampled token is returned, never written back.
    let cfg = presets::tiny_test();
    let engine = Engine::new(&cfg, 9, EngineOptions::default()).unwrap();
    let (b, s, n) = (2usize, 3usize, 4usize);
    let g = engine.run(&GenerateRequest::new(prompts(b, s), n)).unwrap();
    let per_layer =
        2 * (s + n - 1) * cfg.hidden as usize * b * std::mem::size_of::<f32>();
    let expected = per_layer * cfg.num_layers as usize;
    assert_eq!(g.kv_bytes_at_rest, expected);
    // And the footprint crate's f32 equivalent agrees (its workload is
    // block-granular; compare per-element counts).
    let w = Workload::new(s as u64, n as u64, b as u64, 1);
    let elems = footprint::kv_cache_elems_full(&cfg, w.final_seq_len() - 1, w.block_size())
        * cfg.num_layers as u64;
    assert_eq!(g.kv_bytes_at_rest as u64, elems * 4);
}

#[test]
fn engine_quantized_paths_compose() {
    // Weights int4 + KV int8 at rest simultaneously: the most compressed
    // configuration still generates, with both savings visible.
    let cfg = presets::tiny_test();
    let engine = Engine::new(
        &cfg,
        13,
        EngineOptions {
            quantize_at_rest: Some(QuantConfig::int4()),
            kv_quantize_at_rest: Some(QuantConfig::int8()),
            ..Default::default()
        },
    )
    .unwrap();
    let g = engine.run(&GenerateRequest::new(prompts(2, 4), 5)).unwrap();
    assert_eq!(g.tokens[0].len(), 5);
    let full = Engine::new(&cfg, 13, EngineOptions::default()).unwrap();
    let gf = full.run(&GenerateRequest::new(prompts(2, 4), 5)).unwrap();
    assert!(g.weight_bytes_streamed < gf.weight_bytes_streamed / 4);
    assert!(g.kv_bytes_at_rest < gf.kv_bytes_at_rest / 2);
}
