//! One request is one block on the *real* engine: every row crosses each
//! fetched layer in the same call, so the weight stream is paid once per
//! sweep for all of them, while each row's tokens stay bit-identical to
//! that row run alone — FlexGen's core mechanism, demonstrated with actual
//! byte accounting rather than a model.

#![allow(clippy::unwrap_used)]
use lm_engine::{Engine, EngineOptions, GenerateRequest, Sampler};
use lm_models::{presets, Family};
use lm_tensor::QuantConfig;

fn prompts(n: usize) -> Vec<Vec<u32>> {
    (0..n)
        .map(|i| vec![1 + i as u32, 20 + i as u32, 7, 99])
        .collect()
}

/// Four prompts of 1, 5, 16 and 18 tokens: one fills a KV page exactly,
/// another starts in the next.
fn ragged() -> Vec<Vec<u32>> {
    [1u32, 5, 16, 18]
        .iter()
        .map(|&n| (0..n).map(|i| (i * 37 + n) % 500).collect())
        .collect()
}

#[test]
fn zigzag_outputs_equal_independent_batches() {
    // Rows of one request share no state: matmul's tile invariant, the
    // row-wise norms, GELU and RoPE and per-sequence attention make a row
    // computed in a block bit-identical to the row computed alone, and
    // rows of different lengths need no padding.
    let mut llama = presets::tiny_test();
    llama.family = Family::Llama;
    let gen_len = 4;
    let weights = [
        ("f32", None, false),
        ("f16", None, true),
        ("int4", Some(QuantConfig::int4()), false),
    ];
    for cfg in [presets::tiny_test(), llama] {
        for (at_rest, quantize_at_rest, f16_at_rest) in weights {
            for prefetch in [true, false] {
                for sampler in [Sampler::Greedy, Sampler::TopK { k: 8, seed: 5 }] {
                    let options = EngineOptions {
                        quantize_at_rest,
                        f16_at_rest,
                        prefetch,
                        sampler,
                        ..Default::default()
                    };
                    let engine = Engine::new(&cfg, 77, options).unwrap();
                    for all in [prompts(4), ragged()] {
                        let block = engine.run(&GenerateRequest::new(all.clone(), gen_len)).unwrap();
                        for (row, prompt) in block.tokens.iter().zip(&all) {
                            let solo = GenerateRequest::new(std::slice::from_ref(prompt), gen_len);
                            assert_eq!(
                                engine.run(&solo).unwrap().tokens,
                                std::slice::from_ref(row),
                                "{:?} {at_rest} prefetch {prefetch} {sampler:?} prompt {}",
                                cfg.family,
                                prompt.len()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn zigzag_amortises_weight_traffic_across_batches() {
    // The measurable claim behind Eq. 2's load_weight term: a sweep
    // streams each layer once whatever it carries, so four rows in one
    // request — of one length or ragged — cost the weight traffic of one
    // row alone.
    let cfg = presets::tiny_test();
    let engine = Engine::new(&cfg, 78, EngineOptions::default()).unwrap();
    let gen_len = 3;
    let solo = engine.run(&GenerateRequest::new(prompts(1), gen_len)).unwrap();
    for all in [prompts(4), ragged()] {
        let block = engine.run(&GenerateRequest::new(all, gen_len)).unwrap();
        assert_eq!(block.weight_bytes_streamed, solo.weight_bytes_streamed);
    }
}

#[test]
fn zigzag_single_batch_equals_generate() {
    let cfg = presets::tiny_test();
    let engine = Engine::new(&cfg, 79, EngineOptions::default()).unwrap();
    let all = prompts(2);
    let block = engine.run(&GenerateRequest::new(all.clone(), 4)).unwrap();
    let first = engine.run(&GenerateRequest::new(all[..1].to_vec(), 4)).unwrap();
    assert_eq!(block.tokens[..1], first.tokens[..]);
    assert_eq!(block.weight_bytes_streamed, first.weight_bytes_streamed);
}

#[test]
fn zigzag_respects_tight_device_budget() {
    // More rows need no more device memory: weights still stream two
    // layers at a time.
    let cfg = presets::tiny_test();
    let layer_bytes = cfg.weights_per_layer() as usize * 4 + 64 * 1024;
    let engine = Engine::new(
        &cfg,
        80,
        EngineOptions {
            device_capacity: 2 * layer_bytes,
            ..Default::default()
        },
    )
    .unwrap();
    let g = engine.run(&GenerateRequest::new(prompts(4), 3)).unwrap();
    assert!(g.device_peak <= 2 * layer_bytes);
    assert_eq!(g.tokens.len(), 4);
}
