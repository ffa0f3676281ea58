//! Cross-crate integration: the real offloading engine generates the same
//! tokens under tight device budgets, at-rest quantization shrinks the
//! footprint, and pool accounting holds end to end.

#![allow(clippy::unwrap_used)]
use lm_engine::{Engine, EngineOptions, GenerateRequest, Sampler};
use lm_models::presets;
use lm_tensor::QuantConfig;

fn prompts() -> Vec<Vec<u32>> {
    vec![vec![5, 9, 13, 2, 8], vec![40, 41, 42, 43, 44]]
}

#[test]
fn opt125m_generates_deterministically() {
    // A real (if synthetic-weighted) OPT-architecture model, full
    // prefill + decode through every layer.
    let cfg = presets::opt_125m();
    let engine = Engine::new(&cfg, 99, EngineOptions::default()).unwrap();
    let a = engine.run(&GenerateRequest::new(prompts().to_vec(), 4)).unwrap();
    let b = engine.run(&GenerateRequest::new(prompts().to_vec(), 4)).unwrap();
    assert_eq!(a.tokens, b.tokens);
    assert_eq!(a.tokens.len(), 2);
    assert!(a.tokens.iter().all(|t| t.len() == 4));
    assert!(a.throughput > 0.0);
}

#[test]
fn llama_family_generates() {
    // The LLaMA path exercises RMSNorm + SwiGLU (three MLP matrices).
    let mut cfg = presets::llama_7b();
    // Shrink to test scale while keeping the architecture family.
    cfg.num_layers = 3;
    cfg.hidden = 64;
    cfg.ffn_hidden = 172;
    cfg.num_heads = 4;
    cfg.vocab_size = 256;
    let engine = Engine::new(&cfg, 5, EngineOptions::default()).unwrap();
    let g = engine.run(&GenerateRequest::new(prompts().to_vec(), 6)).unwrap();
    assert_eq!(g.tokens[0].len(), 6);
}

#[test]
fn tight_budget_generation_is_equivalent_and_bounded() {
    let cfg = presets::tiny_test();
    let roomy = Engine::new(&cfg, 3, EngineOptions::default()).unwrap();
    let baseline = roomy.run(&GenerateRequest::new(prompts().to_vec(), 10)).unwrap();

    let layer_bytes = cfg.weights_per_layer() as usize * 4 + 64 * 1024;
    let budget = 2 * layer_bytes;
    let tight = Engine::new(
        &cfg,
        3,
        EngineOptions {
            device_capacity: budget,
            prefetch: true,
            ..Default::default()
        },
    )
    .unwrap();
    let offloaded = tight.run(&GenerateRequest::new(prompts().to_vec(), 10)).unwrap();
    assert_eq!(baseline.tokens, offloaded.tokens);
    assert!(
        offloaded.device_peak <= budget,
        "peak {} > budget {budget}",
        offloaded.device_peak
    );
}

#[test]
fn quantized_at_rest_top1_drift_is_limited_on_tiny_model() {
    // int8 at rest: the greedy trajectory of a tiny model usually matches
    // for the first tokens; assert the engine runs and the first token
    // matches (error bounds are tested at the tensor level).
    let cfg = presets::tiny_test();
    let full = Engine::new(&cfg, 21, EngineOptions::default()).unwrap();
    let quant = Engine::new(
        &cfg,
        21,
        EngineOptions {
            quantize_at_rest: Some(QuantConfig::int8()),
            ..Default::default()
        },
    )
    .unwrap();
    let a = full.run(&GenerateRequest::new(prompts().to_vec(), 3)).unwrap();
    let b = quant.run(&GenerateRequest::new(prompts().to_vec(), 3)).unwrap();
    assert_eq!(a.tokens[0][0], b.tokens[0][0], "first greedy token must survive int8");
}

#[test]
fn top_k_sampling_is_reproducible_across_engines() {
    let cfg = presets::tiny_test();
    let opts = EngineOptions {
        sampler: Sampler::TopK { k: 4, seed: 1234 },
        ..Default::default()
    };
    let e1 = Engine::new(&cfg, 8, opts.clone()).unwrap();
    let e2 = Engine::new(&cfg, 8, opts).unwrap();
    assert_eq!(
        e1.run(&GenerateRequest::new(prompts().to_vec(), 5)).unwrap().tokens,
        e2.run(&GenerateRequest::new(prompts().to_vec(), 5)).unwrap().tokens
    );
}

/// Tokens `engine_tokens_are_pinned` expects, one block per case in its
/// order: OPT then LLaMA, f32 then int4 weights + int4 K/V, greedy then
/// top-k; four rows of six tokens each. Recorded on an x86-64 host where
/// `matmul_transb` runs its AVX2+FMA instance; the portable instance rounds
/// each multiply-add twice and may pick other tokens.
const PINNED: [[[u32; 6]; 4]; 8] = [
    // OPT f32 greedy
    [
        [116, 116, 153, 482, 482, 374],
        [482, 166, 334, 482, 166, 482],
        [334, 334, 334, 334, 334, 334],
        [170, 170, 170, 170, 170, 170],
    ],
    // OPT f32 top-k
    [
        [233, 322, 456, 337, 153, 322],
        [322, 225, 379, 65, 203, 65],
        [95, 334, 238, 15, 262, 508],
        [9, 9, 81, 98, 98, 170],
    ],
    // OPT int4 greedy
    [
        [210, 114, 86, 114, 153, 153],
        [482, 166, 334, 482, 345, 334],
        [334, 334, 334, 334, 334, 334],
        [170, 170, 170, 170, 170, 170],
    ],
    // OPT int4 top-k
    [
        [233, 153, 337, 16, 337, 153],
        [345, 334, 108, 379, 497, 345],
        [364, 334, 449, 83, 66, 179],
        [9, 170, 477, 50, 170, 50],
    ],
    // LLaMA f32 greedy
    [
        [28, 28, 490, 99, 99, 242],
        [298, 298, 298, 298, 298, 298],
        [449, 449, 449, 449, 449, 449],
        [149, 170, 170, 170, 412, 399],
    ],
    // LLaMA f32 top-k
    [
        [409, 28, 409, 396, 37, 396],
        [298, 298, 271, 166, 207, 166],
        [248, 449, 127, 171, 334, 334],
        [369, 138, 474, 201, 170, 399],
    ],
    // LLaMA int4 greedy
    [
        [134, 409, 28, 28, 28, 287],
        [298, 298, 207, 418, 298, 298],
        [449, 449, 449, 449, 449, 449],
        [62, 32, 474, 369, 149, 369],
    ],
    // LLaMA int4 top-k
    [
        [28, 287, 134, 409, 19, 242],
        [102, 298, 272, 207, 58, 272],
        [44, 449, 291, 238, 498, 100],
        [4, 170, 405, 242, 212, 113],
    ],
];

#[test]
fn engine_tokens_are_pinned() {
    // Every other engine test compares the engine with itself; these
    // constants hold it to the tokens it generated before the last change
    // to its step structure, so a refactor that moves every bit alike
    // still fails here.
    let prompts: Vec<Vec<u32>> = (0..4u32)
        .map(|r| (0..12).map(|i| (r * 97 + i * 31 + 3) % 512).collect())
        .collect();
    let mut actual = Vec::new();
    for family in [lm_models::Family::Opt, lm_models::Family::Llama] {
        let cfg = lm_models::ModelConfig { family, ..presets::tiny_test() };
        for (weights, kv) in [(None, None), (Some(QuantConfig::int4()), Some(QuantConfig::int4()))] {
            for sampler in [Sampler::Greedy, Sampler::TopK { k: 8, seed: 11 }] {
                let options = EngineOptions {
                    quantize_at_rest: weights,
                    kv_quantize_at_rest: kv,
                    sampler,
                    ..Default::default()
                };
                let engine = Engine::new(&cfg, 17, options).unwrap();
                actual.push(engine.run(&GenerateRequest::new(prompts.clone(), 6)).unwrap().tokens);
            }
        }
    }
    assert_eq!(actual, PINNED.map(|case| case.map(Vec::from).to_vec()), "{actual:?}");
}
