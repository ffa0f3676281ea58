//! A real decoder-only transformer built on `lm-tensor`, with per-layer
//! weight bundles the offloading store can move between pools.

use lm_models::{Family, ModelConfig};
use lm_tensor::ops::elementwise::{
    add_assign, gelu, layernorm_rows, mul_assign, rmsnorm_rows, silu,
};
use lm_tensor::{apply_rope, attend, KvCache, Linear, QuantConfig, Tensor};

/// All weights of one transformer layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    pub ln1_gamma: Vec<f32>,
    pub ln1_beta: Vec<f32>,
    pub q: Linear,
    pub k: Linear,
    pub v: Linear,
    pub o: Linear,
    pub ln2_gamma: Vec<f32>,
    pub ln2_beta: Vec<f32>,
    /// MLP up / gate / down. OPT: [fc1, fc2]; LLaMA: [gate, up, down].
    pub mlp: Vec<Linear>,
    pub family: Family,
}

impl LayerWeights {
    /// Deterministic synthetic weights for layer `idx`.
    pub fn synthesize(cfg: &ModelConfig, idx: u32, seed: u64) -> Self {
        let h = cfg.hidden as usize;
        let f = cfg.ffn_hidden as usize;
        let s = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(idx as u64);
        let lin = |i: usize, fan_in: usize, fan_out: usize| {
            Linear::new(fan_in, fan_out, cfg.family == Family::Opt, s.wrapping_add(i as u64))
        };
        let mlp = match cfg.family {
            Family::Llama => vec![lin(4, h, f), lin(5, h, f), lin(6, f, h)],
            _ => vec![lin(4, h, f), lin(5, f, h)],
        };
        LayerWeights {
            ln1_gamma: vec![1.0; h],
            ln1_beta: vec![0.0; h],
            q: lin(0, h, h),
            k: lin(1, h, h),
            v: lin(2, h, h),
            o: lin(3, h, h),
            ln2_gamma: vec![1.0; h],
            ln2_beta: vec![0.0; h],
            mlp,
            family: cfg.family,
        }
    }

    /// The weight matrices in slot order: `q, k, v, o`, then `mlp`.
    pub fn linears(&self) -> impl Iterator<Item = &Linear> {
        [&self.q, &self.k, &self.v, &self.o].into_iter().chain(&self.mlp)
    }

    /// [`LayerWeights::linears`], mutably.
    pub fn linears_mut(&mut self) -> impl Iterator<Item = &mut Linear> {
        [&mut self.q, &mut self.k, &mut self.v, &mut self.o]
            .into_iter()
            .chain(&mut self.mlp)
    }

    /// Bytes this layer occupies at rest.
    pub fn bytes(&self) -> usize {
        let lin = |l: &Linear| l.weight.bytes() + l.bias.as_ref().map_or(0, |b| b.len() * 4);
        let norm = (self.ln1_gamma.len() + self.ln1_beta.len()) * 4 * 2;
        self.linears().map(lin).sum::<usize>() + norm
    }

    /// Quantize every projection in place (at-rest compression).
    pub fn quantize(&mut self, config: QuantConfig) {
        self.linears_mut().for_each(|l| l.quantize_weights(config));
    }

    /// Convert every projection to half precision in place (the fp16
    /// baseline format).
    pub fn halve(&mut self) {
        self.linears_mut().for_each(Linear::halve_weights);
    }

    fn norm(&self, x: &mut Tensor, gamma: &[f32], beta: &[f32]) {
        match self.family {
            Family::Llama => rmsnorm_rows(x, gamma, 1e-6),
            _ => layernorm_rows(x, gamma, beta, 1e-5),
        }
    }

    fn mlp_forward(&self, x: &Tensor) -> Tensor {
        match self.family {
            Family::Llama => {
                let mut gate = self.mlp[0].forward(x);
                silu(&mut gate);
                let up = self.mlp[1].forward(x);
                mul_assign(&mut gate, &up);
                self.mlp[2].forward(&gate)
            }
            _ => {
                let mut hidden = self.mlp[0].forward(x);
                gelu(&mut hidden);
                self.mlp[1].forward(&hidden)
            }
        }
    }

    /// The layer body over the stacked new rows of several sequences. `x`
    /// is `[rows, hidden]`; each `(pos, new, cache)` of `seqs` owns the next
    /// `cache.batch() × new` rows in `[batch, new, hidden]` order, the first
    /// at absolute position `pos`. Norms, projections and the MLP run once
    /// over every row; per sequence, LLaMA rotates Q/K (RoPE; keys are
    /// cached rotated), the new K/V are appended, and each new row attends
    /// every cached position up to its own (`attend`) — one decode row, a
    /// whole prompt, or a chunk fed onto an earlier one alike.
    pub(crate) fn forward(
        &self,
        x: &Tensor,
        seqs: &mut [(usize, usize, &mut KvCache)],
        num_heads: usize,
    ) -> Tensor {
        let mut normed = x.clone();
        self.norm(&mut normed, &self.ln1_gamma, &self.ln1_beta);
        let mut qkv = [&self.q, &self.k, &self.v].map(|l| l.forward(&normed).into_vec());
        let (mut attended, h) = (vec![0.0; x.numel()], x.dim(1));
        // Last sequence first: each takes its rows off the end of the
        // projections, and the first — or only — takes the buffers whole.
        for (pos, new, cache) in seqs.iter_mut().rev() {
            let (b, t) = (cache.batch(), *new);
            let at = qkv[0].len() - b * t * h;
            let [mut q, mut k, v] = qkv.each_mut().map(|m| {
                Tensor::from_vec([b, t, h], if at == 0 { std::mem::take(m) } else { m.split_off(at) })
            });
            if self.family == Family::Llama {
                apply_rope(&mut q, num_heads, *pos);
                apply_rope(&mut k, num_heads, *pos);
            }
            cache.append(&k, &v);
            let out = attend(&q, cache, num_heads);
            attended[at..][..b * t * h].copy_from_slice(out.data());
        }
        let mut x1 = self.o.forward(&Tensor::from_vec([x.dim(0), h], attended));
        add_assign(&mut x1, x);

        let mut normed2 = x1.clone();
        self.norm(&mut normed2, &self.ln2_gamma, &self.ln2_beta);
        let mut out = self.mlp_forward(&normed2);
        add_assign(&mut out, &x1);
        out
    }

    /// Decode step: `x` is `[batch, hidden]` at absolute position `pos`;
    /// appends this token's K/V to `cache` and returns the layer output —
    /// the layer body over one sequence.
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        num_heads: usize,
        pos: usize,
    ) -> Tensor {
        self.forward(x, &mut [(pos, 1, cache)], num_heads)
    }

    /// Prefill step: `x` is `[batch, s, hidden]` starting at absolute
    /// position `start_pos`; appends all `s` positions to `cache` — the
    /// layer body over one sequence. At `start_pos > 0` the rows attend the
    /// positions already cached too, so a prompt fed in chunks equals one
    /// fed whole.
    pub fn forward_prefill(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        num_heads: usize,
        start_pos: usize,
    ) -> Tensor {
        let (b, s, h) = (x.dim(0), x.dim(1), x.dim(2));
        let flat = x.clone().reshape([b * s, h]);
        self.forward(&flat, &mut [(start_pos, s, cache)], num_heads).reshape([b, s, h])
    }
}

/// Token embedding / unembedding (tied), with a learned positional table
/// for the OPT family (LLaMA encodes positions with RoPE in the layers
/// instead).
#[derive(Debug, Clone)]
pub struct Embedding {
    /// `[vocab, hidden]`.
    pub table: Tensor,
    /// `[max_seq, hidden]` learned positional embeddings (OPT/Custom).
    pub pos_table: Option<Tensor>,
}

impl Embedding {
    pub fn synthesize(cfg: &ModelConfig, seed: u64) -> Self {
        let pos_table = match cfg.family {
            Family::Llama => None,
            Family::Opt | Family::Custom => Some(Tensor::randn(
                [cfg.max_seq_len as usize, cfg.hidden as usize],
                0.02,
                seed ^ 0x9051_7105,
            )),
        };
        Embedding {
            table: Tensor::randn(
                [cfg.vocab_size as usize, cfg.hidden as usize],
                0.02,
                seed,
            ),
            pos_table,
        }
    }

    /// Look up token ids at absolute positions → `[batch, hidden]`.
    pub fn embed(&self, tokens: &[u32], positions: &[usize]) -> Tensor {
        assert_eq!(tokens.len(), positions.len(), "one position per token");
        let h = self.table.dim(1);
        let mut data = Vec::with_capacity(tokens.len() * h);
        for (&t, &p) in tokens.iter().zip(positions) {
            data.extend_from_slice(self.table.row(t as usize));
            if let Some(pt) = &self.pos_table {
                let start = data.len() - h;
                for (x, e) in data[start..].iter_mut().zip(pt.row(p)) {
                    *x += e;
                }
            }
        }
        Tensor::from_vec([tokens.len(), h], data)
    }

    /// Logits for hidden states `[batch, hidden]` → `[batch, vocab]`.
    pub fn unembed(&self, x: &Tensor) -> Tensor {
        lm_tensor::ops::matmul::matmul_transb(x, &self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::presets;

    #[test]
    fn layer_bytes_match_param_count() {
        let cfg = presets::tiny_test();
        let l = LayerWeights::synthesize(&cfg, 0, 7);
        // 4·h² + 2·h·f weights at f32 plus biases and norms.
        let params = cfg.weights_per_layer() as usize;
        let bytes = l.bytes();
        assert!(bytes >= params * 4, "{bytes} < {}", params * 4);
        assert!(bytes < params * 4 + 64 * 1024);
    }

    #[test]
    fn decode_shapes_and_determinism() {
        let cfg = presets::tiny_test();
        let l = LayerWeights::synthesize(&cfg, 0, 7);
        let x = Tensor::randn([3, 64], 1.0, 1);
        let mut c1 = KvCache::new(3, 64, 8);
        let mut c2 = KvCache::new(3, 64, 8);
        let y1 = l.forward_decode(&x, &mut c1, 4, 0);
        let y2 = l.forward_decode(&x, &mut c2, 4, 0);
        assert_eq!(y1.shape().0, vec![3, 64]);
        assert!(y1.allclose(&y2, 0.0), "layer must be deterministic");
        assert_eq!(c1.len(), 1);
    }

    #[test]
    fn prefill_then_decode_consistent_with_pure_prefill() {
        // Prefill s tokens, then the decode of token s must equal the
        // (s+1)-token prefill's last position.
        let cfg = presets::tiny_test();
        let l = LayerWeights::synthesize(&cfg, 0, 3);
        let (b, s, h) = (2usize, 5usize, 64usize);
        let x_full = Tensor::randn([b, s + 1, h], 1.0, 9);

        // Path A: prefill all s+1.
        let mut ca = KvCache::new(b, h, 16);
        let ya = l.forward_prefill(&x_full, &mut ca, 4, 0);

        // Path B: prefill s, decode 1.
        let mut xb = Vec::new();
        let mut x_last = Vec::new();
        for bi in 0..b {
            for t in 0..s {
                xb.extend_from_slice(&x_full.data()[(bi * (s + 1) + t) * h..][..h]);
            }
            x_last.extend_from_slice(&x_full.data()[(bi * (s + 1) + s) * h..][..h]);
        }
        let mut cb = KvCache::new(b, h, 16);
        let _ = l.forward_prefill(&Tensor::from_vec([b, s, h], xb), &mut cb, 4, 0);
        let yb = l.forward_decode(&Tensor::from_vec([b, h], x_last), &mut cb, 4, s);

        for bi in 0..b {
            let a_last = &ya.data()[(bi * (s + 1) + s) * h..][..h];
            for (av, bv) in a_last.iter().zip(yb.row(bi)) {
                assert!((av - bv).abs() < 1e-4, "{av} vs {bv}");
            }
        }
    }

    #[test]
    fn quantized_layer_stays_close() {
        let cfg = presets::tiny_test();
        let mut l = LayerWeights::synthesize(&cfg, 1, 11);
        let x = Tensor::randn([2, 64], 1.0, 2);
        let mut c1 = KvCache::new(2, 64, 4);
        let full = l.forward_decode(&x, &mut c1, 4, 0);
        l.quantize(QuantConfig::int8());
        let mut c2 = KvCache::new(2, 64, 4);
        let quant = l.forward_decode(&x, &mut c2, 4, 0);
        let scale = full.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(quant.max_abs_diff(&full) < 0.15 * scale.max(1.0));
    }

    #[test]
    fn opt_embedding_depends_on_position_llama_does_not() {
        let mut cfg = presets::tiny_test(); // Custom family: learned table
        let e = Embedding::synthesize(&cfg, 5);
        let a = e.embed(&[7], &[0]);
        let b = e.embed(&[7], &[3]);
        assert!(a.max_abs_diff(&b) > 1e-4, "learned positions must differ");
        cfg.family = Family::Llama;
        let e = Embedding::synthesize(&cfg, 5);
        let a = e.embed(&[7], &[0]);
        let b = e.embed(&[7], &[3]);
        assert!(a.allclose(&b, 0.0), "LLaMA embeds without positions");
    }

    #[test]
    fn llama_layer_uses_rope_relative_positions() {
        // RoPE encodes *relative* position: the first token's output is
        // position-invariant (relative distance 0 to itself), but a
        // second token attending to it changes with the distance.
        let mut cfg = presets::tiny_test();
        cfg.family = Family::Llama;
        cfg.ffn_hidden = 256;
        let l = LayerWeights::synthesize(&cfg, 0, 7);
        let a = Tensor::randn([1, 64], 1.0, 1);
        let b = Tensor::randn([1, 64], 1.0, 2);

        let mut c0 = KvCache::new(1, 64, 4);
        let y_self_0 = l.forward_decode(&a, &mut c0, 4, 0);
        let mut c9 = KvCache::new(1, 64, 4);
        let y_self_9 = l.forward_decode(&a, &mut c9, 4, 9);
        assert!(
            y_self_0.allclose(&y_self_9, 1e-4),
            "first token must be position-invariant under RoPE"
        );

        // Distance 1 vs distance 5 to the same cached token.
        let y_near = l.forward_decode(&b, &mut c0, 4, 1);
        let mut c0b = KvCache::new(1, 64, 4);
        let _ = l.forward_decode(&a, &mut c0b, 4, 0);
        let y_far = l.forward_decode(&b, &mut c0b, 4, 5);
        assert!(
            y_near.max_abs_diff(&y_far) > 1e-5,
            "relative distance must matter"
        );
    }

    #[test]
    fn embedding_round_trip_prefers_own_token() {
        let cfg = presets::tiny_test();
        let e = Embedding::synthesize(&cfg, 5);
        let x = e.embed(&[7, 42], &[0, 1]);
        let logits = e.unembed(&x);
        // The logit of the embedded token should be the row's maximum
        // (random vectors are near-orthogonal).
        for (row, tok) in [(0usize, 7usize), (1, 42)] {
            let r = logits.row(row);
            let argmax = r
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax, tok);
        }
    }
}
