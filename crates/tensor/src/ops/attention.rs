//! Multi-head self-attention with a KV cache — the computation of Figure 1:
//! scores `QKᵀ/√d_k`, softmax, then the value mixdown. Prefill processes all
//! prompt tokens causally; decode attends one new token against the cache.

use crate::ops::elementwise::softmax_slice;
use crate::ops::matmul::dot;
use crate::tensor::Tensor;

/// Key/value cache for one transformer layer: `[batch, seq, hidden]` for
/// keys and values, growing along `seq` as tokens are generated — the
/// *linear* growth the paper highlights in Figure 1.
#[derive(Debug, Clone)]
pub struct KvCache {
    batch: usize,
    hidden: usize,
    capacity: usize,
    len: usize,
    k: Vec<f32>,
    v: Vec<f32>,
}

impl KvCache {
    /// An empty cache able to hold `capacity` token positions.
    pub fn new(batch: usize, hidden: usize, capacity: usize) -> Self {
        KvCache {
            batch,
            hidden,
            capacity,
            len: 0,
            k: vec![0.0; batch * capacity * hidden],
            v: vec![0.0; batch * capacity * hidden],
        }
    }

    pub fn batch(&self) -> usize {
        self.batch
    }

    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Cached token positions so far.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the cache occupies at f32 (both K and V).
    pub fn bytes(&self) -> usize {
        2 * self.batch * self.capacity * self.hidden * std::mem::size_of::<f32>()
    }

    /// Append `t` new token positions: `k_new`/`v_new` are
    /// `[batch, t, hidden]` (or `[batch, hidden]` for `t = 1`).
    pub fn append(&mut self, k_new: &Tensor, v_new: &Tensor) {
        let (b, t, h) = match k_new.rank() {
            2 => (k_new.dim(0), 1, k_new.dim(1)),
            3 => (k_new.dim(0), k_new.dim(1), k_new.dim(2)),
            r => panic!("KvCache::append expects rank 2 or 3, got {r}"),
        };
        assert_eq!(b, self.batch, "batch mismatch");
        assert_eq!(h, self.hidden, "hidden mismatch");
        assert_eq!(k_new.shape(), v_new.shape(), "K/V shape mismatch");
        assert!(
            self.len + t <= self.capacity,
            "KV cache overflow: {} + {t} > {}",
            self.len,
            self.capacity
        );
        for bi in 0..b {
            let dst0 = (bi * self.capacity + self.len) * h;
            let src0 = bi * t * h;
            self.k[dst0..dst0 + t * h].copy_from_slice(&k_new.data()[src0..src0 + t * h]);
            self.v[dst0..dst0 + t * h].copy_from_slice(&v_new.data()[src0..src0 + t * h]);
        }
        self.len += t;
    }

    /// Keys for batch item `b`: a `[len, hidden]` row-major slice.
    pub fn keys(&self, b: usize) -> &[f32] {
        let start = b * self.capacity * self.hidden;
        &self.k[start..start + self.len * self.hidden]
    }

    /// Values for batch item `b`: a `[len, hidden]` row-major slice.
    pub fn values(&self, b: usize) -> &[f32] {
        let start = b * self.capacity * self.hidden;
        &self.v[start..start + self.len * self.hidden]
    }
}

/// Decode-phase attention: one query token per batch item against the whole
/// cache. `q` is `[batch, hidden]`; returns `[batch, hidden]`.
///
/// One (batch, head) pair at a time, on the calling thread — independent
/// work, no sharing.
pub fn mha_decode(q: &Tensor, cache: &KvCache, num_heads: usize) -> Tensor {
    assert_eq!(q.rank(), 2, "decode query must be [batch, hidden]");
    let batch = q.dim(0);
    let hidden = q.dim(1);
    assert_eq!(batch, cache.batch(), "batch mismatch");
    assert_eq!(hidden, cache.hidden(), "hidden mismatch");
    assert_eq!(hidden % num_heads, 0, "hidden not divisible by heads");
    let hd = hidden / num_heads;
    let seq = cache.len();
    assert!(seq > 0, "attention against an empty cache");
    let scale = 1.0 / (hd as f32).sqrt();

    let mut out = vec![0.0f32; batch * hidden];
    out.chunks_mut(hd)
        .enumerate()
        .for_each(|(idx, out_head)| {
            let b = idx / num_heads;
            let h = idx % num_heads;
            let q_head = &q.data()[b * hidden + h * hd..b * hidden + (h + 1) * hd];
            let keys = cache.keys(b);
            let values = cache.values(b);
            let mut scores = vec![0.0f32; seq];
            for (t, s) in scores.iter_mut().enumerate() {
                let k_head = &keys[t * hidden + h * hd..t * hidden + (h + 1) * hd];
                *s = dot(q_head, k_head) * scale;
            }
            softmax_slice(&mut scores);
            for (t, &w) in scores.iter().enumerate() {
                let v_head = &values[t * hidden + h * hd..t * hidden + (h + 1) * hd];
                for (o, &v) in out_head.iter_mut().zip(v_head) {
                    *o += w * v;
                }
            }
        });

    Tensor::from_vec([batch, hidden], out)
}

/// Prefill-phase causal attention: `q`, `k`, `v` are `[batch, s, hidden]`;
/// position `i` attends to positions `0..=i`. Returns `[batch, s, hidden]`.
pub fn mha_prefill(q: &Tensor, k: &Tensor, v: &Tensor, num_heads: usize) -> Tensor {
    assert_eq!(q.rank(), 3, "prefill tensors must be [batch, s, hidden]");
    assert_eq!(q.shape(), k.shape(), "Q/K shape mismatch");
    assert_eq!(q.shape(), v.shape(), "Q/V shape mismatch");
    let (batch, s, hidden) = (q.dim(0), q.dim(1), q.dim(2));
    assert_eq!(hidden % num_heads, 0, "hidden not divisible by heads");
    let hd = hidden / num_heads;
    let scale = 1.0 / (hd as f32).sqrt();

    let mut out = vec![0.0f32; batch * s * hidden];
    // One (batch, head) at a time; each owns a [s, hd] output strip that
    // is strided in the output buffer, so collect locally then scatter.
    let strips: Vec<((usize, usize), Vec<f32>)> = (0..batch * num_heads)
        .map(|idx| {
            let b = idx / num_heads;
            let h = idx % num_heads;
            fn head_of(
                t: &Tensor,
                i: usize,
                (b, s, hidden, h, hd): (usize, usize, usize, usize, usize),
            ) -> &[f32] {
                let base = (b * s + i) * hidden + h * hd;
                &t.data()[base..base + hd]
            }
            let geom = (b, s, hidden, h, hd);
            let mut strip = vec![0.0f32; s * hd];
            let mut scores = vec![0.0f32; s];
            for i in 0..s {
                let q_i = head_of(q, i, geom);
                for (t, sc) in scores[..=i].iter_mut().enumerate() {
                    *sc = dot(q_i, head_of(k, t, geom)) * scale;
                }
                softmax_slice(&mut scores[..=i]);
                let out_i = &mut strip[i * hd..(i + 1) * hd];
                for (t, &w) in scores[..=i].iter().enumerate() {
                    for (o, &vv) in out_i.iter_mut().zip(head_of(v, t, geom)) {
                        *o += w * vv;
                    }
                }
            }
            ((b, h), strip)
        })
        .collect();
    for ((b, h), strip) in strips {
        for i in 0..s {
            let dst = (b * s + i) * hidden + h * hd;
            out[dst..dst + hd].copy_from_slice(&strip[i * hd..(i + 1) * hd]);
        }
    }

    Tensor::from_vec([batch, s, hidden], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_append_and_slice() {
        let mut c = KvCache::new(2, 4, 8);
        assert!(c.is_empty());
        let k1 = Tensor::from_vec([2, 4], vec![1.0; 8]);
        let v1 = Tensor::from_vec([2, 4], vec![2.0; 8]);
        c.append(&k1, &v1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.keys(0), &[1.0; 4]);
        assert_eq!(c.values(1), &[2.0; 4]);
        // rank-3 append of 2 more positions
        let k2 = Tensor::from_vec([2, 2, 4], vec![3.0; 16]);
        c.append(&k2, &k2);
        assert_eq!(c.len(), 3);
        assert_eq!(&c.keys(0)[4..], &[3.0; 8]);
    }

    #[test]
    #[should_panic(expected = "KV cache overflow")]
    fn cache_overflow_detected() {
        let mut c = KvCache::new(1, 2, 1);
        let t = Tensor::zeros([1, 2]);
        c.append(&t, &t);
        c.append(&t, &t);
    }

    #[test]
    fn decode_with_single_entry_returns_value() {
        // With one cached position the softmax is a singleton → output = V.
        let mut c = KvCache::new(1, 8, 4);
        let k = Tensor::randn([1, 8], 1.0, 1);
        let v = Tensor::randn([1, 8], 1.0, 2);
        c.append(&k, &v);
        let q = Tensor::randn([1, 8], 1.0, 3);
        let out = mha_decode(&q, &c, 2);
        assert!(out.allclose(&v, 1e-6));
    }

    #[test]
    fn decode_uniform_keys_average_values() {
        // Identical keys → uniform attention → output = mean of values.
        let mut c = KvCache::new(1, 4, 4);
        let k = Tensor::full([1, 4], 1.0);
        for val in [0.0f32, 2.0] {
            c.append(&k, &Tensor::full([1, 4], val));
        }
        let q = Tensor::full([1, 4], 0.5);
        let out = mha_decode(&q, &c, 1);
        assert!(out.allclose(&Tensor::full([1, 4], 1.0), 1e-5));
    }

    #[test]
    fn prefill_last_token_matches_decode() {
        // The last prefill position attends to all s positions — the same
        // computation as a decode step with the full cache.
        let (b, s, h, heads) = (2, 5, 16, 4);
        let q = Tensor::randn([b, s, h], 1.0, 10);
        let k = Tensor::randn([b, s, h], 1.0, 11);
        let v = Tensor::randn([b, s, h], 1.0, 12);
        let pre = mha_prefill(&q, &k, &v, heads);

        let mut cache = KvCache::new(b, h, s);
        cache.append(&k, &v);
        let q_last = {
            let mut data = Vec::with_capacity(b * h);
            for bi in 0..b {
                data.extend_from_slice(&q.data()[(bi * s + (s - 1)) * h..(bi * s + s) * h]);
            }
            Tensor::from_vec([b, h], data)
        };
        let dec = mha_decode(&q_last, &cache, heads);
        for bi in 0..b {
            let pre_last = &pre.data()[(bi * s + (s - 1)) * h..(bi * s + s) * h];
            let dec_row = dec.row(bi);
            for (a, c) in pre_last.iter().zip(dec_row) {
                assert!((a - c).abs() < 1e-5, "{a} vs {c}");
            }
        }
    }

    #[test]
    fn prefill_is_causal() {
        // Changing a later K/V position must not affect earlier outputs.
        let (b, s, h, heads) = (1, 4, 8, 2);
        let q = Tensor::randn([b, s, h], 1.0, 20);
        let k = Tensor::randn([b, s, h], 1.0, 21);
        let v = Tensor::randn([b, s, h], 1.0, 22);
        let base = mha_prefill(&q, &k, &v, heads);

        let mut k2 = k.clone();
        let mut v2 = v.clone();
        // Perturb the final position only.
        for j in 0..h {
            *k2.at_mut(&[0, s - 1, j]) += 5.0;
            *v2.at_mut(&[0, s - 1, j]) -= 3.0;
        }
        let pert = mha_prefill(&q, &k2, &v2, heads);
        for i in 0..s - 1 {
            for j in 0..h {
                assert_eq!(base.at(&[0, i, j]), pert.at(&[0, i, j]), "pos {i} changed");
            }
        }
    }
}
