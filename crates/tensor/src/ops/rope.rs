//! Rotary positional embeddings (RoPE) — LLaMA's position encoding,
//! applied to the query and key vectors per head before the attention
//! scores are computed.
//!
//! Each head dimension is split into pairs `(x_{2i}, x_{2i+1})` rotated by
//! the position-dependent angle `pos · θ^(-2i/d)` with θ = 10000. The
//! defining property (tested): attention scores depend only on *relative*
//! position — shifting both query and key positions by the same offset
//! leaves `q·k` unchanged.

use crate::tensor::Tensor;

/// Base frequency of the rotation spectrum (LLaMA's 10000).
pub const ROPE_THETA: f32 = 10_000.0;

/// Rotate one head slice `x[.. head_dim]` in place for `pos`.
fn rotate_head(x: &mut [f32], pos: usize) {
    let hd = x.len();
    let half = hd / 2;
    for i in 0..half {
        let freq = ROPE_THETA.powf(-(2.0 * i as f32) / hd as f32);
        let angle = pos as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        let a = x[2 * i];
        let b = x[2 * i + 1];
        x[2 * i] = a * cos - b * sin;
        x[2 * i + 1] = a * sin + b * cos;
    }
}

/// Apply RoPE in place to a `[batch, s, hidden]` tensor whose sequence
/// dimension starts at absolute position `start_pos`: a prompt, or with
/// `s = 1` one decode position per sequence.
pub fn apply_rope(x: &mut Tensor, num_heads: usize, start_pos: usize) {
    assert_eq!(x.rank(), 3, "RoPE expects [batch, s, hidden]");
    let (batch, s, hidden) = (x.dim(0), x.dim(1), x.dim(2));
    assert_eq!(hidden % num_heads, 0, "hidden not divisible by heads");
    let hd = hidden / num_heads;
    assert_eq!(hd % 2, 0, "head_dim must be even for RoPE");
    let data = x.data_mut();
    for b in 0..batch {
        for t in 0..s {
            for h in 0..num_heads {
                let base = (b * s + t) * hidden + h * hd;
                rotate_head(&mut data[base..base + hd], start_pos + t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::dot;

    /// RoPE over `[batch, hidden]` rows all at position `pos`.
    fn apply_rope_decode(x: &mut Tensor, num_heads: usize, pos: usize) {
        let (b, h) = (x.dim(0), x.dim(1));
        let mut rows = x.clone().reshape([b, 1, h]);
        apply_rope(&mut rows, num_heads, pos);
        *x = rows.reshape([b, h]);
    }

    #[test]
    fn position_zero_is_identity() {
        let x = Tensor::randn([2, 16], 1.0, 1);
        let mut y = x.clone();
        apply_rope_decode(&mut y, 4, 0);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn rotation_preserves_norm() {
        let x = Tensor::randn([3, 32], 1.0, 2);
        let mut y = x.clone();
        apply_rope_decode(&mut y, 4, 17);
        for b in 0..3 {
            let nx: f32 = x.row(b).iter().map(|v| v * v).sum();
            let ny: f32 = y.row(b).iter().map(|v| v * v).sum();
            assert!((nx - ny).abs() < 1e-3, "{nx} vs {ny}");
        }
    }

    #[test]
    fn scores_depend_only_on_relative_position() {
        // dot(rope(q, p+k), rope(kv, p'+k)) is invariant in k.
        let q = Tensor::randn([1, 8], 1.0, 3);
        let kv = Tensor::randn([1, 8], 1.0, 4);
        let score_at = |pq: usize, pk: usize| {
            let mut a = q.clone();
            let mut b = kv.clone();
            apply_rope_decode(&mut a, 1, pq);
            apply_rope_decode(&mut b, 1, pk);
            dot(a.row(0), b.row(0))
        };
        let base = score_at(5, 2);
        let shifted = score_at(5 + 11, 2 + 11);
        assert!((base - shifted).abs() < 1e-3, "{base} vs {shifted}");
        // Different relative distance must change the score for random
        // vectors.
        let other = score_at(5, 3);
        assert!((base - other).abs() > 1e-6);
    }

    #[test]
    fn prefill_matches_decode_per_position() {
        let (b, s, h, heads) = (2usize, 4usize, 16usize, 2usize);
        let x = Tensor::randn([b, s, h], 1.0, 5);
        let mut pre = x.clone();
        apply_rope(&mut pre, heads, 3);
        for t in 0..s {
            // Extract position t and apply the decode path at 3 + t.
            let mut rows = Vec::with_capacity(b * h);
            for bi in 0..b {
                rows.extend_from_slice(&x.data()[(bi * s + t) * h..][..h]);
            }
            let mut dec = Tensor::from_vec([b, h], rows);
            apply_rope_decode(&mut dec, heads, 3 + t);
            for bi in 0..b {
                let p = &pre.data()[(bi * s + t) * h..][..h];
                for (a, c) in p.iter().zip(dec.row(bi)) {
                    assert!((a - c).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "head_dim must be even")]
    fn odd_head_dim_rejected() {
        let mut x = Tensor::zeros([1, 3]);
        apply_rope_decode(&mut x, 1, 1);
    }
}
