//! Elementwise and row-wise kernels: activations, softmax, normalisation.

use crate::tensor::Tensor;

/// In-place numerically-stable softmax over the last dimension of a rank-2
/// tensor (each row sums to 1).
pub fn softmax_rows(t: &mut Tensor) {
    assert_eq!(t.rank(), 2, "softmax_rows requires a rank-2 tensor");
    let cols = t.dim(1);
    t.data_mut().chunks_mut(cols).for_each(softmax_slice);
}

/// Numerically-stable softmax of one slice in place.
pub fn softmax_slice(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in row.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for x in row.iter_mut() {
            *x *= inv;
        }
    }
}

/// GELU activation (tanh approximation, as used by OPT).
pub fn gelu(t: &mut Tensor) {
    t.data_mut().iter_mut().for_each(|x| {
        let v = *x;
        let inner = 0.797_884_6 * (v + 0.044715 * v * v * v);
        *x = 0.5 * v * (1.0 + inner.tanh());
    });
}

/// ReLU activation.
pub fn relu(t: &mut Tensor) {
    t.data_mut().iter_mut().for_each(|x| *x = x.max(0.0));
}

/// SiLU/Swish activation (as used by LLaMA's SwiGLU MLP).
pub fn silu(t: &mut Tensor) {
    t.data_mut().iter_mut().for_each(|x| {
        let v = *x;
        *x = v / (1.0 + (-v).exp());
    });
}

/// `a += b`, elementwise; shapes must match.
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "add_assign shape mismatch");
    a.data_mut()
        .iter_mut()
        .zip(b.data().iter())
        .for_each(|(x, &y)| *x += y);
}

/// `a *= b`, elementwise; shapes must match (used by SwiGLU gating).
pub fn mul_assign(a: &mut Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "mul_assign shape mismatch");
    a.data_mut()
        .iter_mut()
        .zip(b.data().iter())
        .for_each(|(x, &y)| *x *= y);
}

/// Scale every element by `s`.
pub fn scale(t: &mut Tensor, s: f32) {
    t.data_mut().iter_mut().for_each(|x| *x *= s);
}

/// Add a bias vector to every row of a rank-2 tensor.
pub fn add_bias(t: &mut Tensor, bias: &[f32]) {
    assert_eq!(t.rank(), 2, "add_bias requires a rank-2 tensor");
    let cols = t.dim(1);
    assert_eq!(bias.len(), cols, "bias length mismatch");
    t.data_mut().chunks_mut(cols).for_each(|row| {
        for (x, &b) in row.iter_mut().zip(bias) {
            *x += b;
        }
    });
}

/// LayerNorm over the last dimension of a rank-2 tensor with learned
/// `gamma`/`beta` (OPT-style).
pub fn layernorm_rows(t: &mut Tensor, gamma: &[f32], beta: &[f32], eps: f32) {
    assert_eq!(t.rank(), 2, "layernorm_rows requires a rank-2 tensor");
    let cols = t.dim(1);
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    assert_eq!(beta.len(), cols, "beta length mismatch");
    t.data_mut().chunks_mut(cols).for_each(|row| {
        let mean: f32 = row.iter().sum::<f32>() / cols as f32;
        let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + eps).sqrt();
        for ((x, &g), &b) in row.iter_mut().zip(gamma).zip(beta) {
            *x = (*x - mean) * inv * g + b;
        }
    });
}

/// RMSNorm over the last dimension (LLaMA-style; no mean subtraction).
pub fn rmsnorm_rows(t: &mut Tensor, gamma: &[f32], eps: f32) {
    assert_eq!(t.rank(), 2, "rmsnorm_rows requires a rank-2 tensor");
    let cols = t.dim(1);
    assert_eq!(gamma.len(), cols, "gamma length mismatch");
    t.data_mut().chunks_mut(cols).for_each(|row| {
        let ms: f32 = row.iter().map(|x| x * x).sum::<f32>() / cols as f32;
        let inv = 1.0 / (ms + eps).sqrt();
        for (x, &g) in row.iter_mut().zip(gamma) {
            *x = *x * inv * g;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut t = Tensor::randn([5, 16], 3.0, 11);
        softmax_rows(&mut t);
        for r in 0..5 {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
            assert!(t.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]);
        let mut b = Tensor::from_vec([1, 3], vec![1001.0, 1002.0, 1003.0]);
        softmax_rows(&mut a);
        softmax_rows(&mut b);
        assert!(a.allclose(&b, 1e-6));
    }

    #[test]
    fn gelu_known_values() {
        let mut t = Tensor::from_vec([1, 3], vec![-1.0, 0.0, 1.0]);
        gelu(&mut t);
        assert!((t.at(&[0, 0]) - (-0.1588)).abs() < 1e-3);
        assert_eq!(t.at(&[0, 1]), 0.0);
        assert!((t.at(&[0, 2]) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn layernorm_normalises() {
        let mut t = Tensor::randn([4, 64], 5.0, 13);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        layernorm_rows(&mut t, &gamma, &beta, 1e-5);
        for r in 0..4 {
            let mean: f32 = t.row(r).iter().sum::<f32>() / 64.0;
            let var: f32 = t.row(r).iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn rmsnorm_unit_rms() {
        let mut t = Tensor::randn([3, 32], 2.0, 17);
        rmsnorm_rows(&mut t, &[1.0; 32], 1e-6);
        for r in 0..3 {
            let ms: f32 = t.row(r).iter().map(|x| x * x).sum::<f32>() / 32.0;
            assert!((ms - 1.0).abs() < 1e-3, "rms² {ms}");
        }
    }

    #[test]
    fn add_bias_and_add_assign() {
        let mut t = Tensor::zeros([2, 3]);
        add_bias(&mut t, &[1.0, 2.0, 3.0]);
        assert_eq!(t.row(1), &[1.0, 2.0, 3.0]);
        let u = t.clone();
        add_assign(&mut t, &u);
        assert_eq!(t.row(0), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn silu_and_mul_gate() {
        let mut gate = Tensor::from_vec([1, 2], vec![0.0, 10.0]);
        silu(&mut gate);
        assert_eq!(gate.at(&[0, 0]), 0.0);
        assert!((gate.at(&[0, 1]) - 10.0).abs() < 1e-2); // silu(10) ≈ 10
        let up = Tensor::from_vec([1, 2], vec![3.0, 2.0]);
        mul_assign(&mut gate, &up);
        assert_eq!(gate.at(&[0, 0]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_softmax_rows_are_distributions(rows in 1usize..8, cols in 1usize..64, seed in 0u64..500) {
            let mut t = Tensor::randn([rows, cols], 4.0, seed);
            softmax_rows(&mut t);
            for r in 0..rows {
                let s: f32 = t.row(r).iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
                prop_assert!(t.row(r).iter().all(|&x| (0.0..=1.0 + 1e-6).contains(&x)));
            }
        }

        #[test]
        fn prop_relu_idempotent(n in 1usize..128, seed in 0u64..500) {
            let mut t = Tensor::randn([n], 1.0, seed);
            relu(&mut t);
            let once = t.clone();
            relu(&mut t);
            prop_assert!(t.allclose(&once, 0.0));
        }
    }
}
