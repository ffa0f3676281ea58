//! Elementwise and row-wise kernels: activations, softmax, normalisation.
//!
//! Every transcendental here is one `exp`: [`exp_slice`], [`softmax_slice`]
//! (and so [`softmax_rows`] and attention), [`gelu`] and [`silu`] inline the
//! same branch-free body in their own loop, in place, with no scratch
//! buffer. GELU needs no `tanh`: `0.5·(1 + tanh z) = 1 / (1 + e^(−2z))`.
//! Like `matmul_transb`, the body is compiled twice — an `avx2,fma`
//! instance and a portable one — and the instance this CPU supports is
//! picked by `is_x86_feature_detected!`; there is no option.
//!
//! `exp` is within 1 ulp of libm wherever libm's result is normal and
//! within `f32::MIN_POSITIVE` where it is subnormal; 0 → 1, NaN → NaN,
//! +∞ → +∞ and −∞ → +0 exactly. GELU is within 5.2e-7 and SiLU within
//! 1.2e-6 of their f64 formulas on [−12, 12]. An element's bits depend on
//! its own value only — not on where it sits in the slice, nor on whether
//! it falls in the vector body or the scalar tail — which is what keeps a
//! served row equal to the same row run alone.

use crate::ops::matmul::fmadd;
use crate::tensor::Tensor;

/// In-place numerically-stable softmax over the last dimension of a rank-2
/// tensor (each row sums to 1).
pub fn softmax_rows(t: &mut Tensor) {
    assert_eq!(t.rank(), 2, "softmax_rows requires a rank-2 tensor");
    let cols = t.dim(1);
    t.data_mut().chunks_mut(cols).for_each(softmax_slice);
}

/// Numerically-stable softmax of one slice in place: the max, `exp` of
/// each element less the max, their sum in order, then the scale.
pub fn softmax_slice(row: &mut [f32]) {
    apply(SliceOp::Softmax, row);
}

/// `e^x` of every element in place.
pub fn exp_slice(xs: &mut [f32]) {
    apply(SliceOp::Exp, xs);
}

/// GELU activation (tanh approximation, as used by OPT), written as
/// `v / (1 + e^(−2z))` with `z = √(2/π)·(v + 0.044715·v³)`.
pub fn gelu(t: &mut Tensor) {
    apply(SliceOp::Gelu, t.data_mut());
}

/// ReLU activation.
pub fn relu(t: &mut Tensor) {
    t.data_mut().iter_mut().for_each(|x| *x = x.max(0.0));
}

/// SiLU/Swish activation (as used by LLaMA's SwiGLU MLP): `v / (1 + e^(−v))`.
pub fn silu(t: &mut Tensor) {
    apply(SliceOp::Silu, t.data_mut());
}

/// The slice kernels built on the one `exp` body.
#[derive(Clone, Copy)]
enum SliceOp {
    Exp,
    Gelu,
    Silu,
    Softmax,
}

/// Run `op` over `xs` with the instance this CPU supports.
fn apply(op: SliceOp, xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the two features `apply_avx2` is compiled with were
        // just detected on the running CPU.
        #[allow(unsafe_code)]
        unsafe {
            apply_avx2(op, xs)
        };
        return;
    }
    apply_portable(op, xs);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn apply_avx2(op: SliceOp, xs: &mut [f32]) {
    slice_op::<true>(op, xs);
}

fn apply_portable(op: SliceOp, xs: &mut [f32]) {
    slice_op::<false>(op, xs);
}

#[inline(always)]
fn slice_op<const FUSED: bool>(op: SliceOp, xs: &mut [f32]) {
    match op {
        SliceOp::Exp => xs.iter_mut().for_each(|x| *x = exp::<FUSED>(*x)),
        SliceOp::Gelu => xs.iter_mut().for_each(|x| {
            let v = *x;
            let z = 0.797_884_6 * (v + 0.044715 * v * v * v);
            *x = v / (1.0 + exp::<FUSED>(-2.0 * z));
        }),
        SliceOp::Silu => xs
            .iter_mut()
            .for_each(|x| *x = *x / (1.0 + exp::<FUSED>(-*x))),
        SliceOp::Softmax => {
            let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            xs.iter_mut().for_each(|x| *x = exp::<FUSED>(*x - max));
            let sum = xs.iter().fold(0.0, |s, x| s + x);
            if sum > 0.0 {
                let inv = 1.0 / sum;
                xs.iter_mut().for_each(|x| *x *= inv);
            }
        }
    }
}

/// Inputs are clamped to this range first: below it `e^x` rounds to +0,
/// above it to +∞, and inside it (`−150 ≤ n ≤ 128` below) both halves of
/// `2ⁿ` are normal.
const EXP_MIN: f32 = -104.0;
const EXP_MAX: f32 = 89.0;
/// `ln 2` split so that `n·LN2_HI` is exact for every `|n| ≤ 150`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5·2²³`: adding it rounds `x·log₂e` to an integer held in the low
/// mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// `e^x`, branch-free so that a loop of it vectorises.
///
/// `x = n·ln 2 + r` with `|r| ≤ ln 2 / 2`; `e^r` is the degree-6
/// polynomial `1 + r + r²·q(r)`, `q` a Chebyshev fit of `(e^r − 1 − r)/r²`
/// (relative error 1.3e-8 before rounding); `2ⁿ` is written into the
/// exponent bits as two halves, so a subnormal result rounds once and
/// `n = 128` does not overflow before the multiply. `clamp` keeps NaN,
/// sends −∞ to +0 and +∞ to +∞.
#[inline(always)]
fn exp<const FUSED: bool>(x: f32) -> f32 {
    let x = x.clamp(EXP_MIN, EXP_MAX);
    let t = fmadd::<FUSED>(x, std::f32::consts::LOG2_E, ROUND);
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let nf = t - ROUND;
    let r = fmadd::<FUSED>(nf, -LN2_HI, x);
    let r = fmadd::<FUSED>(nf, -LN2_LO, r);
    let q = fmadd::<FUSED>(1.392_836_2e-3, r, 8.364_923e-3);
    let q = fmadd::<FUSED>(q, r, 4.166_654e-2);
    let q = fmadd::<FUSED>(q, r, 0.166_665_66);
    let q = fmadd::<FUSED>(q, r, 0.5);
    let p = fmadd::<FUSED>(q, r * r, r) + 1.0;
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits((e.wrapping_add(127) as u32) << 23);
    p * pow2(half) * pow2(n.wrapping_sub(half))
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

// The libm methods the kernel replaces are the reference here.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(SliceOp, &mut [f32]);

    /// The instance this host dispatches to and the portable one, which
    /// is a plain fn and so runs anywhere.
    const KERNELS: [(&str, Kernel); 2] = [("dispatched", apply), ("portable", apply_portable)];

    /// Measured maximum over [`exp_inputs`] and the proptest: 1 ulp on
    /// both instances.
    const EXP_ULPS: u32 = 1;
    /// Measured maximum against the f64 formula on [−12, 12]: 5.07e-7 on
    /// both instances, about half an ulp of 12.
    const GELU_ABS: f64 = 5.2e-7;
    /// Measured maximum against the f64 formula on [−12, 12]: 1.11e-6 on
    /// both instances; rounding `1 + e^(−v)` costs near an ulp of `v`.
    const SILU_ABS: f64 = 1.2e-6;

    fn run(kernel: Kernel, op: SliceOp, xs: &[f32]) -> Vec<f32> {
        let mut out = xs.to_vec();
        kernel(op, &mut out);
        out
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The edges of `exp`'s range and every special, then a stride
    /// through all finite f32 bit patterns in [−105, 90].
    fn exp_inputs() -> Vec<f32> {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            88.72,
            88.722_83,
            88.722_84,
            -87.33,
            -103.97,
            -103.972_08,
            f32::MAX,
            f32::MIN,
        ];
        for sign in [0u32, 0x8000_0000] {
            let top = if sign == 0 { 90.0f32 } else { 105.0 }.to_bits();
            xs.extend((0..top).step_by(4099).map(|b| f32::from_bits(b | sign)));
        }
        xs
    }

    /// Ulps between two results of `exp`, which are never negative.
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Whether `got` is within bounds of libm's `e^x`, the specials (0, NaN,
    /// ±∞) exactly; the error if not.
    fn exp_error(x: f32, got: f32) -> Option<String> {
        let want = x.exp();
        let ok = if want.is_nan() {
            got.is_nan()
        } else if x == 0.0 || x.is_infinite() {
            got.to_bits() == want.to_bits()
        } else if want.is_normal() || want.is_infinite() {
            ulps(got, want) <= EXP_ULPS
        } else {
            (got - want).abs() <= f32::MIN_POSITIVE
        };
        (!ok).then(|| {
            format!(
                "exp({x:e}) = {got:e}, libm {want:e}, {} ulps",
                ulps(got, want)
            )
        })
    }

    #[test]
    fn both_instances_match_libm() {
        let xs = exp_inputs();
        for (name, kernel) in KERNELS {
            let got = run(kernel, SliceOp::Exp, &xs);
            for (&x, &g) in xs.iter().zip(&got) {
                if let Some(e) = exp_error(x, g) {
                    panic!("{name}: {e}");
                }
            }
        }
    }

    /// Values for the position tests: ordinary ones, both signs of the
    /// edges of `exp`'s range, and every special.
    fn mixed_values(n: usize, seed: u64) -> Vec<f32> {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            88.72,
            -103.97,
        ];
        let noise = Tensor::randn([n], 6.0, seed);
        let mut xs = noise.data().to_vec();
        for (i, &s) in specials.iter().enumerate() {
            xs[(i * 11 + 3) % n] = s;
        }
        xs
    }

    #[test]
    fn an_element_does_not_depend_on_where_it_sits() {
        let xs = mixed_values(80, 5);
        for (name, kernel) in KERNELS {
            for op in [SliceOp::Exp, SliceOp::Gelu, SliceOp::Silu] {
                let alone: Vec<f32> = xs.iter().flat_map(|&x| run(kernel, op, &[x])).collect();
                for len in 1..=67 {
                    for off in 0..=xs.len() - len {
                        assert_eq!(
                            bits(&run(kernel, op, &xs[off..off + len])),
                            bits(&alone[off..off + len]),
                            "{name}: a {len}-long slice at offset {off} moves a bit"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_softmax_row_does_not_depend_on_where_it_sits() {
        for (name, kernel) in KERNELS {
            for cols in 1..=67 {
                let t = Tensor::randn([5, cols], 4.0, cols as u64);
                let mut all = t.data().to_vec();
                all.chunks_mut(cols)
                    .for_each(|row| kernel(SliceOp::Softmax, row));
                for (r, got) in all.chunks(cols).enumerate() {
                    // The row alone, and each element's `exp` taken alone.
                    let row = t.row(r);
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let e: Vec<f32> = row
                        .iter()
                        .flat_map(|&x| run(kernel, SliceOp::Exp, &[x - max]))
                        .collect();
                    let inv = 1.0 / e.iter().fold(0.0, |s, x| s + x);
                    let want: Vec<f32> = e.iter().map(|x| x * inv).collect();
                    assert_eq!(
                        bits(got),
                        bits(&run(kernel, SliceOp::Softmax, row)),
                        "{name}: row {r} of {cols}"
                    );
                    assert_eq!(
                        bits(got),
                        bits(&want),
                        "{name}: row {r} of {cols} against its elements"
                    );
                }
            }
        }
    }

    fn gelu_f64(v: f64) -> f64 {
        0.5 * v * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (v + 0.044715 * v * v * v)).tanh())
    }

    fn silu_f64(v: f64) -> f64 {
        v / (1.0 + (-v).exp())
    }

    #[test]
    fn activations_match_the_f64_formulas() {
        let xs: Vec<f32> = (-12_000..=12_000).map(|i| i as f32 / 1000.0).collect();
        for (name, kernel) in KERNELS {
            for (op, label, f, bound) in [
                (SliceOp::Gelu, "gelu", gelu_f64 as fn(f64) -> f64, GELU_ABS),
                (SliceOp::Silu, "silu", silu_f64, SILU_ABS),
            ] {
                let got = run(kernel, op, &xs);
                for (&x, &g) in xs.iter().zip(&got) {
                    let want = f(x as f64);
                    assert!(
                        (g as f64 - want).abs() <= bound,
                        "{name}: {label}({x}) = {g:e}, f64 formula {want:e}"
                    );
                }
            }
        }
    }

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
        fn prop_exp_matches_libm_on_any_bits(xs in proptest::collection::vec(any::<u32>(), 1..68)) {
            let xs: Vec<f32> = xs.into_iter().map(f32::from_bits).collect();
            for (name, kernel) in KERNELS {
                for (&x, &g) in xs.iter().zip(&run(kernel, SliceOp::Exp, &xs)) {
                    let err = exp_error(x, g);
                    prop_assert!(err.is_none(), "{name}: {}", err.unwrap_or_default());
                }
            }
        }

        #[test]
        fn prop_softmax_rows_are_distributions(rows in 1usize..8, cols in 1usize..=512, seed in 0u64..500) {
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
