//! Group-wise min-max quantization — a faithful implementation of the
//! paper's Algorithm 2 and Equations 10/11.
//!
//! The workload has four phases, exactly as the paper profiles them:
//! 1. **Pad** — extend the tensor so the group size divides it (lines 5-6);
//! 2. **Find min/max** — per group (lines 9-10);
//! 3. **Normalize** — `x_q = round((x-min)/(max-min)·(2^b-1))`, clamped
//!    (lines 12-14, Eq. 10);
//! 4. **Pack/reshape** — bit-pack to the target width (lines 16-18).
//!
//! Dequantization applies Eq. 11: `x = x_q/(2^b-1)·(max-min) + min`, reusing
//! the stored per-group min/max, so there is no min/max phase — matching
//! the cost asymmetry the performance model exploits (Eq. 16/24).

pub mod pack;

use crate::shape::Shape;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Quantization parameters: target bit width and group size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantConfig {
    /// Bits per element after quantization (4 or 8; FlexGen's default is 4
    /// with group size 64).
    pub bits: u8,
    /// Elements per quantization group sharing one (min, max) pair.
    pub group_size: usize,
}

impl QuantConfig {
    /// FlexGen's default: 4-bit, groups of 64.
    pub fn int4() -> Self {
        QuantConfig {
            bits: 4,
            group_size: 64,
        }
    }

    /// 8-bit variant.
    pub fn int8() -> Self {
        QuantConfig {
            bits: 8,
            group_size: 64,
        }
    }

    /// Number of quantization levels minus one (`2^b - 1` in Eq. 10/11).
    pub fn levels(&self) -> f32 {
        ((1u32 << self.bits) - 1) as f32
    }

    fn validate(&self) {
        assert!(
            self.bits == 4 || self.bits == 8,
            "only 4- and 8-bit quantization supported, got {}",
            self.bits
        );
        assert!(self.group_size > 0, "group_size must be positive");
    }
}

/// A group-wise quantized tensor: packed codes plus per-group `(min, max)`
/// metadata, remembering the original shape for exact reconstruction of
/// padding.
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    shape: Shape,
    config: QuantConfig,
    /// Packed codes, `bits`-wide each, padded tail included. Shared, so
    /// cloning a quantized tensor copies no codes.
    packed: Arc<[u8]>,
    /// Per-group minimum.
    mins: Vec<f32>,
    /// Per-group range (`max - min`).
    ranges: Vec<f32>,
}

impl QuantizedTensor {
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn config(&self) -> QuantConfig {
        self.config
    }

    pub fn num_groups(&self) -> usize {
        self.mins.len()
    }

    /// Total bytes at rest: packed codes plus f32 metadata per group.
    pub fn bytes(&self) -> usize {
        self.packed.len() + (self.mins.len() + self.ranges.len()) * std::mem::size_of::<f32>()
    }

    /// Compression ratio versus f32 storage of the original tensor.
    pub fn compression_ratio(&self) -> f64 {
        (self.shape.numel() * std::mem::size_of::<f32>()) as f64 / self.bytes() as f64
    }

    /// Worst-case absolute reconstruction error: half a quantization step
    /// of the widest group.
    pub fn error_bound(&self) -> f32 {
        let widest = self.ranges.iter().copied().fold(0.0f32, f32::max);
        0.5 * widest / self.config.levels()
    }
}

/// f32 lanes the min/max search keeps apart: one AVX2 register.
const LANES: usize = 8;

/// Quantize a tensor (Algorithm 2). Groups are formed along the flattened
/// row-major order, which matches grouping along the last dimension when
/// `group_size` divides it (the common case for `[.., hidden]` tensors).
///
/// Runs the instance this CPU supports: same arithmetic, but the AVX2 one
/// has wider vectors and an inlined `round` instead of a libm call.
pub fn quantize(t: &Tensor, config: QuantConfig) -> QuantizedTensor {
    config.validate();
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the feature `quantize_avx2` is compiled with was just
        // detected on the running CPU.
        #[allow(unsafe_code)]
        return unsafe { quantize_avx2(t, config) };
    }
    quantize_groups(t, config)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn quantize_avx2(t: &Tensor, config: QuantConfig) -> QuantizedTensor {
    quantize_groups(t, config)
}

/// The four phases, group by group, codes written straight into the
/// packed output.
#[inline(always)]
fn quantize_groups(t: &Tensor, config: QuantConfig) -> QuantizedTensor {
    let levels = config.levels();
    let gs = config.group_size;
    // Phase 1: pad to a multiple of the group size. Padding codes are the
    // zeros the packed buffer starts as.
    let num_groups = t.numel().div_ceil(gs);
    let mut packed = vec![0u8; (num_groups * gs * config.bits as usize).div_ceil(8)];
    let mut mins = vec![0.0f32; num_groups];
    let mut ranges = vec![0.0f32; num_groups];
    let stats = mins.iter_mut().zip(ranges.iter_mut());
    for ((g, group), (min_out, range_out)) in t.data().chunks(gs).enumerate().zip(stats) {
        // Phase 2: find min and max within the group (lines 9-10).
        let (min, max) = min_max(group);
        let range = max - min;
        let inv = if range > 0.0 { levels / range } else { 0.0 };
        (*min_out, *range_out) = (min, range);
        // Phase 3: min-max normalize per Eq. 10, then clamp (lines 12-14).
        let code = |x: f32| {
            let q = ((x - min) * inv).round();
            // Clamp to [0, levels], NaN to 0 — what `clamp(..) as u8` gives.
            let q = lesser(greater(q, 0.0), levels);
            // `q` is a whole number in 0..=255: adding 2^23 leaves it in the
            // low mantissa byte, which keeps the conversion a vector add
            // (a float-to-int cast is lowered one element at a time).
            (q + 8_388_608.0).to_bits() as u8
        };
        // Phase 4: pack to the target bit width (lines 16-18).
        match config.bits {
            4 => pack::pack_nibbles_into(group, g * gs, &mut packed, code),
            _ => {
                for (c, &x) in packed[g * gs..].iter_mut().zip(group) {
                    *c = code(x);
                }
            }
        }
    }
    QuantizedTensor {
        shape: t.shape().clone(),
        config,
        packed: packed.into(),
        mins,
        ranges,
    }
}

/// `x` if it is below `m`, else `m` (also when `x` is NaN): one `min`
/// instruction, where `f32::min` is three.
#[inline(always)]
fn lesser(x: f32, m: f32) -> f32 {
    if x < m {
        x
    } else {
        m
    }
}

#[inline(always)]
fn greater(x: f32, m: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Group minimum and maximum, ignoring NaNs, over `LANES` independent
/// running pairs (element `i` goes to lane `i % LANES`) folded at the end.
/// The values found do not depend on the order of the comparisons, except
/// that of two zeros of opposite sign the one met first stays.
#[inline(always)]
fn min_max(group: &[f32]) -> (f32, f32) {
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let (body, tail) = group.as_chunks::<LANES>();
    for chunk in body {
        for l in 0..LANES {
            lo[l] = lesser(chunk[l], lo[l]);
            hi[l] = greater(chunk[l], hi[l]);
        }
    }
    for (l, &x) in tail.iter().enumerate() {
        lo[l] = lesser(x, lo[l]);
        hi[l] = greater(x, hi[l]);
    }
    (
        lo.into_iter().fold(f32::INFINITY, |m, x| lesser(x, m)),
        hi.into_iter().fold(f32::NEG_INFINITY, |m, x| greater(x, m)),
    )
}

/// Dequantize per Eq. 11, dropping padding to restore the original shape.
pub fn dequantize(q: &QuantizedTensor) -> Tensor {
    let mut out = vec![0.0f32; q.shape.numel()];
    dequantize_into(q, &mut out);
    Tensor::from_vec(q.shape.clone(), out)
}

/// [`dequantize`] into a buffer that already exists (`out.len()` must be
/// the tensor's element count): one pass from packed codes to f32.
pub fn dequantize_into(q: &QuantizedTensor, out: &mut [f32]) {
    assert_eq!(
        out.len(),
        q.shape.numel(),
        "dequantize_into: buffer does not match shape {}",
        q.shape
    );
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the feature `dequantize_avx2` is compiled with was just
        // detected on the running CPU.
        #[allow(unsafe_code)]
        unsafe {
            dequantize_avx2(q, out)
        };
        return;
    }
    dequantize_groups(q, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dequantize_avx2(q: &QuantizedTensor, out: &mut [f32]) {
    dequantize_groups(q, out);
}

#[inline(always)]
fn dequantize_groups(q: &QuantizedTensor, out: &mut [f32]) {
    let levels = q.config.levels();
    let gs = q.config.group_size;
    for (g, chunk) in out.chunks_mut(gs).enumerate() {
        let min = q.mins[g];
        let scale = q.ranges[g] / levels;
        let value = |c: u8| c as f32 * scale + min;
        match q.config.bits {
            4 => pack::unpack_nibbles_into(&q.packed, g * gs, chunk, value),
            _ => {
                for (x, &c) in chunk.iter_mut().zip(&q.packed[g * gs..]) {
                    *x = value(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_error_within_bound() {
        let t = Tensor::randn([64, 48], 1.0, 33);
        for cfg in [QuantConfig::int4(), QuantConfig::int8()] {
            let q = quantize(&t, cfg);
            let d = dequantize(&q);
            let err = t.max_abs_diff(&d);
            assert!(
                err <= q.error_bound() + 1e-6,
                "{}-bit error {err} > bound {}",
                cfg.bits,
                q.error_bound()
            );
        }
    }

    #[test]
    fn int8_tighter_than_int4() {
        let t = Tensor::randn([1024], 1.0, 5);
        let e4 = t.max_abs_diff(&dequantize(&quantize(&t, QuantConfig::int4())));
        let e8 = t.max_abs_diff(&dequantize(&quantize(&t, QuantConfig::int8())));
        assert!(e8 < e4, "int8 err {e8} should beat int4 err {e4}");
    }

    #[test]
    fn constant_tensor_is_exact() {
        let t = Tensor::full([100], 3.5);
        let q = quantize(&t, QuantConfig::int4());
        assert!(dequantize(&q).allclose(&t, 0.0));
        assert_eq!(q.error_bound(), 0.0);
    }

    #[test]
    fn extremes_are_exact() {
        // Group min and max quantize to codes 0 and 2^b-1 and reconstruct
        // exactly (Eq. 10/11 are exact at the endpoints).
        let t = Tensor::from_vec([4], vec![-2.0, 0.1, 0.9, 2.0]);
        let q = quantize(
            &t,
            QuantConfig {
                bits: 4,
                group_size: 4,
            },
        );
        let d = dequantize(&q);
        assert_eq!(d.at(&[0]), -2.0);
        assert_eq!(d.at(&[3]), 2.0);
    }

    #[test]
    fn padding_respects_shape() {
        // 7 elements with group size 4 → one padded group.
        let t = Tensor::randn([7], 1.0, 8);
        let q = quantize(
            &t,
            QuantConfig {
                bits: 4,
                group_size: 4,
            },
        );
        assert_eq!(q.num_groups(), 2);
        let d = dequantize(&q);
        assert_eq!(d.numel(), 7);
        assert!(t.max_abs_diff(&d) <= q.error_bound() + 1e-6);
    }

    #[test]
    fn int4_compresses_roughly_4x_on_large_groups() {
        let t = Tensor::randn([4096, 64], 1.0, 9);
        let q = quantize(&t, QuantConfig::int4());
        // 4-bit codes = 8x vs f32, minus per-group metadata (8B/64 elems).
        let ratio = q.compression_ratio();
        assert!(ratio > 6.0 && ratio < 8.0, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "only 4- and 8-bit")]
    fn odd_bit_widths_rejected() {
        quantize(
            &Tensor::zeros([4]),
            QuantConfig {
                bits: 3,
                group_size: 4,
            },
        );
    }

    /// The two-pass quantizer this module had before the single-pass
    /// one — a code vector per group, then a separate packing pass — kept
    /// as the reference weights at rest must not move from.
    fn reference_quantize(t: &Tensor, config: QuantConfig) -> (Vec<u8>, Vec<f32>, Vec<f32>) {
        let n = t.numel();
        let padded_len = n.div_ceil(config.group_size) * config.group_size;
        let levels = config.levels();
        let (mut mins, mut ranges, mut all_codes) = (Vec::new(), Vec::new(), Vec::new());
        for g in 0..padded_len / config.group_size {
            let start = g * config.group_size;
            let end = (start + config.group_size).min(n);
            let group = &t.data()[start..end];
            let mut min = f32::INFINITY;
            let mut max = f32::NEG_INFINITY;
            for &x in group {
                min = min.min(x);
                max = max.max(x);
            }
            let range = max - min;
            let inv = if range > 0.0 { levels / range } else { 0.0 };
            let mut codes = Vec::with_capacity(config.group_size);
            for &x in group {
                let q = ((x - min) * inv).round();
                codes.push(q.clamp(0.0, levels) as u8);
            }
            codes.resize(config.group_size, 0);
            mins.push(min);
            ranges.push(range);
            all_codes.extend_from_slice(&codes);
        }
        let packed = match config.bits {
            4 => all_codes
                .chunks(2)
                .map(|p| p[0] | (p.get(1).unwrap_or(&0) << 4))
                .collect(),
            _ => all_codes,
        };
        (packed, mins, ranges)
    }

    /// The matching unpack-then-scale dequantizer.
    fn reference_dequantize(q: &QuantizedTensor) -> Vec<f32> {
        let codes: Vec<u8> = match q.config.bits {
            4 => q.packed.iter().flat_map(|&b| [b & 0x0F, b >> 4]).collect(),
            _ => q.packed.to_vec(),
        };
        let levels = q.config.levels();
        let gs = q.config.group_size;
        let mut out = vec![0.0f32; q.shape.numel()];
        for (g, chunk) in out.chunks_mut(gs).enumerate() {
            let scale = q.ranges[g] / levels;
            for (x, &c) in chunk.iter_mut().zip(&codes[g * gs..]) {
                *x = c as f32 * scale + q.mins[g];
            }
        }
        out
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn specials_quantize_like_the_reference() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        #[rustfmt::skip]
        let t = Tensor::from_vec([34], vec![
            nan, 1.0, -2.0, 0.5,
            inf, 0.0, 1.0, 2.0,
            -inf, 3.0, 4.0, 5.0,
            nan, nan, nan, nan,
            0.0, 0.0, 0.0, 0.0,
            -0.0, -0.0, -0.0, -0.0,
            f32::MAX, f32::MIN, 0.0, 1.0,
            1e-40, 2e-40, 3e-40, 1.5e-40,
            0.25, 0.75,
        ]);
        for bit_width in [4, 8] {
            let q = quantize(
                &t,
                QuantConfig {
                    bits: bit_width,
                    group_size: 4,
                },
            );
            let (packed, mins, ranges) = reference_quantize(&t, q.config);
            assert_eq!(&q.packed[..], &packed[..]);
            assert_eq!(bits(&q.mins), bits(&mins));
            assert_eq!(bits(&q.ranges), bits(&ranges));
            assert_eq!(bits(dequantize(&q).data()), bits(&reference_dequantize(&q)));
        }
    }

    proptest! {
        #[test]
        fn prop_same_bytes_as_the_two_pass_reference(
            n in 1usize..4096,
            gs in prop_oneof![Just(2usize), Just(3), Just(64), Just(128)],
            bit_width in prop_oneof![Just(4u8), Just(8u8)],
            seed in 0u64..1000,
            std in 0.01f32..10.0,
        ) {
            let t = Tensor::randn([n], std, seed);
            let q = quantize(&t, QuantConfig { bits: bit_width, group_size: gs });
            let (packed, mins, ranges) = reference_quantize(&t, q.config);
            prop_assert_eq!(&q.packed[..], &packed[..]);
            prop_assert_eq!(bits(&q.mins), bits(&mins));
            prop_assert_eq!(bits(&q.ranges), bits(&ranges));

            // Into a dirty buffer: every element must be overwritten.
            let mut out = vec![f32::NAN; n];
            dequantize_into(&q, &mut out);
            prop_assert_eq!(bits(&out), bits(&reference_dequantize(&q)));
        }

        #[test]
        fn prop_round_trip_error_bounded(
            n in 1usize..500,
            gs in 1usize..128,
            bits in prop_oneof![Just(4u8), Just(8u8)],
            seed in 0u64..1000,
            std in 0.01f32..10.0,
        ) {
            let t = Tensor::randn([n], std, seed);
            let cfg = QuantConfig { bits, group_size: gs };
            let q = quantize(&t, cfg);
            let d = dequantize(&q);
            prop_assert_eq!(d.numel(), n);
            let err = t.max_abs_diff(&d);
            // Allow tiny float slack on top of the analytic bound.
            prop_assert!(err <= q.error_bound() * (1.0 + 1e-4) + 1e-6,
                "err {} > bound {}", err, q.error_bound());
        }

        #[test]
        fn prop_quantization_idempotent(n in 1usize..200, seed in 0u64..500) {
            // Dequantized values re-quantize to themselves (fixed point).
            let t = Tensor::randn([n], 1.0, seed);
            let cfg = QuantConfig::int4();
            let d1 = dequantize(&quantize(&t, cfg));
            let d2 = dequantize(&quantize(&d1, cfg));
            prop_assert!(d1.allclose(&d2, 1e-5));
        }
    }
}
