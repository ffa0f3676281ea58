//! IEEE 754 binary16 (half precision) — the paper's uncompressed baseline
//! precision — implemented as bit-level conversion plus a compact storage
//! type, with no external dependencies.
//!
//! Round-to-nearest-even conversion, correct handling of subnormals,
//! infinities and NaN; `F16Tensor` stores tensors at 2 bytes/element for
//! at-rest use (weights, KV cache) and materialises back to f32 for
//! compute — exactly how the offloading runtimes treat fp16 tensors on a
//! CPU without native half arithmetic.

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Convert one f32 to its binary16 bit pattern (round-to-nearest-even).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN: preserve NaN-ness with a set mantissa bit.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow -> infinity
    }
    if unbiased >= -14 {
        // Normal half. Round mantissa from 23 to 10 bits, ties-to-even.
        let mant16 = mant >> 13;
        let rem = mant & 0x1FFF;
        let mut out = sign | (((unbiased + 15) as u16) << 10) | mant16 as u16;
        if rem > 0x1000 || (rem == 0x1000 && (mant16 & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct
        }
        return out;
    }
    if unbiased >= -24 {
        // Subnormal half: implicit leading 1 becomes explicit.
        let full = mant | 0x0080_0000;
        let shift = (-unbiased - 14 + 13) as u32;
        let mant16 = (full >> shift) as u16;
        let rem_mask = (1u32 << shift) - 1;
        let rem = full & rem_mask;
        let half = 1u32 << (shift - 1);
        let mut out = sign | mant16;
        if rem > half || (rem == half && (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    sign // underflow -> signed zero
}

/// Convert a binary16 bit pattern to f32 (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m · 2^-24, exactly representable in f32.
            let mag = m as f32 * 2f32.powi(-24);
            return if sign != 0 { -mag } else { mag };
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// A tensor stored at half precision (2 bytes/element).
#[derive(Debug, Clone, PartialEq)]
pub struct F16Tensor {
    shape: Shape,
    data: Vec<u16>,
}

impl F16Tensor {
    /// Convert from f32 storage (rounding each element).
    pub fn from_f32(t: &Tensor) -> Self {
        F16Tensor {
            shape: t.shape().clone(),
            data: t.data().iter().map(|&x| f32_to_f16_bits(x)).collect(),
        }
    }

    /// Materialise back to f32 for compute.
    pub fn to_f32(&self) -> Tensor {
        let mut out = vec![0.0f32; self.data.len()];
        self.widen_into(&mut out);
        Tensor::from_vec(self.shape.clone(), out)
    }

    /// [`F16Tensor::to_f32`] into a buffer that already exists
    /// (`out.len()` must be the tensor's element count).
    pub fn widen_into(&self, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.data.len(),
            "widen_into: buffer length mismatch"
        );
        for (x, &h) in out.iter_mut().zip(&self.data) {
            *x = f16_bits_to_f32(h);
        }
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// At-rest bytes: exactly 2 per element.
    pub fn bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// Worst-case relative rounding error of the format for normal values
    /// (half a ulp at 10 mantissa bits).
    pub const MAX_RELATIVE_ERROR: f32 = 1.0 / 2048.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_values_round_trip() {
        for x in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 1024.0] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back, x, "{x}");
            // Sign of zero preserved.
            assert_eq!(back.is_sign_negative(), x.is_sign_negative());
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // max finite half
        assert_eq!(f16_bits_to_f32(0x3C00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7C00), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(0xFC00), f32::NEG_INFINITY);
    }

    #[test]
    fn specials() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(1e10), 0x7C00, "overflow saturates to inf");
        assert_eq!(f32_to_f16_bits(1e-10), 0, "deep underflow flushes to zero");
    }

    #[test]
    fn subnormal_halves() {
        // Smallest positive subnormal half = 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f32_to_f16_bits(tiny), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), tiny);
        // Largest subnormal: (1023/1024)·2^-14.
        let big_sub = f16_bits_to_f32(0x03FF);
        assert!(big_sub < 2.0f32.powi(-14));
        assert_eq!(f32_to_f16_bits(big_sub), 0x03FF);
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10:
        // rounds down to even mantissa (0x3C00).
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f32_to_f16_bits(halfway), 0x3C00);
        // 1 + 3·2^-11 is halfway between odd and even: rounds up to even.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f32_to_f16_bits(halfway_up), 0x3C02);
    }

    #[test]
    fn tensor_storage_halves_bytes() {
        let t = Tensor::randn([32, 16], 1.0, 3);
        let h = F16Tensor::from_f32(&t);
        assert_eq!(h.bytes(), t.numel() * 2);
        let back = h.to_f32();
        let max = t.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(t.max_abs_diff(&back) <= max * F16Tensor::MAX_RELATIVE_ERROR * 2.0);
    }

    proptest! {
        #[test]
        fn prop_round_trip_error_bounded(x in -60000.0f32..60000.0) {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            let tol = x.abs().max(2.0f32.powi(-14)) * F16Tensor::MAX_RELATIVE_ERROR;
            prop_assert!((back - x).abs() <= tol, "{} -> {}", x, back);
        }

        #[test]
        fn prop_half_values_are_fixed_points(bits in 0u16..0x7C00) {
            // Every finite half value converts to f32 and back unchanged.
            let x = f16_bits_to_f32(bits);
            prop_assert_eq!(f32_to_f16_bits(x), bits);
        }

        #[test]
        fn prop_monotone_on_positives(a in 0.0f32..60000.0, b in 0.0f32..60000.0) {
            // Rounding preserves order (weakly).
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(f32_to_f16_bits(lo) <= f32_to_f16_bits(hi));
        }
    }
}
