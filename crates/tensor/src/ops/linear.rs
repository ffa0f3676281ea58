//! Linear (fully-connected) layers, optionally held in quantized form —
//! the building block whose storage precision the LM-Offload policy
//! chooses per tensor class.

use crate::f16::F16Tensor;
use crate::ops::elementwise::add_bias;
use crate::ops::matmul::matmul_transb;
use crate::quant::{dequantize, quantize, QuantConfig, QuantizedTensor};
use crate::tensor::Tensor;
use std::borrow::Cow;

/// Weight storage for a linear layer: full precision or group-quantized.
///
/// Quantized storage models FlexGen's compressed weight format: the codes
/// live wherever the policy placed them and are dequantized at use — the
/// `dequan_wgt` cost of Eq. 4.
#[derive(Debug, Clone)]
pub enum WeightStore {
    Full(Tensor),
    /// Half precision at rest — the paper's fp16 baseline format.
    Half(F16Tensor),
    Quantized(QuantizedTensor),
}

impl WeightStore {
    /// Bytes at rest.
    pub fn bytes(&self) -> usize {
        match self {
            WeightStore::Full(t) => t.numel() * std::mem::size_of::<f32>(),
            WeightStore::Half(h) => h.bytes(),
            WeightStore::Quantized(q) => q.bytes(),
        }
    }

    /// The weights at full precision: borrowed when they already are,
    /// dequantized / widened into a fresh tensor otherwise.
    pub fn as_full(&self) -> Cow<'_, Tensor> {
        match self {
            WeightStore::Full(t) => Cow::Borrowed(t),
            WeightStore::Half(h) => Cow::Owned(h.to_f32()),
            WeightStore::Quantized(q) => Cow::Owned(dequantize(q)),
        }
    }
}

/// A linear layer `y = x·Wᵀ + b` with `W: [out, in]`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub weight: WeightStore,
    pub bias: Option<Vec<f32>>,
    pub in_features: usize,
    pub out_features: usize,
}

impl Linear {
    /// A full-precision layer with Xavier-initialised weights.
    pub fn new(in_features: usize, out_features: usize, bias: bool, seed: u64) -> Self {
        Linear {
            weight: WeightStore::Full(Tensor::xavier(out_features, in_features, seed)),
            bias: bias.then(|| vec![0.0; out_features]),
            in_features,
            out_features,
        }
    }

    /// Convert the weights to group-quantized storage in place.
    pub fn quantize_weights(&mut self, config: QuantConfig) {
        if let WeightStore::Full(t) = &self.weight {
            self.weight = WeightStore::Quantized(quantize(t, config));
        }
    }

    /// Convert the weights to half-precision storage in place (fp16 at
    /// rest, widened to f32 at use).
    pub fn halve_weights(&mut self) {
        if let WeightStore::Full(t) = &self.weight {
            self.weight = WeightStore::Half(F16Tensor::from_f32(t));
        }
    }

    /// Apply to `x: [batch, in]`, returning `[batch, out]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.rank(), 2, "Linear::forward expects [batch, in]");
        assert_eq!(x.dim(1), self.in_features, "in_features mismatch");
        let mut y = matmul_transb(x, &self.weight.as_full());
        if let Some(b) = &self.bias {
            add_bias(&mut y, b);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let l = Linear::new(8, 16, true, 1);
        let x = Tensor::randn([4, 8], 1.0, 2);
        let y = l.forward(&x);
        assert_eq!(y.shape().0, vec![4, 16]);
    }

    #[test]
    fn quantized_forward_close_to_full() {
        let mut l = Linear::new(32, 32, false, 3);
        let x = Tensor::randn([2, 32], 1.0, 4);
        let full = l.forward(&x);
        l.quantize_weights(QuantConfig::int8());
        let quant = l.forward(&x);
        // int8 on unit-scale weights: error well under 1% of magnitude.
        let rel = quant.max_abs_diff(&full)
            / full.data().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(rel < 0.05, "relative error {rel}");
    }

    #[test]
    fn quantized_storage_is_smaller() {
        let mut l = Linear::new(128, 128, false, 5);
        let before = l.weight.bytes();
        l.quantize_weights(QuantConfig::int4());
        let after = l.weight.bytes();
        assert!(after * 6 < before, "{after} vs {before}");
    }

    #[test]
    fn quantize_is_idempotent_on_storage() {
        let mut l = Linear::new(16, 16, false, 6);
        l.quantize_weights(QuantConfig::int4());
        let once = l.weight.bytes();
        l.quantize_weights(QuantConfig::int4()); // no-op on quantized store
        assert_eq!(l.weight.bytes(), once);
    }

    #[test]
    fn half_precision_storage_halves_bytes_and_stays_close() {
        let mut l = Linear::new(64, 64, false, 9);
        let x = Tensor::randn([2, 64], 1.0, 10);
        let full = l.forward(&x);
        let before = l.weight.bytes();
        l.halve_weights();
        assert_eq!(l.weight.bytes() * 2, before);
        let half = l.forward(&x);
        let scale = full.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(half.max_abs_diff(&full) < 0.01 * scale.max(1.0));
    }

    #[test]
    fn bias_applied() {
        let mut l = Linear::new(2, 2, true, 7);
        if let Some(b) = &mut l.bias {
            b[0] = 1.0;
            b[1] = -1.0;
        }
        let zero = Tensor::zeros([1, 2]);
        let y = l.forward(&zero);
        assert_eq!(y.row(0), &[1.0, -1.0]);
    }
}
