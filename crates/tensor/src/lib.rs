//! # lm-tensor
//!
//! A from-scratch CPU tensor library: the numeric substrate for the real
//! execution mode of the LM-Offload reproduction.
//!
//! Provides dense f32 tensors, single-threaded matmul/attention/MLP
//! kernels — the hot ones (`matmul_transb`, quantize, dequantize) compiled
//! twice and dispatched by CPU capability (AVX2+FMA or portable) — and,
//! centrally for the paper, the group-wise min-max quantization of
//! Algorithm 2 with dequantization per Eq. 11 ([`quant`]).
//!
//! The library favours simplicity over generality: owned contiguous
//! storage, no views, no autograd. The kernels are differential-tested
//! against naive references and property-tested (quantization error bounds,
//! softmax distributions, causal-attention isolation).
//!
//! ```
//! use lm_tensor::{quantize, dequantize, QuantConfig, Tensor};
//!
//! let weights = Tensor::randn([128, 64], 1.0, 42);
//! let q = quantize(&weights, QuantConfig::int4());       // Algorithm 2
//! assert!(q.compression_ratio() > 6.0);                  // ~4 bits/elem
//! let restored = dequantize(&q);                         // Eq. 11
//! assert!(weights.max_abs_diff(&restored) <= q.error_bound() + 1e-6);
//! ```

// `unsafe` appears only where a `#[target_feature]` instance is called
// after its features were detected; each site carries its own `allow`.
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod f16;
pub mod ops;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use f16::{f16_bits_to_f32, f32_to_f16_bits, F16Tensor};
pub use ops::attention::{mha_decode, mha_prefill, KvCache};
pub use ops::rope::{apply_rope_decode, apply_rope_prefill, ROPE_THETA};
pub use ops::linear::{Linear, WeightStore};
pub use quant::{dequantize, dequantize_into, quantize, QuantConfig, QuantizedTensor};
pub use shape::Shape;
pub use tensor::Tensor;
