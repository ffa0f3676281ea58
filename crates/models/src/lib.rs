//! # lm-models
//!
//! Transformer architecture descriptions and memory-footprint calculators.
//!
//! Everything an offloading scheduler needs to know about a model is a
//! function of tensor *shapes*, never of weight values. This crate provides:
//!
//! - [`config::ModelConfig`] — layers `l`, hidden `h1`, MLP inner `h2`,
//!   heads, vocab (the model-structure parameters of Table 2);
//! - [`presets`] — the OPT-13B/30B/66B and LLaMA-13B/30B/65B configurations
//!   the paper evaluates, plus small family members for real execution;
//! - [`workload::Workload`] — prompt length `s`, generation length `n`,
//!   GPU batch size and zig-zag block size `bls`;
//! - [`footprint`] — Eq. 17-19 tensor sizes and the aggregate footprints of
//!   §3.1 (e.g. OPT-30B at the motivation workload: 55 GiB of weights,
//!   157 GiB of KV cache, 214 GiB total).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod config;
pub mod footprint;
pub mod presets;
pub mod workload;

pub use config::{DType, Family, ModelConfig};
pub use footprint::Footprint;
pub use workload::Workload;
