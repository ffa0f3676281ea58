//! # lm-hardware
//!
//! Hardware platform descriptions for the LM-Offload reproduction.
//!
//! This crate provides the hardware side of Table 2's notation —
//! `cpu_flops`, `cpu_freq`, `cpu_mem_bdw`, `gpu_flops`, `gpu_freq`,
//! `gpu_mem_bdw` — plus the capacity and topology data the rest of the
//! workspace needs: memory sizes, interconnect bandwidths and latencies,
//! core/thread counts, and LLC geometry for the cache simulator.
//!
//! The two evaluation platforms of Table 4 are available as
//! [`presets::single_gpu_a100`] and [`presets::multi_gpu_v100`].
//!
//! ## Calibration
//!
//! Peak datasheet numbers are scaled by [`spec::Efficiency`] factors to the
//! sustained rates a PyTorch-level offloading runtime achieves. These are
//! the *only* tunable constants in the reproduction; DESIGN.md §5 records
//! how their defaults were chosen.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod presets;
pub mod spec;
pub mod units;

pub use spec::{CpuSpec, Efficiency, GpuSpec, LinkSpec, Platform};
pub use units::{fmt_bytes, gb_per_s, ghz, gib, tflops, to_gib, GB, GIB, KIB, MIB};
