//! # lm-cachesim
//!
//! A set-associative LRU cache simulator with synthetic trace generators,
//! built to reproduce Table 5 of the LM-Offload paper: last-level cache
//! misses of the decode-phase workload under default PyTorch threading
//! versus LM-Offload's parallelism control.
//!
//! The substitution (DESIGN.md §2): the paper measures LLC misses with
//! hardware counters; we reproduce the *mechanism* — oversubscribed
//! co-running operators interleaving on a shared LLC — with a trace-driven
//! model whose geometry comes from `lm_hardware::CpuSpec`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod cache;
pub mod hierarchy;
pub mod trace;
pub mod workload;

pub use cache::{Access, CacheStats, SetAssocCache};
pub use hierarchy::Hierarchy;
pub use trace::{interleave, tiled_matmul_trace, OpStream};
pub use workload::{run_contention, scale_misses, ContentionConfig, ContentionResult, ThreadSetting};
