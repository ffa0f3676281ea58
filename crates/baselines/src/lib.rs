//! # lm-baselines
//!
//! The two state-of-the-art comparators of the paper's evaluation:
//!
//! - [`flexgen`]: FlexGen's zig-zag block scheduling and policy search —
//!   deliberately *quantization-blind* (it scores candidates with the base
//!   cost model at fp16 only), which is the gap LM-Offload's performance
//!   models close;
//! - [`zero`]: ZeRO-Inference's all-or-nothing placement with default
//!   4-bit weight quantization and no block schedule;
//! - [`search`]: the shared exhaustive policy grid search (the exact,
//!   deterministic stand-in for FlexGen's linear program — DESIGN.md §5),
//!   parameterised by an evaluator closure so each framework brings its
//!   own cost beliefs.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod flexgen;
pub mod search;
pub mod zero;

pub use flexgen::{flexgen_evaluator, flexgen_search, Deployment};
pub use search::{grid_search, SearchSpace};
pub use zero::{zero_policy, zero_search};
