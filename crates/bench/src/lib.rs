//! # lm-bench
//!
//! The experiment harness: one runner per table and figure of the
//! LM-Offload paper (see [`experiments`]), an ASCII [`table`] renderer,
//! the flag parser ([`cli`]) shared by the two binaries, and the `repro`
//! binary that regenerates everything and writes JSON results to
//! `results/`.
//!
//! Wall-clock performance is measured from outside the workspace by
//! `benchmark/` (see its README).

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod cli;
pub mod experiments;
pub mod table;
