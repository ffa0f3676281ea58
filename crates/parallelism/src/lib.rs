//! # lm-parallelism
//!
//! Thread-level parallelism control — the §4 contribution of LM-Offload.
//!
//! - [`graph`]: operator dependency graphs of the attention compute task
//!   (Figure 6);
//! - [`kahn`]: Kahn's algorithm — topological order, wavefront analysis,
//!   the *maximum concurrency level* that fixes inter-op parallelism, and
//!   list-scheduled makespan estimation;
//! - [`scaling`]: the calibrated CPU scaling model (intra-op saturation at
//!   ~8 threads, NUMA penalty across sockets, co-run cache contention —
//!   the shapes of Figure 5);
//! - [`profile`]: offline profiling tables of per-operator times per
//!   thread count (§4.2);
//! - [`bundle`]: small-operator bundling to amortise launch overhead;
//! - [`search`]: Algorithm 3 — the parallelism-setting search with the
//!   five-thread reservation for load/store tasks and volume-proportional
//!   thread assignment;
//! - [`executor`]: a real work-queue executor with explicit inter-op and
//!   intra-op parallelism for running operator graphs on actual hardware.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod bundle;
pub mod executor;
pub mod graph;
pub mod kahn;
pub mod profile;
pub mod scaling;
pub mod search;

pub use bundle::{bundle_small_ops, Bundled};
pub use executor::{burn, split_work, ExecError, Executor};
pub use graph::{attention_block_graph, attention_graph, GraphError, OpGraph, OpKind, OpNode};
pub use kahn::{analyze, find_cycle, makespan, KahnAnalysis};
pub use profile::ProfileTable;
pub use scaling::CpuScalingModel;
pub use search::{
    assign_transfer_threads, estimate_step_time, find_optimal_parallelism,
    transfer_time, try_find_optimal_parallelism, ParallelismPlan, SearchConfig, SearchError,
    TransferTask, NUM_TRANSFER_TASKS,
};
