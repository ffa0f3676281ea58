//! # lm-sim
//!
//! Simulation substrate for the LM-Offload reproduction: the hardware the
//! paper ran on, replaced by models (DESIGN.md §2).
//!
//! - [`policy`]: offloading policies — the `(wg, cg, hg)` placements,
//!   per-tensor precisions and attention placement of Table 3, with
//!   memory-feasibility checks;
//! - [`tasks`]: the [`tasks::CostProvider`] abstraction — one
//!   [`TaskCosts`] vector per decode step — and the analytic Eq. 1/2
//!   aggregation over it ([`StepLoad`]);
//! - [`analytic`]: the base (quantization-free) cost model — FlexGen's
//!   accounting — that `lm-offload` extends with Eq. 3-7 overheads;
//! - [`exec`]: an event-driven executor of the decode loop against FIFO
//!   hardware resources, validating the analytic `max()` model and
//!   producing the per-task breakdown of Fig. 8;
//! - [`pipeline`]: pipeline-parallel multi-GPU simulation for the weak
//!   scaling study of Fig. 9.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod analytic;
pub mod exec;
pub mod pipeline;
pub mod policy;
pub mod tasks;

pub use analytic::{BaseCostModel, DISK_BW, TASK_OVERHEAD};
pub use exec::{predicted_task_totals, simulate, simulate_faulted, simulate_traced, SimReport};
pub use pipeline::{
    host_contention, simulate_pipeline, simulate_pipeline_faulted, PipelineReport,
};
pub use policy::{fits, max_gpu_batch, memory_plan, AttentionPlacement, MemoryPlan, Policy};
pub use tasks::{
    step_load, t_gen, total_latency, CostProvider, Resource, StepLoad, TaskCosts, TaskExtras,
    TaskKind,
};
