//! # lm-analyze
//!
//! Static analysis for LM-Offload deployments: a diagnostics engine with
//! stable lint codes over three families of checks (DESIGN.md §10):
//!
//! - [`graph_lints`] (`LMA0xx`): structural lints on operator dependency
//!   graphs — cycles (with the witness path), orphan nodes, duplicate and
//!   out-of-bounds edges, zero-cost compute nodes, transfers co-scheduled
//!   with compute;
//! - [`plan_lints`] (`LMA1xx`): Algorithm 3 outputs and offloading
//!   policies — inter-op vs the Kahn width, the
//!   `inter_op·intra_op + 5 ≤ threads` budget, volume-proportional
//!   transfer grants, memory-capacity feasibility, bundle working sets vs
//!   the LLC;
//! - [`model_lints`] (`LMA20x`): dimensional and structural consistency
//!   of the analytic cost model (Eq. 1-24) via sampled [`ModelProbe`]
//!   observations;
//! - [`serve_lints`] (`LMA25x`): `lm-serve` slot plans — leased KV bytes
//!   vs pool capacity, block size vs the block graph's Kahn width, and
//!   pool underutilization — via sampled [`ServeProbe`] observations;
//! - [`serve_lints`] (`LMA26x`): SLO/overload policies — objective vs
//!   the physical service floor, enforcement with no armed actuator,
//!   single-slot preemption churn — via sampled [`SloProbe`]
//!   observations;
//! - [`obs_lints`] (`LMA27x`): observability wiring — SLO enforcement
//!   without a TTFT histogram, an armed zero-capacity flight recorder
//!   under chaos faults — via sampled [`ObsProbe`] observations;
//! - [`paging_lints`] (`LMA28x`): paged KV pools — page geometry vs the
//!   plan's KV block, refcount conservation across page tables, and
//!   copy-on-write discipline — via sampled [`PagingProbe`]
//!   observations;
//! - [`verify_lints`] (`LMA29x`): `lm-verify` runs — sweep-lattice
//!   degeneracy, lint-unsoundness witnesses from the planner-space
//!   sweep, and unexercised protocol transitions — via sampled
//!   [`VerifyProbe`] observations;
//! - [`async_lints`] (`LMA30x`): async serving sessions — zero-capacity
//!   token channels, wall-clock SLOs below the physical TTFT floor, and
//!   degenerate wall→virtual time scales — via sampled [`AsyncProbe`]
//!   observations.
//!
//! Every finding carries a stable `LMAnnn` code (see [`LintCode`]) —
//! codes keep their meaning across releases and retired codes are never
//! reused — a severity, the inspected subject, and a message with the
//! offending values inline. [`Report`] serialises to JSON for
//! `repro analyze`.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod async_lints;
pub mod diag;
pub mod graph_lints;
pub mod model_lints;
pub mod obs_lints;
pub mod paging_lints;
pub mod plan_lints;
pub mod serve_lints;
pub mod verify_lints;

pub use async_lints::{lint_async, AsyncProbe};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use graph_lints::lint_graph;
pub use model_lints::{lint_model, ModelProbe};
pub use obs_lints::{lint_obs, ObsProbe};
pub use paging_lints::{lint_paging, PagingProbe};
pub use plan_lints::{lint_bundles, lint_plan, lint_policy};
pub use serve_lints::{lint_serve, lint_slo, ServeProbe, SloProbe};
pub use verify_lints::{lint_verify, UnsoundnessWitness, VerifyProbe};

use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_parallelism::{OpGraph, ParallelismPlan, SearchConfig, TransferTask};
use lm_sim::Policy;

/// Everything a full deployment analysis inspects. The caller (the
/// controller, the bench harness, or strict engine construction) derives
/// the plan; this crate only judges it.
pub struct Deployment<'a> {
    pub platform: &'a Platform,
    pub model: &'a ModelConfig,
    pub workload: &'a Workload,
    pub policy: &'a Policy,
    pub graph: &'a OpGraph,
    pub cfg: &'a SearchConfig,
    pub plan: &'a ParallelismPlan,
    pub transfers: &'a [TransferTask],
    /// FLOP threshold below which operators are bundling candidates.
    pub bundle_min_flops: f64,
}

/// Run all three lint families over a deployment and merge the findings.
pub fn analyze_deployment(d: &Deployment<'_>) -> Report {
    let mut report = lint_graph(d.graph);
    report.extend(lint_plan(d.plan, d.graph, d.cfg, d.transfers));
    report.extend(lint_policy(d.policy, d.model, d.workload, d.platform));
    report.extend(lint_bundles(d.graph, d.bundle_min_flops, d.platform));
    let probe = ModelProbe::sample(
        d.platform,
        d.model,
        d.workload,
        d.policy,
        d.workload.gen_len / 2,
    );
    report.extend(lint_model(&probe));
    report
}
