//! # lm-analyze
//!
//! Static analysis for LM-Offload deployments: "the model says no before
//! the run does". One lint family per module, each a plain function from
//! an inspected value (a graph, a plan, or a sampled probe) to a
//! [`Report`]; the families and their code ranges are mapped in [`diag`],
//! and what each code means is written once, on its row of the
//! `lint_codes!` list there ([`LintCode`]).
//!
//! The probe-based families take plain values, so this crate depends on
//! none of the crates it judges: `lm-serve`'s `preflight` module and
//! `lm-verify` sample the probes from live objects, and
//! `tests/mutations.rs` breaks one field at a time to prove every code
//! fires. A probe carries only what its shipped constructor sets, and a
//! code kept in the registry is one a shipped path can fire: `lm-serve`'s
//! preflight tests drive every serve-side code from a configuration, and
//! a code no configuration can reach is retired.

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
