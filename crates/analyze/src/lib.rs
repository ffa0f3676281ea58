//! # lm-analyze
//!
//! Static analysis for LM-Offload deployments: "the model says no before
//! the run does". One lint family per module, each a plain function from
//! an inspected value (a policy, a graph, or a sampled probe) to a
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
//! preflight tests drive every serve-side code from a configuration,
//! `lm-bench`'s `repro analyze` tests every deployment-side one, and a
//! code no configuration can reach is retired. What the planner, the
//! graph builders or the cost model already refuse is not linted again.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod async_lints;
pub mod diag;
pub mod obs_lints;
pub mod paging_lints;
pub mod plan_lints;
pub mod serve_lints;
pub mod verify_lints;

pub use async_lints::{lint_async, AsyncProbe};
pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use obs_lints::{lint_obs, ObsProbe};
pub use paging_lints::{lint_paging, PagingProbe};
pub use plan_lints::{lint_bundles, lint_policy, BUNDLE_MIN_FLOPS};
pub use serve_lints::{lint_serve, lint_slo, ServeProbe, SloProbe};
pub use verify_lints::{lint_verify, UnsoundnessWitness, VerifyProbe};

use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_parallelism::OpGraph;
use lm_sim::Policy;

/// Everything a deployment analysis inspects: the policy's placements and
/// the attention graph the runtime bundles. The parallelism plan is not
/// among them — Algorithm 3 builds its rules into the plan or refuses.
pub struct Deployment<'a> {
    pub platform: &'a Platform,
    pub model: &'a ModelConfig,
    pub workload: &'a Workload,
    pub policy: &'a Policy,
    pub graph: &'a OpGraph,
}

/// Lint a deployment's placements (`LMA109`) and its bundling (`LMA110`).
pub fn analyze_deployment(d: &Deployment<'_>) -> Report {
    let mut report = lint_policy(d.policy, d.model, d.workload, d.platform);
    report.extend(lint_bundles(d.graph, BUNDLE_MIN_FLOPS, d.platform));
    report
}
