//! # lm-analyze
//!
//! The diagnostic vocabulary of LM-Offload's pre-flight checks ("the
//! model says no before the run does"), and the one lint family that
//! judges a deployment. [`diag`] holds the vocabulary: the stable
//! [`LintCode`]s (what each means is written once, on its row of the
//! `lint_codes!` list there), the retired codes that are never reused,
//! and the [`Diagnostic`] / [`Report`] / [`Severity`] every check returns.
//! [`plan_lints`] judges a real `Policy`, `Platform` and `OpGraph`
//! (`LMA1xx`).
//!
//! Every other check lives beside the value it judges and reads it
//! directly: `lm-serve`'s planner, `SloPolicy`, observability report and
//! `AsyncConfig` (`LMA26x`–`LMA30x`), and `lm-verify`'s sweep
//! (`LMA29x`); the range table in [`diag`] names each home. A code kept
//! in the registry is one a shipped path can fire: `lm-serve`'s
//! preflight tests drive every serve-side code from a configuration,
//! `lm-bench`'s `repro analyze` tests every deployment-side one, and a
//! code no configuration can reach is retired. What the planner, the
//! graph builders or the cost model already refuse is not linted again.

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod diag;
pub mod plan_lints;

pub use diag::{Diagnostic, LintCode, Report, Severity};
pub use plan_lints::{lint_bundles, lint_policy, BUNDLE_MIN_FLOPS};

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
