//! `repro analyze` — run the `lm-analyze` static linter over the shipped
//! deployment presets: for each (platform, model, workload, policy)
//! combination the harness derives the real parallelism plan with the
//! controller (its shape fills the row's columns; Algorithm 3 refuses what
//! it cannot build), then lints the policy placements and the bundling
//! decision. The default serving plan rides along under the `LMA25x`
//! family, its page geometry under `LMA28x`, the default SLO policy under
//! `LMA26x`, the verification instrument itself under `LMA29x`, and the
//! default async session shape under `LMA30x`. Shipped presets must
//! produce zero `Error` diagnostics; warnings are reported but allowed.

use lm_analyze::{analyze_deployment, lint_verify, Deployment, Diagnostic, Report};
use lm_hardware::presets;
use lm_models::{presets as models, ModelConfig, Workload};
use lm_offload::{try_derive_plan, DEFAULT_HEAD_GROUPS};
use lm_parallelism::attention_graph;
use lm_serve::preflight::{
    async_report, paging_report, preflight, serve_report, slo_report, ttft_floor_s,
};
use lm_serve::{AnalyticBackend, AsyncConfig, ServeConfig, ServeError, ServePlan, SloPolicy};
use lm_sim::Policy;
use serde::{Deserialize, Serialize};

/// Analysis outcome for one shipped preset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyzeRow {
    pub preset: String,
    /// Derived plan shape, for context next to the findings (what the
    /// two columns carry for the non-deployment rows is documented where
    /// each row is built).
    pub inter_op_total: u32,
    pub intra_op_compute: u32,
    pub errors: usize,
    pub warnings: usize,
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalyzeRow {
    fn new(preset: &str, inter_op_total: u32, intra_op_compute: u32, report: Report) -> Self {
        AnalyzeRow {
            preset: preset.to_string(),
            inter_op_total,
            intra_op_compute,
            errors: report.error_count(),
            warnings: report.warning_count(),
            diagnostics: report.diagnostics,
        }
    }
}

fn preset_row(
    name: &str,
    model: &ModelConfig,
    workload: &Workload,
    policy: &Policy,
) -> AnalyzeRow {
    let platform = presets::single_gpu_a100();
    let graph = attention_graph(
        workload.block_size(),
        workload.prompt_len + workload.gen_len / 2,
        model.hidden,
        DEFAULT_HEAD_GROUPS,
    );
    let out = try_derive_plan(&platform, model, workload, policy)
        .unwrap_or_else(|e| panic!("preset '{name}' is infeasible: {e}"));
    let report = analyze_deployment(&Deployment {
        platform: &platform,
        model,
        workload,
        policy,
        graph: &graph,
    });
    AnalyzeRow::new(name, out.plan.inter_op_total, out.plan.intra_op_compute, report)
}

/// Lint the default OPT-30B serving deployment against its one admission
/// plan, one row per family:
///
/// - `LMA25x` the plan itself (columns: worst-case envelopes the pool
///   holds / slots);
/// - `LMA28x` its page geometry — the page size must tile the KV block,
///   the pool must hold a page (columns: pool pages / pages one slot's
///   context spans);
/// - `LMA26x` the SLO policy `repro slo` enforces — the objective must
///   clear the physical TTFT floor (columns: objective in ms / slots);
/// - `LMA30x` the async session shape `ServeSession::run_async` ships
///   with (columns: per-request channel capacity / slots).
fn serve_rows(backend: &AnalyticBackend, plan: &ServePlan) -> [AnalyzeRow; 4] {
    let policy =
        SloPolicy::enforcing(ttft_floor_s(plan, backend) * super::slo::SLO_FLOOR_HEADROOM);
    let acfg = AsyncConfig::default();
    [
        AnalyzeRow::new(
            "opt-30b/serve/default-plan",
            (plan.kv_pool_bytes / plan.kv_bytes_per_slot) as u32,
            plan.slots as u32,
            serve_report(plan),
        ),
        AnalyzeRow::new(
            "opt-30b/serve/default-paging",
            plan.pages_total as u32,
            plan.pages_per_slot as u32,
            paging_report(plan),
        ),
        AnalyzeRow::new(
            "opt-30b/serve/default-slo",
            (policy.ttft_p99_s * 1e3) as u32,
            plan.slots as u32,
            slo_report(plan, backend, &policy),
        ),
        AnalyzeRow::new(
            "opt-30b/serve/default-async",
            acfg.channel_capacity as u32,
            plan.slots as u32,
            async_report(&acfg),
        ),
    ]
}

/// Lint the verification instrument itself with the `LMA29x` family: a
/// real quick planner-space sweep, the kvpool exploration (at the cheap
/// unit-suite preemption bound; `repro verify` runs the deep lane) and
/// the scheduler's lifecycle-conformance runs, assembled into a probe
/// that must clear the witness and transition-coverage lints.
/// The row columns carry the verification shape: `inter_op_total` the
/// lattice configs explored, `intra_op_compute` the declared protocol
/// transitions exercised (5 kvpool + 13 lifecycle edges).
fn verify_lint_row() -> AnalyzeRow {
    use lm_verify::{
        build_probe, check_kvpool_protocol, check_scheduler_protocol, run_sweep, Mutation,
        SweepDepth,
    };
    let sweep = run_sweep(SweepDepth::Quick, Mutation::None);
    let kvpool = check_kvpool_protocol(loom::Options {
        preemption_bound: 2,
        max_iterations: 50_000,
    });
    let protocols = [kvpool, check_scheduler_protocol()];
    let probe = build_probe(&sweep, &protocols);
    AnalyzeRow::new(
        "verify/lma29x/quick-sweep",
        sweep.configs as u32,
        probe.exercised_transitions.len() as u32,
        lint_verify(&probe),
    )
}

/// Lint the four shipped deployment presets.
fn preset_rows() -> Vec<AnalyzeRow> {
    let flexgen = Policy::flexgen_default();
    vec![
        preset_row(
            "opt-30b/parallelism-study/flexgen-default",
            &models::opt_30b(),
            &Workload::parallelism_study(),
            &flexgen,
        ),
        preset_row(
            "opt-30b/motivation/flexgen-default",
            &models::opt_30b(),
            &Workload::motivation(),
            &flexgen,
        ),
        preset_row(
            "opt-66b/parallelism-study/flexgen-default",
            &models::opt_66b(),
            &Workload::parallelism_study(),
            &flexgen,
        ),
        preset_row(
            "opt-13b/parallelism-study/flexgen-default",
            &models::opt_13b(),
            &Workload::parallelism_study(),
            &flexgen,
        ),
    ]
}

/// Lint every shipped preset configuration plus the default serve plan.
pub fn run() -> Vec<AnalyzeRow> {
    let mut rows = preset_rows();
    let backend = AnalyticBackend::opt_30b();
    match preflight(&backend, &ServeConfig::default(), None) {
        Ok(plan) => {
            rows.extend(serve_rows(&backend, &plan));
            // Committed row order: the LMA29x row sits before the async one.
            rows.insert(rows.len() - 1, verify_lint_row());
        }
        // An infeasible default plan surfaces its LMA25x report as rows.
        Err(ServeError::Plan(report)) => {
            rows.push(AnalyzeRow::new("opt-30b/serve/default-plan", 0, 0, report))
        }
        Err(e) => panic!("default serve plan failed outside analysis: {e}"),
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_presets_have_zero_error_diagnostics() {
        for row in run() {
            assert_eq!(
                row.errors, 0,
                "preset '{}' has {} error diagnostics: {:?}",
                row.preset, row.errors, row.diagnostics
            );
        }
    }

    /// The deployment side's registry guard, beside `lm-serve`'s
    /// `every_serve_side_code_fires_from_a_shipped_config`: each kept
    /// code below the serve range fires from a shipped entry point on a
    /// shipped configuration, with no hand-built probe. A new
    /// deployment-side code with no row here fails the final assertion;
    /// one that nothing shipped can fire has no row to give, and is
    /// retired instead.
    #[test]
    fn every_deployment_side_code_fires_from_a_shipped_config() {
        use lm_analyze::LintCode::{self, *};
        use lm_engine::{Engine, EngineError, EngineOptions};
        let all_gpu_f16 = || {
            let policy = Policy {
                wg: 1.0,
                cg: 1.0,
                hg: 1.0,
                weights_dtype: lm_models::DType::F16,
                kv_dtype: lm_models::DType::F16,
                attention: lm_sim::AttentionPlacement::Gpu,
            };
            let row = preset_row(
                "all-gpu",
                &models::opt_30b(),
                &Workload::motivation(),
                &policy,
            );
            Report::new(row.diagnostics)
        };
        let strict_engine = || {
            let options = EngineOptions {
                strict: true,
                device_capacity: 1024,
                ..EngineOptions::default()
            };
            match Engine::new(&models::tiny_test(), 7, options) {
                Err(EngineError::Rejected(report)) => report,
                other => panic!("strict engine not rejected (built: {})", other.is_ok()),
            }
        };
        let shipped_preset = || Report::new(preset_rows().swap_remove(0).diagnostics);
        let rows: [(LintCode, fn() -> Report); 3] = [
            (Lma109CapacityExceeded, all_gpu_f16),
            (Lma109CapacityExceeded, strict_engine),
            (Lma110BundleExceedsCache, shipped_preset),
        ];
        for (code, fire) in &rows {
            let report = fire();
            assert!(
                report.has(*code),
                "{} does not fire: {report}",
                code.as_str()
            );
        }
        let deployment_side =
            |code: &LintCode| matches!(code.as_str()[3..].parse::<u32>(), Ok(0..=249));
        let kept: Vec<LintCode> = LintCode::ALL.into_iter().filter(deployment_side).collect();
        let mut fired: Vec<LintCode> = rows.iter().map(|row| row.0).collect();
        fired.dedup();
        assert_eq!(
            fired, kept,
            "a shipped config per kept deployment-side code"
        );
    }

    /// A preset row's columns are the plan Algorithm 3 searched for it:
    /// the analysis no longer reads the plan, so the row is where it shows.
    #[test]
    fn preset_rows_carry_the_searched_plan() {
        let platform = presets::single_gpu_a100();
        let policy = Policy::flexgen_default();
        let shipped = [
            (models::opt_30b(), Workload::parallelism_study()),
            (models::opt_30b(), Workload::motivation()),
            (models::opt_66b(), Workload::parallelism_study()),
            (models::opt_13b(), Workload::parallelism_study()),
        ];
        for (row, (model, workload)) in preset_rows().iter().zip(&shipped) {
            let plan = try_derive_plan(&platform, model, workload, &policy)
                .unwrap()
                .plan;
            assert_eq!(
                (row.inter_op_total, row.intra_op_compute),
                (plan.inter_op_total, plan.intra_op_compute),
                "{}",
                row.preset
            );
        }
    }

    #[test]
    fn rows_cover_the_preset_matrix() {
        let rows = run();
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(row.inter_op_total > 5, "{}", row.preset);
            assert!(row.intra_op_compute >= 1, "{}", row.preset);
        }
    }
}
