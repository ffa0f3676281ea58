//! `repro analyze` — run the `lm-analyze` static linter over the shipped
//! deployment presets: for each (platform, model, workload, policy)
//! combination the harness derives the real parallelism plan with the
//! controller, then lints the graph, the plan, the policy placements, the
//! bundling decision and a sampled cost-model probe. The default serving
//! plan rides along under the `LMA25x` family, its page geometry under
//! `LMA28x`, the default SLO policy under `LMA26x`, the verification
//! instrument itself under `LMA29x`, and the default async session
//! shape under `LMA30x`. Shipped presets must produce zero
//! `Error` diagnostics; warnings are reported but allowed.

use lm_analyze::{analyze_deployment, lint_verify, Deployment, Diagnostic, Report};
use lm_hardware::presets;
use lm_models::{presets as models, ModelConfig, Workload};
use lm_offload::{transfer_tasks, try_derive_plan, DEFAULT_HEAD_GROUPS};
use lm_parallelism::{attention_graph, SearchConfig};
use lm_serve::preflight::{
    async_report, paging_report, preflight, serve_report, slo_report, ttft_floor_s,
};
use lm_serve::{
    AnalyticBackend, AsyncConfig, DegradeLadder, ServeConfig, ServeError, ServePlan, SloPolicy,
};
use lm_sim::Policy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// FLOP threshold for the bundling lint — the same order of magnitude the
/// runtime uses to decide which operators are bundling candidates.
pub const BUNDLE_MIN_FLOPS: f64 = 1e7;

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
    let cfg = SearchConfig::for_platform(&platform);
    let transfers = transfer_tasks(&platform, model, workload, policy);
    let out = try_derive_plan(&platform, model, workload, policy)
        .unwrap_or_else(|e| panic!("preset '{name}' is infeasible: {e}"));
    let report = analyze_deployment(&Deployment {
        platform: &platform,
        model,
        workload,
        policy,
        graph: &graph,
        cfg: &cfg,
        plan: &out.plan,
        transfers: &transfers,
        bundle_min_flops: BUNDLE_MIN_FLOPS,
    });
    AnalyzeRow::new(name, out.plan.inter_op_total, out.plan.intra_op_compute, report)
}

/// Lint the default OPT-30B serving deployment against its one admission
/// plan, one row per family:
///
/// - `LMA25x` the plan itself (columns: Kahn width / slots);
/// - `LMA28x` its page geometry — the page size must tile the KV block,
///   the pool must hold a page, the quiescent probe must balance
///   (columns: pool pages / pages one slot's context spans);
/// - `LMA26x` the SLO policy `repro slo` enforces — the objective must
///   clear the physical TTFT floor with an actuator armed (columns:
///   Kahn width / slots);
/// - `LMA30x` the async session shape `ServeSession::run_async` ships
///   with (columns: per-request channel capacity / slots).
fn serve_rows(backend: &AnalyticBackend, cfg: &ServeConfig, plan: &ServePlan) -> [AnalyzeRow; 4] {
    let policy =
        SloPolicy::enforcing(ttft_floor_s(plan, backend) * super::slo::SLO_FLOOR_HEADROOM);
    let ladder: Arc<dyn DegradeLadder> = Arc::new(super::slo::model_guided_ladder(backend));
    let acfg = AsyncConfig::default();
    [
        AnalyzeRow::new(
            "opt-30b/serve/default-plan",
            plan.kahn_width as u32,
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
            plan.kahn_width as u32,
            plan.slots as u32,
            slo_report(plan, backend, &policy, Some(&ladder)),
        ),
        AnalyzeRow::new(
            "opt-30b/serve/default-async",
            acfg.channel_capacity as u32,
            plan.slots as u32,
            async_report(plan, backend, cfg, &acfg),
        ),
    ]
}

/// Lint the verification instrument itself with the `LMA29x` family: a
/// real quick planner-space sweep plus both protocol explorations (at
/// the cheap unit-suite preemption bound; `repro verify` runs the deep
/// lane) assembled into a probe that must clear the domain, witness and
/// transition-coverage lints. The row columns carry the verification
/// shape: `inter_op_total` the lattice configs explored,
/// `intra_op_compute` the declared protocol transitions exercised.
fn verify_lint_row() -> AnalyzeRow {
    use lm_verify::{
        build_probe, check_kvpool_protocol, check_scheduler_protocol, run_sweep, Mutation,
        SweepDepth,
    };
    let opts = || loom::Options {
        preemption_bound: 2,
        max_iterations: 50_000,
    };
    let sweep = run_sweep(SweepDepth::Quick, Mutation::None);
    let protocols = [check_kvpool_protocol(opts()), check_scheduler_protocol(opts())];
    let probe = build_probe(&sweep, &protocols);
    AnalyzeRow::new(
        "verify/lma29x/quick-sweep",
        probe.configs_explored as u32,
        probe.exercised_transitions.len() as u32,
        lint_verify(&probe),
    )
}

/// Lint every shipped preset configuration plus the default serve plan.
pub fn run() -> Vec<AnalyzeRow> {
    let flexgen = Policy::flexgen_default();
    let mut rows = vec![
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
    ];
    let backend = AnalyticBackend::opt_30b();
    let cfg = ServeConfig::default();
    match preflight(&backend, &cfg, None) {
        Ok(plan) => {
            rows.extend(serve_rows(&backend, &cfg, &plan));
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
