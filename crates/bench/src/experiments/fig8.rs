//! Figure 8 — effectiveness of thread-level parallelism control: per-task
//! execution time under default threading versus LM-Offload's plan
//! (OPT-30B, n=8), plus end-to-end time. The paper reports a 32% compute
//! reduction, 19% average task reduction and 38% end-to-end reduction.

use lm_hardware::presets;
use lm_models::{presets as models, Workload};
use lm_offload::{derive_plan, quant_aware_provider, QuantCostParams, ThreadFactors};
use lm_parallelism::ParallelismPlan;
use lm_sim::{simulate, simulate_traced, Policy};
use lm_trace::{render_gantt, TaskKind};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskTimeRow {
    pub task: String,
    pub default_secs: f64,
    pub controlled_secs: f64,
    pub reduction_pct: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    pub tasks: Vec<TaskTimeRow>,
    pub default_end_to_end: f64,
    pub controlled_end_to_end: f64,
    pub end_to_end_reduction_pct: f64,
    /// The plan the controller picked (inter-op 12 / intra-op ~16 on the
    /// paper's machine).
    pub plan: ParallelismPlan,
}

/// Run the experiment.
pub fn run() -> Fig8 {
    let platform = presets::single_gpu_a100();
    let model = models::opt_30b();
    let w = Workload::parallelism_study();
    let policy = Policy::flexgen_default();
    let params = QuantCostParams::flexgen_kernels();

    let sim_with = |threads: ThreadFactors| {
        let provider = quant_aware_provider(&platform, &model, &w, policy, params, threads);
        simulate(&provider, &w, model.num_layers)
    };
    let default = sim_with(ThreadFactors::Default);
    let controlled = sim_with(ThreadFactors::Controlled);

    let tasks = TaskKind::ALL
        .iter()
        .filter_map(|&k| {
            let d = default.breakdown[k];
            let c = controlled.breakdown[k];
            if d == 0.0 && c == 0.0 {
                return None; // task absent under this policy
            }
            Some(TaskTimeRow {
                task: k.name().to_string(),
                default_secs: d,
                controlled_secs: c,
                reduction_pct: (1.0 - c / d) * 100.0,
            })
        })
        .collect();

    let d_total = default.prefill_time + default.decode_time;
    let c_total = controlled.prefill_time + controlled.decode_time;
    let plan = derive_plan(&platform, &model, &w, &policy).plan;
    Fig8 {
        tasks,
        default_end_to_end: d_total,
        controlled_end_to_end: c_total,
        end_to_end_reduction_pct: (1.0 - c_total / d_total) * 100.0,
        plan,
    }
}

/// An ASCII Gantt of the first traced decode step under the controlled
/// setting — the visual counterpart of Fig. 8's overlap story.
pub fn gantt_first_step(width: usize) -> String {
    let platform = presets::single_gpu_a100();
    let model = models::opt_30b();
    let w = Workload::parallelism_study();
    let provider = quant_aware_provider(
        &platform,
        &model,
        &w,
        Policy::flexgen_default(),
        QuantCostParams::flexgen_kernels(),
        ThreadFactors::Controlled,
    );
    let (report, spans) = simulate_traced(&provider, &w, model.num_layers, 1);
    // Keep the chart readable: the first few layers, aligned to the
    // decode window (weight prefetches that complete long before the
    // prefill ends would otherwise stretch the time axis).
    let window_start = report.prefill_time * 0.98;
    let subset: Vec<_> = spans
        .into_iter()
        .filter(|s| s.layer < 6 && s.end >= window_start)
        .collect();
    render_gantt(&subset, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_task_benefits_most() {
        // "The compute task benefits the most, with a 32% reduction."
        let f = run();
        let compute = f
            .tasks
            .iter()
            .find(|t| t.task == "compute_cpu")
            .expect("cpu compute present under attention offloading");
        assert!(
            compute.reduction_pct > 20.0,
            "compute reduction {:.0}%",
            compute.reduction_pct
        );
        let max = f
            .tasks
            .iter()
            .map(|t| t.reduction_pct)
            .fold(f64::MIN, f64::max);
        assert!(compute.reduction_pct >= max - 1e-9, "compute must lead");
    }

    #[test]
    fn end_to_end_reduction_substantial() {
        // Paper: 38% end-to-end reduction; require a clear double-digit
        // improvement.
        let f = run();
        assert!(
            f.end_to_end_reduction_pct > 15.0,
            "end-to-end {:.0}%",
            f.end_to_end_reduction_pct
        );
        assert!(f.controlled_end_to_end < f.default_end_to_end);
    }

    #[test]
    fn plan_matches_section_5_4() {
        let f = run();
        assert_eq!(f.plan.inter_op_total, 12);
        assert!((4..=16).contains(&f.plan.intra_op_compute));
    }

    #[test]
    fn gantt_renders_for_fig8() {
        let g = gantt_first_step(60);
        assert!(g.contains("H2D |"));
        assert!(g.contains("CPU |"));
    }

    #[test]
    fn every_task_improves_or_holds() {
        let f = run();
        for t in &f.tasks {
            assert!(
                t.reduction_pct >= -1e-9,
                "{} regressed: {:.1}%",
                t.task,
                t.reduction_pct
            );
        }
    }
}
