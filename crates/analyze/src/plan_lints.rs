//! `LMA1xx` — the *outputs* of Algorithm 3 and the offloading policy,
//! against the constraints the paper derives: inter-op bounded by the
//! graph's maximum concurrency level (§4.1), the thread budget
//! `inter_op·intra_op + 5 ≤ total threads` (Algorithm 3 lines 6-7),
//! volume-proportional transfer-thread shares (line 9), and memory
//! feasibility of the policy's placements (§3).

use crate::diag::{Diagnostic, LintCode, Report};
use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_parallelism::{
    bundle_small_ops, kahn, OpGraph, ParallelismPlan, SearchConfig, TransferTask,
    NUM_TRANSFER_TASKS,
};
use lm_sim::policy::GPU_WORKING_RESERVE;
use lm_sim::{memory_plan, Policy};

/// Lint a parallelism plan against the graph and platform it was derived
/// for.
pub fn lint_plan(
    plan: &ParallelismPlan,
    graph: &OpGraph,
    cfg: &SearchConfig,
    transfers: &[TransferTask],
) -> Report {
    let mut out = Vec::new();

    // LMA101: inter-op beyond the Kahn width wastes workers and pays the
    // pool penalty (§4.1's decline past the concurrency level).
    if let Some(analysis) = kahn::analyze(graph) {
        let width = analysis.max_concurrency().max(1) as u32;
        if plan.inter_op_compute > width {
            out.push(Diagnostic::error(
                LintCode::Lma101InterOpExceedsWidth,
                "plan".to_string(),
                format!(
                    "inter_op_compute {} exceeds the graph's maximum \
                     concurrency level {width}",
                    plan.inter_op_compute
                ),
            ));
        }
    }

    // LMA102: the thread budget. Compute workers plus transfer threads
    // must fit in the hardware threads Algorithm 3 divides.
    let transfer_total: u32 = plan.transfer_threads.iter().sum();
    let used = plan.inter_op_compute * plan.intra_op_compute + transfer_total;
    if used > cfg.max_threads {
        out.push(Diagnostic::error(
            LintCode::Lma102ThreadBudgetExceeded,
            "plan".to_string(),
            format!(
                "{} compute x {} intra + {transfer_total} transfer = {used} \
                 threads > budget {}",
                plan.inter_op_compute, plan.intra_op_compute, cfg.max_threads
            ),
        ));
    }

    // LMA103: exactly five load/store tasks (Algorithm 1).
    if plan.transfer_threads.len() != NUM_TRANSFER_TASKS || transfers.len() != NUM_TRANSFER_TASKS {
        out.push(Diagnostic::error(
            LintCode::Lma103WrongTransferVector,
            "plan".to_string(),
            format!(
                "expected {NUM_TRANSFER_TASKS} transfer tasks, plan grants \
                 {} over {} declared tasks",
                plan.transfer_threads.len(),
                transfers.len()
            ),
        ));
    } else {
        // LMA104: a zero grant starves a transfer task entirely — the
        // decode step then waits on an unserved link.
        for (task, &thr) in transfers.iter().zip(&plan.transfer_threads) {
            if thr == 0 {
                out.push(Diagnostic::error(
                    LintCode::Lma104ZeroTransferThreads,
                    format!("transfer {}", task.name),
                    "granted zero threads; the task can never run".to_string(),
                ));
            }
        }

        // LMA105: proportionality (line 9). Strictly more bytes must
        // never receive strictly fewer threads.
        for (i, a) in transfers.iter().enumerate() {
            for (j, b) in transfers.iter().enumerate() {
                if a.bytes > b.bytes
                    && plan.transfer_threads[i] < plan.transfer_threads[j]
                {
                    out.push(Diagnostic::warn(
                        LintCode::Lma105DisproportionalTransfer,
                        format!("transfers {} vs {}", a.name, b.name),
                        format!(
                            "{} moves {} bytes on {} threads while {} moves \
                             {} bytes on {} threads",
                            a.name,
                            a.bytes,
                            plan.transfer_threads[i],
                            b.name,
                            b.bytes,
                            plan.transfer_threads[j]
                        ),
                    ));
                }
            }
        }
    }

    // LMA106: the bookkeeping identity inter_op_total = compute + 5.
    if plan.inter_op_total != plan.inter_op_compute + NUM_TRANSFER_TASKS as u32 {
        out.push(Diagnostic::error(
            LintCode::Lma106InterOpTotalMismatch,
            "plan".to_string(),
            format!(
                "inter_op_total {} != inter_op_compute {} + {NUM_TRANSFER_TASKS}",
                plan.inter_op_total, plan.inter_op_compute
            ),
        ));
    }

    // LMA107: the step estimate is a max over six tasks, one of which is
    // compute — it can never be below the compute estimate.
    if plan.est_step_time < plan.est_compute_time - 1e-12 {
        out.push(Diagnostic::error(
            LintCode::Lma107StepBelowCompute,
            "plan".to_string(),
            format!(
                "est_step_time {} below est_compute_time {}",
                plan.est_step_time, plan.est_compute_time
            ),
        ));
    }

    Report::new(out)
}

/// Lint an offloading policy's placements against the platform memories.
pub fn lint_policy(
    policy: &Policy,
    model: &ModelConfig,
    workload: &Workload,
    platform: &Platform,
) -> Report {
    let mut out = Vec::new();

    // LMA108: field validity (fractions in range, placement coherent).
    if let Err(msg) = policy.validate() {
        out.push(Diagnostic::error(
            LintCode::Lma108InvalidPolicy,
            "policy".to_string(),
            msg,
        ));
        return Report::new(out);
    }

    // LMA109: pool capacities against the model footprint. The GPU keeps
    // a working reserve for in-flight layers; host memory takes the rest.
    let plan = memory_plan(model, workload, platform, policy);
    let gpu_cap = (platform.gpu.mem_capacity as f64 * (1.0 - GPU_WORKING_RESERVE)) as u64;
    if plan.gpu_bytes > gpu_cap {
        out.push(Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "policy".to_string(),
            format!(
                "GPU placement needs {} bytes but only {gpu_cap} usable \
                 ({}% working reserve held back)",
                plan.gpu_bytes,
                (GPU_WORKING_RESERVE * 100.0) as u32
            ),
        ));
    }
    if plan.cpu_bytes > platform.cpu.mem_capacity {
        out.push(Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "policy".to_string(),
            format!(
                "host placement needs {} bytes but the host has {}",
                plan.cpu_bytes, platform.cpu.mem_capacity
            ),
        ));
    }

    Report::new(out)
}

/// Lint operator bundling against the LLC: bundling exists to *avoid*
/// cache thrashing, so a bundle whose accumulated working set exceeds a
/// socket's last-level cache defeats the purpose (`LMA110`).
pub fn lint_bundles(graph: &OpGraph, min_flops: f64, platform: &Platform) -> Report {
    let mut out = Vec::new();
    let bundled = bundle_small_ops(graph, min_flops);
    let llc = platform.cpu.llc_bytes as f64;
    // Only merged groups are judged: a single operator larger than the
    // LLC is a property of the model, not of the bundling decision.
    let mut members = vec![0usize; bundled.graph.len()];
    for &m in &bundled.mapping {
        members[m] += 1;
    }
    for (u, node) in bundled.graph.nodes.iter().enumerate() {
        if members[u] >= 2 && node.bytes > llc {
            out.push(Diagnostic::warn(
                LintCode::Lma110BundleExceedsCache,
                format!("bundle {u} ({})", node.name),
                format!(
                    "{}-op bundle's working set {:.0} bytes exceeds the \
                     {llc:.0}-byte per-socket LLC",
                    members[u], node.bytes
                ),
            ));
        }
    }
    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_hardware::presets;
    use lm_models::presets as models;
    use lm_parallelism::attention_graph;

    fn derived() -> (ParallelismPlan, OpGraph, SearchConfig, Vec<TransferTask>) {
        let platform = presets::single_gpu_a100();
        let model = models::opt_30b();
        let workload = Workload::parallelism_study();
        let policy = Policy::flexgen_default();
        lm_offload_controller_stub::derive(&platform, &model, &workload, &policy)
    }

    // The real controller lives in `lm-offload`, which depends on this
    // crate's siblings but not on `lm-analyze`; tests rebuild the same
    // derivation inline to avoid a cyclic dev-dependency.
    mod lm_offload_controller_stub {
        use super::*;
        use lm_parallelism::{
            try_find_optimal_parallelism, CpuScalingModel, ProfileTable,
        };

        pub fn derive(
            platform: &Platform,
            model: &ModelConfig,
            workload: &Workload,
            _policy: &Policy,
        ) -> (ParallelismPlan, OpGraph, SearchConfig, Vec<TransferTask>) {
            let graph = attention_graph(
                workload.block_size(),
                workload.prompt_len + workload.gen_len / 2,
                model.hidden,
                7,
            );
            let scaling = CpuScalingModel::from_cpu(&platform.cpu);
            let profile = ProfileTable::synthesize(
                &graph,
                &scaling,
                20e9,
                12e9,
                platform.cpu.total_threads(),
            );
            let cfg = SearchConfig::for_platform(platform);
            let transfers = vec![
                TransferTask { name: "load_weight".into(), bytes: 550_000_000 },
                TransferTask { name: "load_cache".into(), bytes: 0 },
                TransferTask { name: "load_activation".into(), bytes: 9_000_000 },
                TransferTask { name: "store_cache".into(), bytes: 18_000_000 },
                TransferTask { name: "store_activation".into(), bytes: 9_000_000 },
            ];
            let plan = try_find_optimal_parallelism(&graph, &profile, &scaling, &cfg, &transfers)
                .expect("feasible");
            (plan, graph, cfg, transfers)
        }
    }

    #[test]
    fn searched_plan_is_clean() {
        let (plan, graph, cfg, transfers) = derived();
        let r = lint_plan(&plan, &graph, &cfg, &transfers);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn default_policy_is_clean_on_a100() {
        let r = lint_policy(
            &Policy::flexgen_default(),
            &models::opt_30b(),
            &Workload::parallelism_study(),
            &presets::single_gpu_a100(),
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn oversubscribed_plan_flagged() {
        let (mut plan, graph, cfg, transfers) = derived();
        plan.intra_op_compute = cfg.max_threads; // 7 * 112 threads
        let r = lint_plan(&plan, &graph, &cfg, &transfers);
        assert!(r.has(LintCode::Lma102ThreadBudgetExceeded), "{r}");
    }

    #[test]
    fn infeasible_policy_flagged() {
        let all_gpu = Policy {
            wg: 1.0,
            cg: 1.0,
            hg: 1.0,
            weights_dtype: lm_models::DType::F16,
            kv_dtype: lm_models::DType::F16,
            attention: lm_sim::AttentionPlacement::Gpu,
        };
        let r = lint_policy(
            &all_gpu,
            &models::opt_30b(),
            &Workload::motivation(),
            &presets::single_gpu_a100(),
        );
        assert!(r.has(LintCode::Lma109CapacityExceeded), "{r}");
    }
}
