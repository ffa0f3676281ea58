//! `LMA1xx` — an offloading policy's placements against the platform
//! memories (§3), and operator bundling against the LLC. What Algorithm 3
//! builds into its plan (§4: inter-op = the Kahn width, five threads held
//! for load/store, volume-proportional transfer grants) is not re-checked
//! here: `try_find_optimal_parallelism` constructs those or refuses.

use crate::diag::{Diagnostic, LintCode, Report};
use lm_hardware::Platform;
use lm_models::{ModelConfig, Workload};
use lm_parallelism::{bundle_small_ops, OpGraph};
use lm_sim::policy::GPU_WORKING_RESERVE;
use lm_sim::{memory_plan, Policy};

/// FLOP threshold below which operators are bundling candidates (the
/// value `examples/parallelism_tuner.rs` bundles with).
pub const BUNDLE_MIN_FLOPS: f64 = 1e7;

/// Lint an offloading policy's placements against the platform memories.
/// The policy is one that prices: `BaseCostModel::new` refuses an invalid
/// one before a shipped caller gets here.
pub fn lint_policy(
    policy: &Policy,
    model: &ModelConfig,
    workload: &Workload,
    platform: &Platform,
) -> Report {
    let mut out = Vec::new();

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
    use lm_parallelism::{
        attention_graph, try_find_optimal_parallelism, CpuScalingModel, ParallelismPlan,
        ProfileTable, SearchConfig, SearchError, TransferTask,
    };

    /// Algorithm 3 on the OPT-30B parallelism-study attention graph (Kahn
    /// width 7) with `max_threads` hardware threads. The controller that
    /// does this lives in `lm-offload`, which this crate cannot depend on.
    fn search(max_threads: u32) -> Result<ParallelismPlan, SearchError> {
        let platform = presets::single_gpu_a100();
        let workload = Workload::parallelism_study();
        let graph = attention_graph(
            workload.block_size(),
            workload.prompt_len + workload.gen_len / 2,
            models::opt_30b().hidden,
            7,
        );
        let scaling = CpuScalingModel::from_cpu(&platform.cpu);
        let profile =
            ProfileTable::synthesize(&graph, &scaling, 20e9, 12e9, platform.cpu.total_threads());
        let cfg = SearchConfig {
            max_threads,
            ..SearchConfig::for_platform(&platform)
        };
        let transfers: Vec<TransferTask> = [550_000_000, 0, 9_000_000, 18_000_000, 9_000_000]
            .into_iter()
            .enumerate()
            .map(|(i, bytes)| TransferTask {
                name: format!("t{i}"),
                bytes,
            })
            .collect();
        try_find_optimal_parallelism(&graph, &profile, &scaling, &cfg, &transfers)
    }

    #[test]
    fn searched_plan_is_clean() {
        let threads = presets::single_gpu_a100().cpu.total_threads();
        let plan = search(threads).unwrap();
        let used = plan.inter_op_compute * plan.intra_op_compute
            + plan.transfer_threads.iter().sum::<u32>();
        assert!(
            used <= threads,
            "{used} threads > budget {threads}: {plan:?}"
        );
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

    /// Below compute + five transfer threads the search has no setting to
    /// offer, and says so instead of returning an oversubscribed plan.
    #[test]
    fn oversubscribed_plan_flagged() {
        assert!(search(7 + 5).is_ok());
        assert_eq!(
            search(7 + 4).unwrap_err(),
            SearchError::NoFeasibleSetting { max_threads: 11 }
        );
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
