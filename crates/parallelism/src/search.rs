//! Algorithm 3 — thread-level parallelism management.
//!
//! The search enumerates intra-op parallelism for the compute task, derives
//! inter-op parallelism from the Kahn max-concurrency of the compute
//! dependency graph, requires at least five free threads for the load/store
//! tasks, assigns those threads in proportion to transfer volume, and keeps
//! the setting with the best estimated throughput.

use crate::graph::OpGraph;
use crate::kahn::{analyze, makespan};
use crate::profile::ProfileTable;
use crate::scaling::CpuScalingModel;
use serde::{Deserialize, Serialize};

/// Number of load/store tasks in the decode loop (Algorithm 1):
/// load_weight, load_cache, load_activation, store_cache, store_activation.
pub const NUM_TRANSFER_TASKS: usize = 5;

/// One of the five transfer tasks with its per-step data volume.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferTask {
    pub name: String,
    pub bytes: u64,
}

/// Search configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Hardware threads to divide (`max_thrs` in Algorithm 3).
    pub max_threads: u32,
    /// Interconnect bandwidth available to each transfer task, B/s.
    pub link_bw: f64,
    /// Bytes/s one CPU thread can stage (pinning + memcpy path); a
    /// transfer task needs `link_bw / copy_bw_per_thread` threads to keep
    /// the link busy — this is why thread assignment matters.
    pub copy_bw_per_thread: f64,
}

impl SearchConfig {
    /// Defaults for the paper's single-GPU platform.
    pub fn for_platform(platform: &lm_hardware::Platform) -> Self {
        SearchConfig {
            max_threads: platform.cpu.total_threads(),
            link_bw: platform.h2d_bw(),
            copy_bw_per_thread: 3e9,
        }
    }
}

/// A complete parallelism setting with its cost estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelismPlan {
    /// Threads per compute operator.
    pub intra_op_compute: u32,
    /// Compute operators allowed to co-run (Kahn max concurrency).
    pub inter_op_compute: u32,
    /// Total inter-op parallelism: compute + the five transfer tasks.
    pub inter_op_total: u32,
    /// Threads granted to each transfer task, same order as the input.
    pub transfer_threads: Vec<u32>,
    /// Estimated compute-task time per decode step, seconds.
    pub est_compute_time: f64,
    /// Estimated per-step time: max over the six overlapped tasks.
    pub est_step_time: f64,
}

/// Estimate the time of one transfer task given its thread grant: the link
/// is the floor, but an under-threaded staging path can be the bottleneck.
pub fn transfer_time(cfg: &SearchConfig, bytes: u64, threads: u32) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let link = bytes as f64 / cfg.link_bw;
    let staging = bytes as f64 / (cfg.copy_bw_per_thread * threads.max(1) as f64);
    link.max(staging)
}

/// Largest-remainder proportional assignment of `free` threads to the
/// transfer tasks (each gets at least one).
pub fn assign_transfer_threads(free: u32, tasks: &[TransferTask]) -> Vec<u32> {
    let n = tasks.len() as u32;
    assert!(free >= n, "need at least one thread per transfer task");
    let total: f64 = tasks.iter().map(|t| t.bytes as f64).sum();
    if total == 0.0 {
        let mut out = vec![free / n; tasks.len()];
        out[0] += free % n;
        return out;
    }
    let extra = free - n;
    let shares: Vec<f64> = tasks
        .iter()
        .map(|t| extra as f64 * t.bytes as f64 / total)
        .collect();
    let mut grant: Vec<u32> = shares.iter().map(|s| 1 + s.floor() as u32).collect();
    let mut assigned: u32 = grant.iter().sum();
    // Hand out remainders largest-first.
    let mut rema: Vec<(usize, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, s)| (i, s - s.floor()))
        .collect();
    rema.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut k = 0;
    while assigned < free {
        grant[rema[k % rema.len()].0] += 1;
        assigned += 1;
        k += 1;
    }
    grant
}

/// Estimate the per-step decode time of an arbitrary thread setting
/// (used both inside the search and to score the PyTorch default for the
/// Fig. 8 comparison). The long explicit parameter list is intentional:
/// every argument is an independent axis Algorithm 3 sweeps.
#[allow(clippy::too_many_arguments)]
pub fn estimate_step_time(
    graph: &OpGraph,
    profile: &ProfileTable,
    model: &CpuScalingModel,
    cfg: &SearchConfig,
    transfers: &[TransferTask],
    intra_op: u32,
    inter_op: u32,
    transfer_threads: &[u32],
) -> (f64, f64) {
    // Inter-op workers beyond the graph's Kahn width never find a ready
    // operator, so the ops that actually co-run (and the threads actually
    // live) are width-capped — but the pool itself still costs
    // (`pool_penalty`): idle workers spread scheduling across sockets and
    // conflict in the caches (§4.1's two reasons for the >12 decline).
    let width = analyze(graph)
        .map(|a| a.max_concurrency().max(1) as u32)
        .unwrap_or(1);
    let effective_inter = inter_op.max(1).min(width);
    let corun = inter_op.min(effective_inter + NUM_TRANSFER_TASKS as u32);
    let requested = effective_inter * intra_op + transfer_threads.iter().sum::<u32>();
    let contention = model.oversubscription_factor(requested)
        * model.pool_penalty(inter_op)
        / model.corun_efficiency(corun);
    let times: Vec<f64> = profile
        .node_times(intra_op)
        .into_iter()
        .map(|t| t * contention)
        .collect();
    let compute = makespan(graph, &times, effective_inter as usize);
    let slowest_transfer = transfers
        .iter()
        .zip(transfer_threads)
        .map(|(t, &thr)| transfer_time(cfg, t.bytes, thr))
        .fold(0.0f64, f64::max);
    (compute, compute.max(slowest_transfer))
}

/// Why Algorithm 3 could not produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The transfer-task list does not match the decode loop's five
    /// load/store tasks.
    WrongTransferCount { got: usize },
    /// The compute graph has a cycle (node indices of the closed walk).
    CyclicGraph { cycle: Vec<usize> },
    /// `max_threads` leaves no room for compute plus the five reserved
    /// transfer threads, so the enumeration in line 3 is empty.
    NoFeasibleSetting { max_threads: u32 },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::WrongTransferCount { got } => write!(
                f,
                "expected {NUM_TRANSFER_TASKS} transfer tasks, got {got}"
            ),
            SearchError::CyclicGraph { cycle } => {
                write!(f, "compute graph must be acyclic, found cycle {cycle:?}")
            }
            SearchError::NoFeasibleSetting { max_threads } => write!(
                f,
                "no feasible parallelism setting: max_threads={max_threads} cannot cover \
                 compute plus {NUM_TRANSFER_TASKS} reserved transfer threads"
            ),
        }
    }
}

impl std::error::Error for SearchError {}

/// Algorithm 3: find the best parallelism setting for the six tasks.
/// Panicking wrapper over [`try_find_optimal_parallelism`] for callers
/// with known-good inputs.
pub fn find_optimal_parallelism(
    graph: &OpGraph,
    profile: &ProfileTable,
    model: &CpuScalingModel,
    cfg: &SearchConfig,
    transfers: &[TransferTask],
) -> ParallelismPlan {
    match try_find_optimal_parallelism(graph, profile, model, cfg, transfers) {
        Ok(plan) => plan,
        Err(SearchError::WrongTransferCount { got }) => panic!(
            "the decode loop has exactly five load/store tasks (got {got})"
        ),
        Err(SearchError::CyclicGraph { .. }) => panic!("compute graph must be acyclic"),
        Err(SearchError::NoFeasibleSetting { .. }) => {
            panic!("search space non-empty for max_threads > 5")
        }
    }
}

/// Fallible Algorithm 3 for configurations assembled from untrusted input
/// (CLI sweeps, deserialized platform specs).
pub fn try_find_optimal_parallelism(
    graph: &OpGraph,
    profile: &ProfileTable,
    model: &CpuScalingModel,
    cfg: &SearchConfig,
    transfers: &[TransferTask],
) -> Result<ParallelismPlan, SearchError> {
    if transfers.len() != NUM_TRANSFER_TASKS {
        return Err(SearchError::WrongTransferCount {
            got: transfers.len(),
        });
    }
    let Some(analysis) = analyze(graph) else {
        let cycle = crate::kahn::find_cycle(graph).unwrap_or_default();
        return Err(SearchError::CyclicGraph { cycle });
    };
    // Line 4: inter-op parallelism of the compute task = max concurrency.
    let inter_comp = analysis.max_concurrency().max(1) as u32;

    let mut best: Option<ParallelismPlan> = None;
    // Line 3: enumerate intra-op parallelism, bounded so ≥5 threads remain.
    for intra in 1..=cfg.max_threads.saturating_sub(NUM_TRANSFER_TASKS as u32) {
        let used = inter_comp.saturating_mul(intra);
        let Some(free) = cfg.max_threads.checked_sub(used) else {
            break;
        };
        // Lines 6-7: need at least five free threads for load/store tasks.
        if free < NUM_TRANSFER_TASKS as u32 {
            break;
        }
        // Line 9: transfer threads proportional to volume.
        let grant = assign_transfer_threads(free, transfers);
        // Line 10: estimate throughput from the profile + models.
        let (compute, step) = estimate_step_time(
            graph, profile, model, cfg, transfers, intra, inter_comp, &grant,
        );
        let plan = ParallelismPlan {
            intra_op_compute: intra,
            inter_op_compute: inter_comp,
            inter_op_total: inter_comp + NUM_TRANSFER_TASKS as u32,
            transfer_threads: grant,
            est_compute_time: compute,
            est_step_time: step,
        };
        // Lines 12-14: keep the best.
        let better = match &best {
            None => true,
            Some(b) => plan.est_step_time < b.est_step_time,
        };
        if better {
            best = Some(plan);
        }
    }
    best.ok_or(SearchError::NoFeasibleSetting {
        max_threads: cfg.max_threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::attention_graph;
    use lm_hardware::presets;
    use proptest::prelude::*;

    fn setup(head_groups: usize) -> (OpGraph, ProfileTable, CpuScalingModel, SearchConfig) {
        let platform = presets::single_gpu_a100();
        let g = attention_graph(640, 128, 7168, head_groups);
        let model = CpuScalingModel::from_cpu(&platform.cpu);
        let profile = ProfileTable::synthesize(&g, &model, 20e9, 12e9, platform.cpu.total_threads());
        let cfg = SearchConfig::for_platform(&platform);
        (g, profile, model, cfg)
    }

    fn transfers() -> Vec<TransferTask> {
        // Roughly the OPT-30B per-layer volumes (bytes).
        [
            ("load_weight", 550_000_000u64),
            ("load_cache", 0),
            ("load_activation", 9_000_000),
            ("store_cache", 18_000_000),
            ("store_activation", 9_000_000),
        ]
        .into_iter()
        .map(|(n, b)| TransferTask {
            name: n.to_string(),
            bytes: b,
        })
        .collect()
    }

    #[test]
    fn plan_matches_paper_shape() {
        // With 7 head groups the Kahn width is 7, so inter-op total = 12 —
        // exactly the setting §5.4 reports.
        let (g, p, m, cfg) = setup(7);
        let plan = find_optimal_parallelism(&g, &p, &m, &cfg, &transfers());
        assert_eq!(plan.inter_op_compute, 7);
        assert_eq!(plan.inter_op_total, 12);
        // Intra-op lands near the scaling knee, well below the 56 default.
        assert!(
            (4..=15).contains(&plan.intra_op_compute),
            "intra {}",
            plan.intra_op_compute
        );
        // 7·intra + Σtransfer ≤ 112.
        let used = 7 * plan.intra_op_compute + plan.transfer_threads.iter().sum::<u32>();
        assert!(used <= cfg.max_threads, "used {used}");
    }

    #[test]
    fn reserved_threads_for_transfers() {
        let (g, p, m, cfg) = setup(7);
        let plan = find_optimal_parallelism(&g, &p, &m, &cfg, &transfers());
        assert_eq!(plan.transfer_threads.len(), NUM_TRANSFER_TASKS);
        assert!(plan.transfer_threads.iter().all(|&t| t >= 1));
        // Largest volume (load_weight) gets the most threads.
        let max = plan.transfer_threads.iter().max().unwrap();
        assert_eq!(plan.transfer_threads[0], *max);
    }

    #[test]
    fn plan_beats_pytorch_default() {
        let (g, p, m, cfg) = setup(7);
        let ts = transfers();
        let plan = find_optimal_parallelism(&g, &p, &m, &cfg, &ts);
        // The PyTorch default: 112 inter-op, 56 intra-op, transfers get one
        // thread each (they are just more ops in the pool).
        let (_, default_step) =
            estimate_step_time(&g, &p, &m, &cfg, &ts, 56, 112, &[1, 1, 1, 1, 1]);
        assert!(
            plan.est_step_time < default_step,
            "tuned {} vs default {}",
            plan.est_step_time,
            default_step
        );
        // Paper: 38% end-to-end reduction; require a meaningful gap.
        assert!(plan.est_step_time < default_step * 0.85);
    }

    #[test]
    fn proportional_assignment_properties() {
        let ts = transfers();
        let grant = assign_transfer_threads(20, &ts);
        assert_eq!(grant.iter().sum::<u32>(), 20);
        assert!(grant.iter().all(|&g| g >= 1));
        // Volume order is respected.
        assert!(grant[0] >= grant[3] && grant[3] >= grant[1]);
    }

    #[test]
    fn zero_volume_assignment_splits_evenly() {
        let ts: Vec<TransferTask> = (0..5)
            .map(|i| TransferTask {
                name: format!("t{i}"),
                bytes: 0,
            })
            .collect();
        let grant = assign_transfer_threads(7, &ts);
        assert_eq!(grant.iter().sum::<u32>(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one thread per transfer task")]
    fn insufficient_free_threads_rejected() {
        assign_transfer_threads(3, &transfers());
    }

    #[test]
    fn try_search_reports_structured_errors() {
        let (g, p, m, cfg) = setup(3);
        // Wrong transfer count.
        let err = try_find_optimal_parallelism(&g, &p, &m, &cfg, &[]).unwrap_err();
        assert_eq!(err, SearchError::WrongTransferCount { got: 0 });
        // Too few threads for compute + 5 reserved transfer threads.
        let tiny = SearchConfig {
            max_threads: 5,
            ..cfg.clone()
        };
        let err = try_find_optimal_parallelism(&g, &p, &m, &tiny, &transfers()).unwrap_err();
        assert_eq!(err, SearchError::NoFeasibleSetting { max_threads: 5 });
        assert!(err.to_string().contains("max_threads=5"), "{err}");
        // Cyclic compute graph carries the witness cycle.
        let mut cyclic = g.clone();
        let last = cyclic.len() - 1;
        cyclic.depend(last, 0);
        let err =
            try_find_optimal_parallelism(&cyclic, &p, &m, &cfg, &transfers()).unwrap_err();
        match err {
            SearchError::CyclicGraph { cycle } => assert!(!cycle.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // Good inputs agree with the panicking entry point.
        let a = try_find_optimal_parallelism(&g, &p, &m, &cfg, &transfers()).unwrap();
        let b = find_optimal_parallelism(&g, &p, &m, &cfg, &transfers());
        assert_eq!(a.intra_op_compute, b.intra_op_compute);
        assert_eq!(a.inter_op_total, b.inter_op_total);
    }

    proptest! {
        /// Line 9's grant, for any volumes and any free-thread count: all
        /// free threads handed out, none starved, and strictly more bytes
        /// never get strictly fewer threads.
        #[test]
        fn prop_transfer_grants_follow_volume(
            free in 5u32..200,
            volumes in collection::vec(0u64..4_000_000_000, 5..6),
        ) {
            let tasks: Vec<TransferTask> = volumes
                .iter()
                .map(|&bytes| TransferTask { name: String::new(), bytes })
                .collect();
            let grant = assign_transfer_threads(free, &tasks);
            prop_assert_eq!(grant.iter().sum::<u32>(), free);
            prop_assert!(grant.iter().all(|&g| g >= 1), "{grant:?}");
            for (i, a) in volumes.iter().enumerate() {
                for (j, b) in volumes.iter().enumerate() {
                    prop_assert!(a <= b || grant[i] >= grant[j], "{volumes:?} -> {grant:?}");
                }
            }
        }

        /// Algorithm 3 builds its rules into every plan it returns —
        /// inter-op = the Kahn width, `inter·intra + Σ transfer` within
        /// the budget, `inter_op_total` = inter-op + 5, the step = max of
        /// compute and the slowest transfer — and refuses exactly when the
        /// budget cannot cover the width plus five transfer threads.
        #[test]
        fn prop_search_builds_algorithm_3_rules_or_refuses(
            groups in 1usize..9,
            max_threads in 1u32..64,
            load_weight in 0u64..2_000_000_000,
        ) {
            let (g, p, m, base) = setup(groups);
            let cfg = SearchConfig { max_threads, ..base };
            let mut ts = transfers();
            ts[0].bytes = load_weight;
            let width = analyze(&g).unwrap().max_concurrency() as u32;
            match try_find_optimal_parallelism(&g, &p, &m, &cfg, &ts) {
                Ok(plan) => {
                    prop_assert_eq!(plan.inter_op_compute, width);
                    prop_assert_eq!(plan.inter_op_total, width + NUM_TRANSFER_TASKS as u32);
                    prop_assert_eq!(plan.transfer_threads.len(), NUM_TRANSFER_TASKS);
                    let transfer: u32 = plan.transfer_threads.iter().sum();
                    prop_assert!(width * plan.intra_op_compute + transfer <= max_threads);
                    let slowest = ts
                        .iter()
                        .zip(&plan.transfer_threads)
                        .map(|(t, &thr)| transfer_time(&cfg, t.bytes, thr))
                        .fold(0.0f64, f64::max);
                    prop_assert_eq!(plan.est_step_time, plan.est_compute_time.max(slowest));
                }
                Err(err) => {
                    prop_assert!(max_threads < width + NUM_TRANSFER_TASKS as u32, "{err}");
                    prop_assert_eq!(err, SearchError::NoFeasibleSetting { max_threads });
                }
            }
        }
    }

    #[test]
    fn transfer_time_thread_sensitivity() {
        let cfg = SearchConfig {
            max_threads: 112,
            link_bw: 8e9,
            copy_bw_per_thread: 3e9,
        };
        // 1 thread can stage 3 GB/s < link 8 GB/s -> staging-bound.
        let one = transfer_time(&cfg, 8_000_000_000, 1);
        let three = transfer_time(&cfg, 8_000_000_000, 3);
        assert!(one > three);
        // Beyond saturation more threads do not help.
        let ten = transfer_time(&cfg, 8_000_000_000, 10);
        assert!((three - ten).abs() / ten < 0.15);
        assert_eq!(transfer_time(&cfg, 0, 1), 0.0);
    }
}
