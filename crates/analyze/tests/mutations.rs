//! Mutation coverage: every stable lint code has a seeded defect that
//! provably fires it — the analyzer's own regression harness, as one
//! table. Each row starts from a known-clean artifact (default policy,
//! shipped attention graph, a sound serve-side probe), injects exactly
//! one defect, and returns the report before and after; one assertion
//! judges every row, and the table's code set must equal
//! `LintCode::ALL`.
//!
//! Beside it, one row per retired code keeps that code's test name and
//! asserts the guarantee that retired it, in the code that now rules the
//! defect out: the graph builders and `try_depend` (`LMA0xx`), Algorithm
//! 3's search (`LMA101`–`LMA107`), `Policy::validate` (`LMA108`), the
//! cost model (`LMA20x`) and the sweep lattices (`LMA290`).

#![allow(clippy::unwrap_used)]

use lm_analyze::{
    analyze_deployment, lint_async, lint_bundles, lint_obs, lint_paging, lint_policy, lint_serve,
    lint_slo, lint_verify, AsyncProbe, Deployment, LintCode, ObsProbe, PagingProbe, Report,
    ServeProbe, SloProbe, UnsoundnessWitness, VerifyProbe, BUNDLE_MIN_FLOPS,
};
use lm_hardware::{presets, Platform};
use lm_models::{footprint, presets as models, DType, ModelConfig, Workload};
use lm_parallelism::{
    attention_block_graph, attention_graph, kahn, transfer_time, try_find_optimal_parallelism,
    CpuScalingModel, ExecError, Executor, GraphError, OpGraph, OpKind, ParallelismPlan,
    ProfileTable, SearchConfig, SearchError, TransferTask, NUM_TRANSFER_TASKS,
};
use lm_sim::{t_gen, AttentionPlacement, BaseCostModel, CostProvider, Policy, TaskKind};
use lm_verify::{SweepDepth, CONFIGS_FLOOR};

struct Fixture {
    platform: Platform,
    model: ModelConfig,
    workload: Workload,
    policy: Policy,
    graph: OpGraph,
}

fn fixture() -> Fixture {
    let platform = presets::single_gpu_a100();
    let model = models::opt_30b();
    let workload = Workload::parallelism_study();
    let graph = attention_graph(
        workload.block_size(),
        workload.prompt_len + workload.gen_len / 2,
        model.hidden,
        7,
    );
    Fixture {
        platform,
        model,
        workload,
        policy: Policy::flexgen_default(),
        graph,
    }
}

/// A seeded defect: the family's report on the clean artifact and on the
/// same artifact with exactly one thing broken.
type Mutate = fn(&Fixture) -> (Report, Report);

/// Run `code`'s row of [`MUTATIONS`]: the code must appear after the
/// seeded defect and must not before it (proving the row observes the
/// mutation, not noise).
fn assert_fires(code: LintCode) {
    let rows: Vec<_> = MUTATIONS.iter().filter(|row| row.0 == code).collect();
    assert_eq!(
        rows.len(),
        1,
        "exactly one mutation row for {}",
        code.as_str()
    );
    let (clean, mutated) = (rows[0].1)(&fixture());
    assert!(
        !clean.has(code),
        "{} already present before mutation:\n{clean}",
        code.as_str()
    );
    assert!(
        mutated.has(code),
        "{} did not fire on the seeded defect:\n{mutated}",
        code.as_str()
    );
}

/// Declares the table. Each `name: Code => mutation` row is one entry of
/// [`MUTATIONS`] and one `#[test]` of that name running [`assert_fires`]
/// on it, so a failure names the code it belongs to.
macro_rules! mutations {
    ($($name:ident: $code:ident => $mutate:expr,)+) => {
        const MUTATIONS: &[(LintCode, Mutate)] = &[$((LintCode::$code, $mutate),)+];
        $(
            #[test]
            fn $name() {
                assert_fires(LintCode::$code);
            }
        )+
    };
}

/// Lint `probe` as is and with `defect` applied to a copy.
fn probed<P: Clone>(probe: P, lint: fn(&P) -> Report, defect: fn(&mut P)) -> (Report, Report) {
    let mut broken = probe.clone();
    defect(&mut broken);
    (lint(&probe), lint(&broken))
}

fn serve(defect: fn(&mut ServeProbe)) -> (Report, Report) {
    let sound = ServeProbe {
        slots: 6,
        kv_bytes_per_slot: 4 << 20,
        kv_pool_bytes: 32 << 20,
    };
    probed(sound, lint_serve, defect)
}

fn slo(defect: fn(&mut SloProbe)) -> (Report, Report) {
    let sound = SloProbe {
        ttft_p99_slo_s: 300.0,
        floor_ttft_s: 20.0,
        slots: 8,
        enforce: true,
    };
    probed(sound, lint_slo, defect)
}

fn obs(defect: fn(&mut ObsProbe)) -> (Report, Report) {
    let sound = ObsProbe {
        slo_enforce: true,
        ttft_histogram_registered: true,
        flight_enabled: true,
        flight_capacity: 256,
        chaos_faults_armed: true,
    };
    probed(sound, lint_obs, defect)
}

fn paging(defect: fn(&mut PagingProbe)) -> (Report, Report) {
    let sound = PagingProbe {
        page_tokens: 16,
        page_bytes: 16 * 2048,
        bytes_per_token: 2048,
        kv_block_tokens: 512,
        pages_total: 256,
    };
    probed(sound, lint_paging, defect)
}

fn verify(defect: fn(&mut VerifyProbe)) -> (Report, Report) {
    let sound = VerifyProbe {
        unsoundness_witnesses: Vec::new(),
        declared_transitions: vec!["admit/fresh".into(), "append/new-page".into()],
        exercised_transitions: vec!["admit/fresh".into(), "append/new-page".into()],
        interleavings: 12_000,
    };
    probed(sound, lint_verify, defect)
}

fn asynch(defect: fn(&mut AsyncProbe)) -> (Report, Report) {
    let sound = AsyncProbe {
        channel_capacity: 32,
        time_scale: 1.0,
    };
    probed(sound, lint_async, defect)
}

mutations! {
    lma109_footprint_over_capacity: Lma109CapacityExceeded => |f| {
        let all_gpu = Policy {
            wg: 1.0,
            cg: 1.0,
            hg: 1.0,
            weights_dtype: DType::F16,
            kv_dtype: DType::F16,
            attention: AttentionPlacement::Gpu,
        };
        (
            lint_policy(&f.policy, &f.model, &f.workload, &f.platform),
            lint_policy(&all_gpu, &f.model, &Workload::motivation(), &f.platform),
        )
    },
    // A chain of ops each holding 70% of the LLC: left unbundled they
    // stream through the cache one at a time, but an over-eager bundling
    // threshold merges them into one cache-thrashing super-operator.
    lma110_bundle_blows_the_llc: Lma110BundleExceedsCache => |f| {
        let mut g = OpGraph::new();
        let llc = f.platform.cpu.llc_bytes as f64;
        let a = g.add("tiny_a", OpKind::Elementwise, 1.0, llc * 0.7);
        let b = g.add("tiny_b", OpKind::Elementwise, 1.0, llc * 0.7);
        g.depend(a, b);
        (
            lint_bundles(&g, 0.5, &f.platform), // below both: no merge
            lint_bundles(&g, BUNDLE_MIN_FLOPS, &f.platform), // merges the chain
        )
    },
    lma250_slots_oversubscribe_pool: Lma250SlotsExceedPool => |_| serve(|p| p.slots = 9),
    lma260_objective_below_the_floor: Lma260SloBelowFloor => |_| slo(|p| {
        p.ttft_p99_slo_s = p.floor_ttft_s / 2.0;
    }),
    lma262_preemption_on_a_single_slot: Lma262PreemptSingleSlot => |_| slo(|p| p.slots = 1),
    lma270_enforcement_without_ttft_histogram: Lma270SloWithoutTtftHistogram => |_| obs(|p| {
        p.ttft_histogram_registered = false;
    }),
    lma271_armed_flight_recorder_with_zero_capacity: Lma271FlightRecorderZeroCapacity => |_| {
        obs(|p| p.flight_capacity = 0)
    },
    lma280_page_does_not_tile_kv_block: Lma280PageGeometryInvalid => |_| paging(|p| {
        p.kv_block_tokens = 500; // 500 % 16 != 0
    }),
    lma291_lint_passed_where_ground_truth_failed: Lma291LintUnsoundnessWitness => |_| verify(|p| {
        p.unsoundness_witnesses.push(UnsoundnessWitness {
            config: "opt-30b/pool=8GiB/page=16/slo=none/ladder=flat".into(),
            invariant: "pool_capacity".into(),
            detail: "admission granted 257 of 256 pages".into(),
        });
    }),
    lma292_declared_transition_never_exercised: Lma292UncheckedProtocolTransition => |_| {
        verify(|p| p.exercised_transitions.retain(|t| t != "append/new-page"))
    },
    lma300_zero_capacity_token_channel: Lma300AsyncZeroChannelCapacity => |_| asynch(|p| {
        p.channel_capacity = 0;
    }),
    lma302_degenerate_time_scale: Lma302AsyncBadTimeScale => |_| asynch(|p| {
        p.time_scale = f64::NAN;
    }),
}

/// Declares the retired codes' rows. Each `name: "LMAnnn" => guarantee`
/// row is one `#[test]` of that name asserting the guarantee that retired
/// the code (DESIGN.md §10), and one entry of [`RETIRED`].
macro_rules! retired {
    ($($name:ident: $code:literal => $guarantee:expr,)+) => {
        const RETIRED: &[&str] = &[$($code,)+];
        $(
            #[test]
            fn $name() {
                let guarantee: fn() = $guarantee;
                guarantee();
            }
        )+
    };
}

/// The shipped graph builders over shapes from one token to the paper's
/// block, one head group to seven.
fn shipped_graphs() -> Vec<OpGraph> {
    let mut graphs = Vec::new();
    for (batch, seq, hidden) in [(1, 1, 64), (64, 128, 512), (640, 1024, 7168)] {
        for groups in [1, 3, 7] {
            graphs.push(attention_graph(batch, seq, hidden, groups));
            graphs.push(attention_block_graph(batch, 4, seq, hidden, groups));
        }
    }
    graphs
}

/// Algorithm 3's inputs for `graph` on `platform`, as the controller
/// builds them.
fn search_inputs(
    platform: &Platform,
    graph: &OpGraph,
) -> (ProfileTable, CpuScalingModel, SearchConfig) {
    let scaling = CpuScalingModel::from_cpu(&platform.cpu);
    let profile =
        ProfileTable::synthesize(graph, &scaling, 20e9, 12e9, platform.cpu.total_threads());
    (profile, scaling, SearchConfig::for_platform(platform))
}

/// Transfer tasks moving `bytes` each.
fn tasks(bytes: &[u64]) -> Vec<TransferTask> {
    bytes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| TransferTask {
            name: format!("t{i}"),
            bytes,
        })
        .collect()
}

/// One plan Algorithm 3 searched, with what it was searched for.
struct Searched {
    graph: OpGraph,
    cfg: SearchConfig,
    transfers: Vec<TransferTask>,
    plan: ParallelismPlan,
}

/// Algorithm 3 over every platform preset × attention graphs of one to
/// seven head groups × transfer volumes (OPT-30B-like, all zero,
/// ascending). The search refuses none of them.
fn searched_plans() -> Vec<Searched> {
    let volumes: [[u64; NUM_TRANSFER_TASKS]; 3] = [
        [550_000_000, 0, 9_000_000, 18_000_000, 9_000_000],
        [0; NUM_TRANSFER_TASKS],
        [1 << 20, 2 << 20, 3 << 20, 4 << 20, 5 << 20],
    ];
    let platforms = [
        presets::single_gpu_a100(),
        presets::multi_gpu_v100(1),
        presets::multi_gpu_v100(4),
        presets::test_platform(),
    ];
    let mut out = Vec::new();
    for platform in &platforms {
        for groups in [1, 3, 7] {
            let graph = attention_graph(64, 128, 7168, groups);
            let (profile, scaling, cfg) = search_inputs(platform, &graph);
            for bytes in volumes {
                let transfers = tasks(&bytes);
                let plan =
                    try_find_optimal_parallelism(&graph, &profile, &scaling, &cfg, &transfers)
                        .unwrap_or_else(|e| panic!("{}, {groups} groups: {e}", platform.name));
                out.push(Searched {
                    graph: graph.clone(),
                    cfg: cfg.clone(),
                    transfers,
                    plan,
                });
            }
        }
    }
    out
}

/// The cost model's decode steps over three models × both shipped
/// workloads × FlexGen's policy, a quantised one and GPU attention, at
/// the first, middle and last token.
fn priced_steps(check: impl Fn(&BaseCostModel, &Platform, u64, u64)) {
    let platform = presets::single_gpu_a100();
    let quantised = Policy {
        weights_dtype: DType::Int4,
        kv_dtype: DType::Int8,
        ..Policy::flexgen_default()
    };
    let gpu_attention = Policy {
        attention: AttentionPlacement::Gpu,
        cg: 0.5,
        ..Policy::flexgen_default()
    };
    for model in [models::opt_13b(), models::opt_30b(), models::opt_66b()] {
        for workload in [Workload::parallelism_study(), Workload::motivation()] {
            for policy in [Policy::flexgen_default(), quantised, gpu_attention] {
                let base = BaseCostModel::new(&platform, &model, &workload, policy);
                for token in [0, workload.gen_len / 2, workload.gen_len - 1] {
                    check(&base, &platform, token, workload.num_batches);
                }
            }
        }
    }
}

retired! {
    lma001_back_edge_makes_cycle: "LMA001" => || {
        let f = fixture();
        let mut g = f.graph.clone();
        let last = g.len() - 1;
        g.depend(last, 0);
        let (profile, scaling, cfg) = search_inputs(&f.platform, &g);
        match try_find_optimal_parallelism(&g, &profile, &scaling, &cfg, &tasks(&[1; 5])) {
            Err(SearchError::CyclicGraph { cycle }) => assert!(!cycle.is_empty()),
            other => panic!("cyclic graph searched: {other:?}"),
        }
        let run = Executor::new(2, 1).try_run(&g, |_, _| {});
        assert!(matches!(run, Err(ExecError::CyclicGraph { .. })), "{run:?}");
    },
    lma002_isolated_node: "LMA002" => || {
        for g in shipped_graphs() {
            let degrees = g.in_degrees();
            for (u, node) in g.nodes.iter().enumerate() {
                assert!(degrees[u] > 0 || !g.edges[u].is_empty(), "{} is isolated", node.name);
            }
        }
    },
    lma003_duplicate_edge: "LMA003" => || {
        let mut g = fixture().graph;
        let to = g.edges[0][0];
        let before = g.edges.clone();
        assert_eq!(g.try_depend(0, to), Ok(()));
        assert_eq!(g.edges, before, "a repeated edge is recorded once");
    },
    lma004_zero_cost_compute_node: "LMA004" => || {
        for g in shipped_graphs() {
            for node in &g.nodes {
                if matches!(node.kind, OpKind::Addmm | OpKind::Bmm | OpKind::Softmax) {
                    assert!(node.flops > 0.0, "{} carries no FLOPs", node.name);
                }
            }
        }
    },
    lma005_edge_out_of_bounds: "LMA005" => || {
        let mut g = fixture().graph;
        let len = g.len();
        let err = g.try_depend(0, len + 3);
        assert_eq!(err, Err(GraphError::IndexOutOfBounds { from: 0, to: len + 3, len }));
    },
    lma006_self_edge: "LMA006" => || {
        let mut g = fixture().graph;
        assert_eq!(g.try_depend(2, 2), Err(GraphError::SelfEdge(2)));
    },
    // `OpKind` has no transfer kind: transfers are Algorithm 3's five
    // tasks, never graph nodes. The match is exhaustive, so a kind added
    // later has to be placed here.
    lma007_transfer_in_compute_wavefront: "LMA007" => || {
        for g in shipped_graphs() {
            for node in &g.nodes {
                match node.kind {
                    OpKind::Addmm | OpKind::Bmm | OpKind::Softmax => {}
                    OpKind::Concat | OpKind::Elementwise => {}
                }
            }
        }
    },
    lma101_inter_op_beyond_width: "LMA101" => || {
        for s in searched_plans() {
            let width = kahn::analyze(&s.graph).unwrap().max_concurrency().max(1) as u32;
            assert_eq!(s.plan.inter_op_compute, width);
        }
    },
    lma102_thread_budget_blown: "LMA102" => || {
        for s in searched_plans() {
            let p = &s.plan;
            let transfer: u32 = p.transfer_threads.iter().sum();
            let used = p.inter_op_compute * p.intra_op_compute + transfer;
            assert!(used <= s.cfg.max_threads, "{used} > {}: {p:?}", s.cfg.max_threads);
        }
    },
    lma103_truncated_transfer_vector: "LMA103" => || {
        for s in searched_plans() {
            assert_eq!(s.plan.transfer_threads.len(), NUM_TRANSFER_TASKS);
        }
        let f = fixture();
        let (profile, scaling, cfg) = search_inputs(&f.platform, &f.graph);
        let err = try_find_optimal_parallelism(&f.graph, &profile, &scaling, &cfg, &tasks(&[1; 4]));
        assert_eq!(err.unwrap_err(), SearchError::WrongTransferCount { got: 4 });
    },
    lma104_starved_transfer_task: "LMA104" => || {
        for s in searched_plans() {
            assert!(s.plan.transfer_threads.iter().all(|&t| t >= 1), "{:?}", s.plan);
        }
    },
    lma105_inverted_transfer_grant: "LMA105" => || {
        for s in searched_plans() {
            let grants = s.transfers.iter().zip(&s.plan.transfer_threads);
            for (a, &ta) in grants.clone() {
                for (b, &tb) in grants.clone() {
                    assert!(a.bytes <= b.bytes || ta >= tb, "{:?} vs {:?}: {:?}", a, b, s.plan);
                }
            }
        }
    },
    lma106_total_bookkeeping_broken: "LMA106" => || {
        for s in searched_plans() {
            assert_eq!(s.plan.inter_op_total, s.plan.inter_op_compute + NUM_TRANSFER_TASKS as u32);
        }
    },
    lma107_step_below_compute: "LMA107" => || {
        for s in searched_plans() {
            let p = &s.plan;
            let slowest = s
                .transfers
                .iter()
                .zip(&p.transfer_threads)
                .map(|(t, &threads)| transfer_time(&s.cfg, t.bytes, threads))
                .fold(0.0f64, f64::max);
            assert_eq!(p.est_step_time, p.est_compute_time.max(slowest), "{p:?}");
        }
    },
    lma108_invalid_policy_fraction: "LMA108" => || {
        let policy = Policy::flexgen_default();
        assert_eq!(policy.validate(), Ok(()));
        assert!(Policy { wg: 1.5, ..policy }.validate().is_err());
    },
    lma201_millisecond_units_slip: "LMA201" => || {
        priced_steps(|base, platform, token, _| {
            let moved = base.tasks(token)[TaskKind::LoadWeight] * platform.h2d_bw();
            assert!(moved >= base.weight_bytes_per_layer() as f64 * 0.99, "token {token}");
        });
    },
    // Eq. 2's second body, independent of `StepLoad::time`: loads share
    // the H2D link, stores the D2H link, and `T_gen` is the largest of
    // the four resources' totals over the batches.
    lma202_tgen_not_the_max: "LMA202" => || {
        priced_steps(|base, _, token, batches| {
            let t = base.tasks(token);
            let nb = batches as f64;
            let h2d = t[TaskKind::LoadWeight]
                + nb * (t[TaskKind::LoadCache] + t[TaskKind::LoadActivation]);
            let d2h = nb * (t[TaskKind::StoreCache] + t[TaskKind::StoreActivation]);
            let cpu = nb * t[TaskKind::ComputeCpu];
            let gpu = nb * t[TaskKind::ComputeGpu];
            let expected = h2d.max(d2h).max(cpu).max(gpu);
            let got = t_gen(base, token, batches);
            let off = (got - expected).abs();
            assert!(off <= expected * 1e-9, "token {token}: {got} != {expected}");
        });
    },
    lma203_quantized_footprint_grew: "LMA203" => || {
        for model in models::all_presets() {
            let workload = Workload::parallelism_study();
            for dtype in [DType::Int8, DType::Int4] {
                let weights = footprint::weights_bytes(&model, dtype);
                assert!(weights <= footprint::weights_bytes(&model, DType::F16), "{}", model.name);
                let kv = footprint::kv_cache_bytes_peak(&model, &workload, dtype);
                let kv_f16 = footprint::kv_cache_bytes_peak(&model, &workload, DType::F16);
                assert!(kv <= kv_f16, "{} {dtype:?}", model.name);
            }
        }
    },
    lma204_nan_in_probe: "LMA204" => || {
        priced_steps(|base, _, token, batches| {
            let t = base.tasks(token);
            for kind in TaskKind::ALL {
                assert!(t[kind].is_finite() && t[kind] >= 0.0, "{kind:?} at {token}: {}", t[kind]);
            }
            let total = t_gen(base, token, batches);
            assert!(total.is_finite() && total > 0.0, "T_gen at {token}: {total}");
        });
    },
    lma290_sweep_axis_collapsed_to_a_point: "LMA290" => || {
        for depth in [SweepDepth::Quick, SweepDepth::Full] {
            let axes = depth.axes();
            assert!(axes.iter().all(|&(_, n)| n >= 2), "{depth:?}: {axes:?}");
            let points: u64 = axes.iter().map(|&(_, n)| n).product();
            assert!(points >= CONFIGS_FLOOR, "{depth:?}: {points} points");
        }
    },
}

/// The table is the registry: a code added to `lint_codes!` without a
/// row here, a row for a code that no longer exists, or two rows for one
/// code all fail this comparison. A retired code keeps its row only in
/// [`RETIRED`].
#[test]
fn every_shipped_code_has_mutation_coverage() {
    let covered: Vec<LintCode> = MUTATIONS.iter().map(|&(code, _)| code).collect();
    assert_eq!(
        covered,
        LintCode::ALL,
        "one mutation row per code, in registry order"
    );
    for code in LintCode::ALL {
        assert!(
            !RETIRED.contains(&code.as_str()),
            "{} is shipped and retired",
            code.as_str()
        );
    }
}

#[test]
fn baseline_deployment_is_clean() {
    let f = fixture();
    let report = analyze_deployment(&Deployment {
        platform: &f.platform,
        model: &f.model,
        workload: &f.workload,
        policy: &f.policy,
        graph: &f.graph,
    });
    assert!(report.is_clean(), "{report}");
}
