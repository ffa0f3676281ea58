//! Mutation coverage: every stable lint code has a seeded defect that
//! provably fires it — the analyzer's own regression harness, as one
//! table. Each row starts from a known-clean artifact (shipped graph,
//! searched plan, default policy, live model probe, a sound serve-side
//! probe), injects exactly one defect, and returns the report before
//! and after; one assertion judges every row, and the table's code set
//! must equal `LintCode::ALL`.

#![allow(clippy::unwrap_used)]

use lm_analyze::{
    analyze_deployment, lint_bundles, lint_graph, lint_model, lint_obs, lint_paging, lint_plan,
    lint_async, lint_policy, lint_serve, lint_slo, lint_verify, AsyncProbe, Deployment, LintCode,
    ModelProbe, ObsProbe, PagingProbe, Report, ServeProbe, SloProbe, UnsoundnessWitness,
    VerifyProbe,
};
use lm_hardware::{presets, Platform};
use lm_models::{presets as models, DType, ModelConfig, Workload};
use lm_parallelism::{
    attention_graph, try_find_optimal_parallelism, CpuScalingModel, OpGraph, OpKind,
    ParallelismPlan, ProfileTable, SearchConfig, TransferTask,
};
use lm_sim::{AttentionPlacement, Policy};

struct Fixture {
    platform: Platform,
    model: ModelConfig,
    workload: Workload,
    policy: Policy,
    graph: OpGraph,
    cfg: SearchConfig,
    plan: ParallelismPlan,
    transfers: Vec<TransferTask>,
}

fn fixture() -> Fixture {
    let platform = presets::single_gpu_a100();
    let model = models::opt_30b();
    let workload = Workload::parallelism_study();
    let policy = Policy::flexgen_default();
    let graph = attention_graph(
        workload.block_size(),
        workload.prompt_len + workload.gen_len / 2,
        model.hidden,
        7,
    );
    let scaling = CpuScalingModel::from_cpu(&platform.cpu);
    let profile = ProfileTable::synthesize(&graph, &scaling, 20e9, 12e9, platform.cpu.total_threads());
    let cfg = SearchConfig::for_platform(&platform);
    let transfers = vec![
        TransferTask { name: "load_weight".into(), bytes: 550_000_000 },
        TransferTask { name: "load_cache".into(), bytes: 0 },
        TransferTask { name: "load_activation".into(), bytes: 9_000_000 },
        TransferTask { name: "store_cache".into(), bytes: 18_000_000 },
        TransferTask { name: "store_activation".into(), bytes: 9_000_000 },
    ];
    let plan = try_find_optimal_parallelism(&graph, &profile, &scaling, &cfg, &transfers).unwrap();
    Fixture {
        platform,
        model,
        workload,
        policy,
        graph,
        cfg,
        plan,
        transfers,
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
    assert_eq!(rows.len(), 1, "exactly one mutation row for {}", code.as_str());
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

fn graph(f: &Fixture, defect: fn(&mut OpGraph)) -> (Report, Report) {
    probed(f.graph.clone(), lint_graph, defect)
}

fn plan(f: &Fixture, defect: fn(&mut ParallelismPlan, &SearchConfig)) -> (Report, Report) {
    let lint = |p: &ParallelismPlan| lint_plan(p, &f.graph, &f.cfg, &f.transfers);
    let mut broken = f.plan.clone();
    defect(&mut broken, &f.cfg);
    (lint(&f.plan), lint(&broken))
}

fn model(f: &Fixture, defect: fn(&mut ModelProbe)) -> (Report, Report) {
    let probe = ModelProbe::sample(&f.platform, &f.model, &f.workload, &f.policy, 4);
    probed(probe, lint_model, defect)
}

fn serve(defect: fn(&mut ServeProbe)) -> (Report, Report) {
    let sound = ServeProbe {
        slots: 6,
        kv_bytes_per_slot: 4 << 20,
        kv_pool_bytes: 32 << 20,
        block_size: 6,
        kahn_width: 6,
    };
    probed(sound, lint_serve, defect)
}

fn slo(defect: fn(&mut SloProbe)) -> (Report, Report) {
    let sound = SloProbe {
        ttft_p99_slo_s: 300.0,
        floor_ttft_s: 20.0,
        slots: 8,
        enforce: true,
        preempt: true,
        shed: true,
        degrade_rungs: 4,
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
        pages_in_use: 64,
        page_refcount_sum: 80,
        seq_mapped_pages: 80,
        shared_write_violations: 0,
    };
    probed(sound, lint_paging, defect)
}

fn verify(defect: fn(&mut VerifyProbe)) -> (Report, Report) {
    let sound = VerifyProbe {
        axes: vec![
            ("model".into(), 3),
            ("pool_bytes".into(), 4),
            ("page_tokens".into(), 4),
            ("slo".into(), 3),
            ("ladder".into(), 2),
        ],
        configs_explored: 288,
        configs_floor: 200,
        unsoundness_witnesses: Vec::new(),
        declared_transitions: vec!["admit/fresh".into(), "append/cow-fork".into()],
        exercised_transitions: vec!["admit/fresh".into(), "append/cow-fork".into()],
        interleavings: 12_000,
    };
    probed(sound, lint_verify, defect)
}

fn asynch(defect: fn(&mut AsyncProbe)) -> (Report, Report) {
    let sound = AsyncProbe {
        channel_capacity: 32,
        time_scale: 1.0,
        ttft_p99_slo_s: Some(300.0),
        floor_ttft_s: 12.0,
    };
    probed(sound, lint_async, defect)
}

mutations! {
    lma001_back_edge_makes_cycle: Lma001CyclicGraph => |f| graph(f, |g| {
        let last = g.len() - 1;
        g.depend(last, 0);
    }),
    lma002_isolated_node: Lma002OrphanNode => |f| graph(f, |g| {
        g.add("stray", OpKind::Elementwise, 1.0, 1.0);
    }),
    // The builder API deduplicates; a deserialized graph may not.
    lma003_duplicate_edge: Lma003DuplicateEdge => |f| graph(f, |g| {
        let to = g.edges[0][0];
        g.edges[0].push(to);
    }),
    lma004_zero_cost_compute_node: Lma004ZeroCostNode => |f| graph(f, |g| {
        let dead = g.add("dead_bmm", OpKind::Bmm, 0.0, 0.0);
        let last = g.len() - 2;
        g.depend(0, dead);
        g.depend(dead, last);
    }),
    lma005_edge_out_of_bounds: Lma005EdgeOutOfBounds => |f| graph(f, |g| {
        let n = g.len();
        g.edges[0].push(n + 3);
    }),
    lma006_self_edge: Lma006SelfEdge => |f| graph(f, |g| g.edges[2].push(2)),
    // kv_concat is node 3; its consumers (the per-group BMMs) form the
    // next wavefront. A transfer hanging off the same producer lands in
    // that compute wavefront.
    lma007_transfer_in_compute_wavefront: Lma007TransferOffBoundary => |f| graph(f, |g| {
        let t = g.add("stage_copy", OpKind::Transfer, 0.0, 1e6);
        g.depend(3, t);
        let last = g.len() - 2;
        g.depend(t, last);
    }),
    lma101_inter_op_beyond_width: Lma101InterOpExceedsWidth => |f| plan(f, |p, _| {
        p.inter_op_compute += 30;
        p.inter_op_total += 30;
    }),
    lma102_thread_budget_blown: Lma102ThreadBudgetExceeded => |f| plan(f, |p, cfg| {
        p.intra_op_compute = cfg.max_threads;
    }),
    lma103_truncated_transfer_vector: Lma103WrongTransferVector => |f| plan(f, |p, _| {
        p.transfer_threads.pop();
    }),
    lma104_starved_transfer_task: Lma104ZeroTransferThreads => |f| plan(f, |p, _| {
        p.transfer_threads[3] = 0;
    }),
    // load_weight moves by far the most bytes; hand it the minimum while
    // a small task keeps a large grant.
    lma105_inverted_transfer_grant: Lma105DisproportionalTransfer => |f| plan(f, |p, _| {
        p.transfer_threads[0] = 1;
        p.transfer_threads[2] = 8;
    }),
    lma106_total_bookkeeping_broken: Lma106InterOpTotalMismatch => |f| plan(f, |p, _| {
        p.inter_op_total += 1;
    }),
    lma107_step_below_compute: Lma107StepBelowCompute => |f| plan(f, |p, _| {
        p.est_step_time = p.est_compute_time * 0.5;
    }),
    lma108_invalid_policy_fraction: Lma108InvalidPolicy => |f| {
        let broken = Policy { wg: 1.5, ..f.policy };
        (
            lint_policy(&f.policy, &f.model, &f.workload, &f.platform),
            lint_policy(&broken, &f.model, &f.workload, &f.platform),
        )
    },
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
            lint_bundles(&g, 1e7, &f.platform), // merges the chain
        )
    },
    lma201_millisecond_units_slip: Lma201DimensionalMismatch => |f| model(f, |p| {
        p.load_weight_time /= 1000.0;
    }),
    lma202_tgen_not_the_max: Lma202TgenNotMax => |f| model(f, |p| p.t_gen *= 0.5),
    lma203_quantized_footprint_grew: Lma203QuantizedLargerThanF16 => |f| model(f, |p| {
        p.weights_at_rest_bytes = p.weights_f16_bytes * 2.0;
    }),
    lma204_nan_in_probe: Lma204NonFiniteQuantity => |f| model(f, |p| {
        p.compute_cpu_time = f64::NAN;
    }),
    lma250_slots_oversubscribe_pool: Lma250SlotsExceedPool => |_| serve(|p| p.slots = 9),
    lma251_block_beyond_kahn_width: Lma251BlockExceedsWidth => |_| serve(|p| p.kahn_width = 3),
    lma252_pool_left_idle: Lma252SlotsUnderutilizePool => |_| serve(|p| {
        p.slots = 2;
        p.block_size = 2;
    }),
    lma260_objective_below_the_floor: Lma260SloBelowFloor => |_| slo(|p| {
        p.ttft_p99_slo_s = p.floor_ttft_s / 2.0;
    }),
    lma261_enforcement_with_no_actuator: Lma261SloNoActuator => |_| slo(|p| {
        p.preempt = false;
        p.shed = false;
        p.degrade_rungs = 0;
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
    lma281_refcount_sum_drifts_from_page_tables: Lma281PageRefcountImbalance => |_| paging(|p| {
        p.page_refcount_sum -= 1;
    }),
    lma282_in_place_write_on_shared_page: Lma282DoubleMappedWritablePage => |_| paging(|p| {
        p.shared_write_violations = 2;
    }),
    lma290_sweep_axis_collapsed_to_a_point: Lma290SweepDomainDegenerate => |_| verify(|p| {
        p.axes[2].1 = 1;
    }),
    lma291_lint_passed_where_ground_truth_failed: Lma291LintUnsoundnessWitness => |_| verify(|p| {
        p.unsoundness_witnesses.push(UnsoundnessWitness {
            config: "opt-30b/pool=8GiB/page=16/slo=none/ladder=flat".into(),
            invariant: "pool_capacity".into(),
            detail: "admission granted 257 of 256 pages".into(),
        });
    }),
    lma292_declared_transition_never_exercised: Lma292UncheckedProtocolTransition => |_| {
        verify(|p| p.exercised_transitions.retain(|t| t != "append/cow-fork"))
    },
    lma300_zero_capacity_token_channel: Lma300AsyncZeroChannelCapacity => |_| asynch(|p| {
        p.channel_capacity = 0;
    }),
    lma301_wall_slo_at_or_below_physical_floor: Lma301AsyncSloBelowFloor => |_| asynch(|p| {
        p.ttft_p99_slo_s = Some(p.floor_ttft_s);
    }),
    lma302_degenerate_time_scale: Lma302AsyncBadTimeScale => |_| asynch(|p| {
        p.time_scale = f64::NAN;
    }),
}

/// The table is the registry: a code added to `lint_codes!` without a
/// row here, a row for a code that no longer exists, or two rows for one
/// code all fail this comparison.
#[test]
fn every_shipped_code_has_mutation_coverage() {
    let covered: Vec<LintCode> = MUTATIONS.iter().map(|&(code, _)| code).collect();
    assert_eq!(covered, LintCode::ALL, "one mutation row per code, in registry order");
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
        cfg: &f.cfg,
        plan: &f.plan,
        transfers: &f.transfers,
        bundle_min_flops: 1e7,
    });
    assert!(report.is_clean(), "{report}");
}
