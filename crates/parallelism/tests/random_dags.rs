//! Property: Algorithm 3's cycle refusal agrees with Kahn's algorithm. A
//! random graph built from forward edges only (producer index < consumer
//! index) is acyclic by construction, so `kahn::analyze` succeeds and the
//! search returns a plan; closing any existing edge backwards makes a
//! cycle, `analyze` fails, and the search refuses with
//! `SearchError::CyclicGraph` carrying a genuine witness walk.

#![allow(clippy::unwrap_used)]

use lm_hardware::presets;
use lm_parallelism::{
    find_cycle, kahn, try_find_optimal_parallelism, CpuScalingModel, OpGraph, OpKind, ProfileTable,
    SearchConfig, SearchError, TransferTask, NUM_TRANSFER_TASKS,
};
use proptest::prelude::*;

/// Deterministic xorshift so a failing case replays from its seed.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Random forward-edge graph: every edge goes from a lower to a higher
/// node index, so the graph is a DAG for any seed/density.
fn random_dag(n: usize, seed: u64, density_pct: u64) -> OpGraph {
    let mut g = OpGraph::new();
    let kinds = [
        OpKind::Addmm,
        OpKind::Bmm,
        OpKind::Softmax,
        OpKind::Concat,
        OpKind::Elementwise,
    ];
    let mut state = seed | 1;
    for i in 0..n {
        let kind = kinds[(next(&mut state) % kinds.len() as u64) as usize];
        let flops = 1.0 + (next(&mut state) % 1000) as f64;
        g.add(format!("n{i}"), kind, flops, flops * 8.0);
    }
    for from in 0..n {
        for to in (from + 1)..n {
            if next(&mut state) % 100 < density_pct {
                g.depend(from, to);
            }
        }
    }
    g
}

/// Algorithm 3 over `g` on the paper's platform (112 threads: any Kahn
/// width of these graphs leaves five free), with equal transfer volumes.
fn search(g: &OpGraph) -> Result<(), SearchError> {
    let platform = presets::single_gpu_a100();
    let scaling = CpuScalingModel::from_cpu(&platform.cpu);
    let profile = ProfileTable::synthesize(g, &scaling, 20e9, 12e9, platform.cpu.total_threads());
    let cfg = SearchConfig::for_platform(&platform);
    let transfers: Vec<TransferTask> = (0..NUM_TRANSFER_TASKS)
        .map(|i| TransferTask {
            name: format!("t{i}"),
            bytes: 1 << 20,
        })
        .collect();
    try_find_optimal_parallelism(g, &profile, &scaling, &cfg, &transfers).map(|_| ())
}

/// `cycle` is a closed walk over `g`'s edges.
fn is_closed_walk(g: &OpGraph, cycle: &[usize]) -> bool {
    let Some((&first, &last)) = cycle.first().zip(cycle.last()) else {
        return false;
    };
    cycle.windows(2).all(|w| g.edges[w[0]].contains(&w[1])) && g.edges[last].contains(&first)
}

proptest! {
    #[test]
    fn forward_edge_graphs_pass_error_lints(
        n in 2usize..24,
        seed in 1u64..500,
        density in 10u64..80,
    ) {
        let g = random_dag(n, seed, density);
        prop_assert!(kahn::analyze(&g).is_some(), "forward edges must be acyclic");
        prop_assert!(find_cycle(&g).is_none());
        prop_assert_eq!(search(&g), Ok(()));
    }

    #[test]
    fn reversing_an_edge_fires_lma001_iff_kahn_fails(
        n in 3usize..24,
        seed in 1u64..500,
        density in 20u64..80,
    ) {
        let mut g = random_dag(n, seed, density);
        // Close the first recorded edge backwards; if the graph has no
        // edges the case degenerates to the DAG property above.
        let back = (0..g.len()).find_map(|u| g.edges[u].first().map(|&v| (v, u)));
        if let Some((from, to)) = back {
            g.depend(from, to);
            prop_assert!(kahn::analyze(&g).is_none(), "2-cycle must defeat Kahn");
            // The refusal carries a real closed walk over graph edges.
            match search(&g) {
                Err(SearchError::CyclicGraph { cycle }) => {
                    prop_assert!(is_closed_walk(&g, &cycle), "{cycle:?}");
                }
                other => prop_assert!(false, "cyclic graph searched: {other:?}"),
            }
        }
    }

    #[test]
    fn lint_verdict_matches_kahn_on_arbitrary_mutations(
        n in 2usize..20,
        seed in 1u64..300,
        density in 10u64..70,
        extra_from in 0usize..20,
        extra_to in 0usize..20,
    ) {
        // An arbitrary extra edge (any direction, possibly cyclic) keeps
        // the equivalence: the search refuses iff Kahn fails, and
        // `find_cycle` names a walk exactly then. Self-edges are excluded —
        // `try_depend` refuses them before any graph holds one.
        let mut g = random_dag(n, seed, density);
        let (from, to) = (extra_from % n, extra_to % n);
        if from != to {
            g.depend(from, to);
        }
        let kahn_ok = kahn::analyze(&g).is_some();
        prop_assert_eq!(find_cycle(&g).is_none(), kahn_ok);
        let refused = matches!(search(&g), Err(SearchError::CyclicGraph { .. }));
        prop_assert_eq!(refused, !kahn_ok);
    }
}
