//! A real task-graph executor with explicit inter-op and intra-op
//! parallelism — the runtime counterpart of the analytic search, used to
//! demonstrate and test the parallelism-control decisions on actual
//! hardware.
//!
//! `inter_op` scoped worker threads pull ready operators from a shared
//! `Queue`; each operator may split its own work across `intra_op`
//! threads via [`split_work`]. Dependency tracking uses atomic in-degree
//! counters, so completion of the last predecessor is what publishes a
//! node to the queue.

use crate::graph::OpGraph;
use crate::kahn;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The ready queue: an unbounded FIFO with a blocking pop. Every worker
/// shares it for the whole run, so it never closes — shutdown is the
/// POISON broadcast. `tests/loom_executor.rs` model-checks this queue and
/// the worker loop below over loom's instrumented `Mutex`/`Condvar`.
struct Queue {
    items: Mutex<VecDeque<usize>>,
    ready: Condvar,
}

impl Queue {
    fn send(&self, u: usize) {
        self.items.lock().push_back(u);
        self.ready.notify_one();
    }

    fn recv(&self) -> usize {
        let mut items = self.items.lock();
        loop {
            if let Some(u) = items.pop_front() {
                return u;
            }
            self.ready.wait(&mut items);
        }
    }
}

/// Why an executor could not be built or could not run a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// `inter_op` or `intra_op` was zero.
    ZeroParallelism { inter_op: usize, intra_op: usize },
    /// The graph has a cycle; the nodes form a closed dependency walk.
    /// Running it would block forever: the node releasing protocol only
    /// publishes a node once its in-degree drains, which never happens
    /// inside a cycle.
    CyclicGraph { cycle: Vec<usize> },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::ZeroParallelism { inter_op, intra_op } => write!(
                f,
                "executor needs positive parallelism (inter_op={inter_op}, intra_op={intra_op})"
            ),
            ExecError::CyclicGraph { cycle } => {
                write!(f, "cyclic graph: ")?;
                for &u in cycle {
                    write!(f, "{u} -> ")?;
                }
                write!(f, "{}", cycle.first().copied().unwrap_or(0))
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Executor configuration: how many operators co-run and how many threads
/// each operator's inner loop uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    pub inter_op: usize,
    pub intra_op: usize,
}

impl Executor {
    pub fn new(inter_op: usize, intra_op: usize) -> Self {
        assert!(inter_op >= 1, "inter_op must be positive");
        assert!(intra_op >= 1, "intra_op must be positive");
        Executor { inter_op, intra_op }
    }

    /// Fallible constructor for configurations derived from untrusted
    /// input (deserialized plans, sweep generators).
    pub fn try_new(inter_op: usize, intra_op: usize) -> Result<Self, ExecError> {
        if inter_op == 0 || intra_op == 0 {
            return Err(ExecError::ZeroParallelism { inter_op, intra_op });
        }
        Ok(Executor { inter_op, intra_op })
    }

    /// Execute `graph`, calling `work(node_index, intra_op)` for every
    /// node exactly once, respecting dependencies. Returns the completion
    /// order. Panics if the graph is cyclic (nodes would never be
    /// released).
    pub fn run<F>(&self, graph: &OpGraph, work: F) -> Vec<usize>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.run_traced(graph, &lm_trace::Tracer::disabled(), work)
    }

    /// Fallible [`Executor::run`]: a cyclic graph is reported as
    /// [`ExecError::CyclicGraph`] with the offending cycle instead of
    /// wedging the worker pool.
    pub fn try_run<F>(&self, graph: &OpGraph, work: F) -> Result<Vec<usize>, ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        self.try_run_traced(graph, &lm_trace::Tracer::disabled(), work)
    }

    /// Like [`Executor::run`], recording one tracer scope per operator,
    /// named after the node. The per-thread trace buffers assign each
    /// worker its own track, so the Perfetto view shows which worker ran
    /// which operator — the executor's thread-assignment picture.
    pub fn run_traced<F>(&self, graph: &OpGraph, tracer: &lm_trace::Tracer, work: F) -> Vec<usize>
    where
        F: Fn(usize, usize) + Sync,
    {
        match self.try_run_traced(graph, tracer, work) {
            Ok(order) => order,
            Err(e) => panic!("cyclic graph: not all nodes can become ready ({e})"),
        }
    }

    /// Fallible [`Executor::run_traced`]. Cycles are rejected *before*
    /// any worker starts: without the pre-check, workers block in
    /// `recv()` forever on a cyclic graph, because the final-node
    /// completion that sends the shutdown sentinel is never reached.
    pub fn try_run_traced<F>(
        &self,
        graph: &OpGraph,
        tracer: &lm_trace::Tracer,
        work: F,
    ) -> Result<Vec<usize>, ExecError>
    where
        F: Fn(usize, usize) + Sync,
    {
        let n = graph.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        if kahn::analyze(graph).is_none() {
            let cycle = kahn::find_cycle(graph).unwrap_or_default();
            return Err(ExecError::CyclicGraph { cycle });
        }
        /// Shutdown sentinel: the queue never closes under a worker
        /// blocked in `recv()`, so the worker that completes the final
        /// node wakes the others explicitly.
        const POISON: usize = usize::MAX;
        let degrees = graph.in_degrees();
        let sources = (0..n).filter(|&i| degrees[i] == 0).collect();
        let queue = Queue { items: Mutex::new(sources), ready: Condvar::new() };
        let indeg: Vec<AtomicUsize> = degrees.into_iter().map(AtomicUsize::new).collect();
        let completed = AtomicUsize::new(0);
        let order = Mutex::new(Vec::with_capacity(n));

        std::thread::scope(|scope| {
            for _ in 0..self.inter_op {
                scope.spawn(|| loop {
                    let u = queue.recv();
                    if u == POISON {
                        break;
                    }
                    {
                        let _op = tracer.scope(&graph.nodes[u].name);
                        work(u, self.intra_op);
                    }
                    order.lock().push(u);
                    for &v in &graph.edges[u] {
                        if indeg[v].fetch_sub(1, Ordering::AcqRel) == 1 {
                            queue.send(v);
                        }
                    }
                    if completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                        // All done: wake every other worker.
                        for _ in 0..self.inter_op {
                            queue.send(POISON);
                        }
                        break;
                    }
                });
            }
        });

        let order = order.into_inner();
        debug_assert_eq!(order.len(), n, "acyclic graph must complete fully");
        Ok(order)
    }
}

/// Split `total` work items across `threads` OS threads, calling
/// `f(range)` on each disjoint chunk — the intra-op parallelism primitive
/// operators use inside [`Executor::run`].
pub fn split_work<F>(total: usize, threads: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    assert!(threads >= 1, "threads must be positive");
    if total == 0 {
        return;
    }
    let threads = threads.min(total);
    let chunk = total.div_ceil(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f = &f;
            let start = t * chunk;
            let end = ((t + 1) * chunk).min(total);
            if start < end {
                scope.spawn(move || f(start..end));
            }
        }
    });
}

/// A CPU-burning workload of roughly `flops` floating-point operations,
/// split across `threads` — the synthetic operator body used in executor
/// demonstrations and tests.
pub fn burn(flops: f64, threads: usize) {
    let iters = (flops / 2.0).max(1.0) as usize;
    split_work(iters, threads, |range| {
        let mut acc = 1.0f64;
        for i in range {
            acc = acc.mul_add(1.000_000_1, (i & 7) as f64 * 1e-12);
        }
        std::hint::black_box(acc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{attention_graph, OpKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Instant;

    #[test]
    fn runs_every_node_once_in_topo_order() {
        let g = attention_graph(8, 16, 64, 4);
        let counts: Vec<AtomicUsize> = (0..g.len()).map(|_| AtomicUsize::new(0)).collect();
        let order = Executor::new(4, 2).run(&g, |u, _| {
            counts[u].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(order.len(), g.len());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "node {i}");
        }
        // Completion order must respect dependencies.
        let mut pos = vec![0usize; g.len()];
        for (i, &u) in order.iter().enumerate() {
            pos[u] = i;
        }
        for (from, outs) in g.edges.iter().enumerate() {
            for &to in outs {
                assert!(pos[from] < pos[to], "edge {from}->{to} violated");
            }
        }
    }

    #[test]
    fn single_worker_is_sequential_topo() {
        let g = attention_graph(4, 8, 32, 2);
        let order = Executor::new(1, 1).run(&g, |_, _| {});
        assert_eq!(order.len(), g.len());
    }

    #[test]
    fn empty_graph_is_noop() {
        let g = OpGraph::new();
        assert!(Executor::new(2, 2).run(&g, |_, _| {}).is_empty());
    }

    #[test]
    fn wide_graph_gets_parallel_speedup() {
        // 8 independent nodes of equal work: on a multi-core host, 4
        // workers should be clearly faster than 1. On a single core the
        // speedup is physically impossible, so only correctness and
        // bounded overhead are asserted there.
        let mut g = OpGraph::new();
        for i in 0..8 {
            g.add(format!("n{i}"), OpKind::Bmm, 4e6, 0.0);
        }
        let body = |_u: usize, intra: usize| burn(4e6, intra);

        let t0 = Instant::now();
        let order_serial = Executor::new(1, 1).run(&g, body);
        let serial = t0.elapsed();

        let t1 = Instant::now();
        let order_parallel = Executor::new(4, 1).run(&g, body);
        let parallel = t1.elapsed();

        assert_eq!(order_serial.len(), 8);
        assert_eq!(order_parallel.len(), 8);
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if cores >= 4 {
            assert!(
                parallel.as_secs_f64() < serial.as_secs_f64() * 0.8,
                "serial {serial:?} vs parallel {parallel:?} on {cores} cores"
            );
        } else {
            // Worker-pool overhead must stay modest even without cores
            // to exploit.
            assert!(
                parallel.as_secs_f64() < serial.as_secs_f64() * 2.0,
                "excessive overhead: serial {serial:?} vs parallel {parallel:?}"
            );
        }
    }

    #[test]
    fn split_work_covers_range_disjointly() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        split_work(1000, 7, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn split_work_handles_edge_cases() {
        split_work(0, 4, |_| panic!("no work expected"));
        let hits = AtomicUsize::new(0);
        split_work(3, 10, |r| {
            hits.fetch_add(r.len(), Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    #[should_panic(expected = "inter_op must be positive")]
    fn zero_workers_rejected() {
        Executor::new(0, 1);
    }

    #[test]
    fn try_new_reports_zero_parallelism() {
        assert_eq!(
            Executor::try_new(0, 3),
            Err(ExecError::ZeroParallelism { inter_op: 0, intra_op: 3 })
        );
        assert_eq!(
            Executor::try_new(2, 0),
            Err(ExecError::ZeroParallelism { inter_op: 2, intra_op: 0 })
        );
        assert!(Executor::try_new(2, 3).is_ok());
    }

    #[test]
    fn cyclic_graph_is_rejected_not_hung() {
        // Before the upfront cycle check, this case deadlocked the worker
        // pool: the shutdown sentinel is only sent after the final node
        // completes, which a cycle prevents.
        let mut g = OpGraph::new();
        let a = g.add("a", OpKind::Elementwise, 1.0, 0.0);
        let b = g.add("b", OpKind::Elementwise, 1.0, 0.0);
        let c = g.add("c", OpKind::Elementwise, 1.0, 0.0);
        g.depend(a, b);
        g.depend(b, c);
        g.depend(c, b); // b <-> c cycle
        let err = Executor::new(2, 1)
            .try_run(&g, |_, _| {})
            .expect_err("cycle must be rejected");
        match &err {
            ExecError::CyclicGraph { cycle } => {
                // The reported walk is a genuine cycle over existing edges.
                assert!(!cycle.is_empty());
                for w in cycle.windows(2) {
                    assert!(g.edges[w[0]].contains(&w[1]), "{err}");
                }
                let (first, last) = (cycle[0], *cycle.last().unwrap());
                assert!(g.edges[last].contains(&first), "{err}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("cyclic graph"), "{err}");
    }

    #[test]
    #[should_panic(expected = "cyclic graph")]
    fn run_panics_on_cycle() {
        let mut g = OpGraph::new();
        let a = g.add("a", OpKind::Elementwise, 1.0, 0.0);
        let b = g.add("b", OpKind::Elementwise, 1.0, 0.0);
        g.depend(a, b);
        g.depend(b, a);
        Executor::new(2, 1).run(&g, |_, _| {});
    }

    #[test]
    fn traced_run_scopes_every_op_with_worker_tracks() {
        let g = attention_graph(4, 8, 32, 2);
        let tracer = lm_trace::Tracer::new();
        let order = Executor::new(3, 1).run_traced(&g, &tracer, |_, intra| burn(1e4, intra));
        assert_eq!(order.len(), g.len());
        let report = tracer.snapshot();
        // One scope per operator, named after its node.
        assert_eq!(report.scopes.len(), g.len());
        let names: std::collections::HashSet<&str> =
            report.scopes.iter().map(|s| s.name.as_str()).collect();
        for node in &g.nodes {
            assert!(names.contains(node.name.as_str()), "missing {}", node.name);
        }
        // Scopes are tagged with the executing worker's track, and no
        // worker runs more ops than exist.
        let tracks: std::collections::HashSet<u32> =
            report.scopes.iter().map(|s| s.track).collect();
        assert!(!tracks.is_empty() && tracks.len() <= 3);
        // Tracing must not change execution semantics.
        let untraced = Executor::new(3, 1).run(&g, |_, _| {});
        assert_eq!(untraced.len(), g.len());
    }
}
