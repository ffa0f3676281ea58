//! Model-checking of the executor's concurrency protocol
//! (`cargo test -p lm-parallelism --features loom`).
//!
//! The executor in `src/executor.rs` coordinates workers with three
//! mechanisms: an atomic in-degree counter per node (the last predecessor
//! to finish — the one whose `fetch_sub` returns 1 — publishes the node),
//! a shared ready queue, and a POISON broadcast sent by whichever worker
//! completes the final node (every worker shares the queue for the whole
//! run, so it can never close itself). The queue that ships is a
//! `Mutex<VecDeque>` + `Condvar` with a blocking `recv`; these tests hold
//! the same queue and the same worker loop over loom's instrumented
//! `Mutex`/`Condvar`/atomics and let the checker enumerate the
//! interleavings: every schedule must run each node once, respect the
//! dependency edges, and terminate every worker. A deliberately broken
//! variant (no POISON broadcast) must be caught as a deadlock — the bug
//! class the protocol exists to prevent.

#![cfg(feature = "loom")]
#![allow(clippy::unwrap_used)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::{Arc, Condvar, Mutex};
use loom::thread;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

const POISON: usize = usize::MAX;

/// The executor's ready queue (`executor.rs::Queue`) on loom's types.
struct Queue {
    items: Mutex<VecDeque<usize>>,
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    fn send(&self, u: usize) {
        self.items.lock().push_back(u);
        self.ready.notify_one();
    }

    fn recv(&self) -> usize {
        let mut guard = self.items.lock();
        loop {
            if let Some(u) = guard.pop_front() {
                return u;
            }
            guard = self.ready.wait(guard);
        }
    }
}

/// Shared run state mirroring `try_run_traced`'s captures.
struct Run {
    edges: Vec<Vec<usize>>,
    indeg: Vec<AtomicUsize>,
    queue: Queue,
    completed: AtomicUsize,
    order: Mutex<Vec<usize>>,
}

impl Run {
    fn new(edges: Vec<Vec<usize>>) -> Arc<Self> {
        let n = edges.len();
        let mut degrees = vec![0usize; n];
        for outs in &edges {
            for &v in outs {
                degrees[v] += 1;
            }
        }
        let run = Arc::new(Run {
            edges,
            indeg: degrees.iter().map(|&d| AtomicUsize::new(d)).collect(),
            queue: Queue::new(),
            completed: AtomicUsize::new(0),
            order: Mutex::new(Vec::new()),
        });
        for (i, &d) in degrees.iter().enumerate() {
            if d == 0 {
                run.queue.send(i);
            }
        }
        run
    }

    /// One worker's loop, verbatim from `Executor::try_run_traced`.
    /// `broadcast_poison: false` is the seeded bug.
    fn worker(&self, inter_op: usize, broadcast_poison: bool) {
        let n = self.edges.len();
        loop {
            let u = self.queue.recv();
            if u == POISON {
                break;
            }
            self.order.lock().push(u);
            for &v in &self.edges[u] {
                if self.indeg[v].fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.queue.send(v);
                }
            }
            if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == n {
                if broadcast_poison {
                    for _ in 0..inter_op {
                        self.queue.send(POISON);
                    }
                }
                break;
            }
        }
    }
}

fn check_run(edges: &[Vec<usize>], order: &[usize]) {
    let n = edges.len();
    assert_eq!(order.len(), n, "every node must run exactly once: {order:?}");
    let mut pos = vec![usize::MAX; n];
    for (i, &u) in order.iter().enumerate() {
        assert_eq!(pos[u], usize::MAX, "node {u} ran twice: {order:?}");
        pos[u] = i;
    }
    for (from, outs) in edges.iter().enumerate() {
        for &to in outs {
            assert!(pos[from] < pos[to], "edge {from}->{to} violated: {order:?}");
        }
    }
}

fn model_run(edges: Vec<Vec<usize>>, inter_op: usize) {
    loom::model(move || {
        let run = Run::new(edges.clone());
        let handles: Vec<_> = (0..inter_op)
            .map(|_| {
                let run = Arc::clone(&run);
                thread::spawn(move || run.worker(inter_op, true))
            })
            .collect();
        for h in handles {
            h.join().expect("worker terminated");
        }
        check_run(&run.edges, &run.order.lock());
    });
}

#[test]
fn diamond_runs_every_node_once_under_all_interleavings() {
    // 0 -> {1, 2} -> 3: node 3's in-degree is decremented by two
    // concurrent workers; exactly one fetch_sub observes 1 and publishes.
    model_run(vec![vec![1, 2], vec![3], vec![3], vec![]], 2);
}

#[test]
fn independent_nodes_complete_and_all_workers_shut_down() {
    // Two sources, no edges: the worker finishing the last node must wake
    // the other (possibly still blocked in recv) via the POISON broadcast.
    model_run(vec![vec![], vec![]], 2);
}

#[test]
fn chain_serializes_even_with_spare_workers() {
    // 0 -> 1 -> 2 with two workers: one worker is always starved; the
    // shutdown still reaches it.
    model_run(vec![vec![1], vec![2], vec![]], 2);
}

#[test]
fn last_decrement_publishes_exactly_once() {
    // The in-degree handshake in isolation: two predecessors finish
    // concurrently, the successor must be enqueued exactly once.
    loom::model(|| {
        let indeg = Arc::new(AtomicUsize::new(2));
        let publishes = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let indeg = Arc::clone(&indeg);
                let publishes = Arc::clone(&publishes);
                thread::spawn(move || {
                    if indeg.fetch_sub(1, Ordering::AcqRel) == 1 {
                        publishes.fetch_add(1, Ordering::AcqRel);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker terminated");
        }
        assert_eq!(publishes.load(Ordering::SeqCst), 1);
        assert_eq!(indeg.load(Ordering::SeqCst), 0);
    });
}

#[test]
fn missing_poison_broadcast_is_caught_as_deadlock() {
    // Seeded bug: the finishing worker exits without broadcasting POISON.
    // The other worker then blocks in recv() forever; the checker must
    // find the schedule where that happens and report the deadlock.
    let result = catch_unwind(AssertUnwindSafe(|| {
        loom::model(|| {
            let run = Run::new(vec![vec![1], vec![]]);
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let run = Arc::clone(&run);
                    thread::spawn(move || run.worker(2, false))
                })
                .collect();
            for h in handles {
                h.join().expect("worker terminated");
            }
        });
    }));
    let payload = result.expect_err("the checker must flag the lost shutdown");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("deadlock"), "unexpected failure: {msg}");
}
