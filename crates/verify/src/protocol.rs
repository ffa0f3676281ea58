//! Protocol model checking under bounded interleavings.
//!
//! Two state machines are explored with the vendored loom checker
//! ([`loom::explore`]): the **paged-KV pool** grant/append/drop
//! protocol (the *real* [`PagedKvPool`], not a model — its internal
//! `parking_lot` lock is not loom-instrumented, so explicit
//! [`loom::thread::yield_now`] calls between protocol operations are the
//! interleaving points), and the **scheduler lifecycle**
//! admit/preempt/shed/cancel (re-stated over an instrumented
//! [`loom::sync::Mutex`], the same way `loom_pools.rs` re-states the
//! `MemPool` protocol).
//!
//! Checked on every interleaving:
//!
//! - **refcount conservation** — the pool's per-page refcount sum and
//!   page/byte accounting balance after every operation;
//! - **no double grant** — each sequence reads back exactly the token
//!   stream it wrote (a page granted to two writers would corrupt one);
//! - **zero leaks at quiescence** — when all sequences drop, pages in
//!   use, backing bytes, and the refcount sum all reach zero;
//! - **terminal-state totality** — every request ends `Completed`,
//!   `Shed`, or `Cancelled`; none is lost in a queue or slot.
//!
//! Beyond pass/fail, each harness records which *declared* protocol
//! transitions the bounded exploration actually drove; `LMA292` rejects
//! a run whose interleavings never reached a declared transition (an
//! unexercised transition carries unverified invariants).

use lm_engine::MemPool;
use lm_kvpool::{PageConfig, PagedKvPool};
use loom::{explore, Options};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex as StdMutex};

/// Outcome of one protocol exploration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolReport {
    /// State machine identity (`"kvpool"`, `"scheduler"`).
    pub name: String,
    /// Interleavings (executions) the bounded DFS ran.
    pub interleavings: u64,
    /// `true` if the search hit its iteration cap before exhausting the
    /// bounded tree.
    pub truncated: bool,
    /// First invariant violation observed, if any.
    pub failure: Option<String>,
    /// Transitions the machine declares (the spec).
    pub declared: Vec<String>,
    /// Transitions at least one interleaving exercised.
    pub exercised: Vec<String>,
}

impl ProtocolReport {
    /// Full bounded tree explored, no failure.
    pub fn passed(&self) -> bool {
        self.failure.is_none() && !self.truncated
    }
}

/// Transition log shared across executions (union). Executions are
/// serialized by the checker, so a plain std mutex is only guarding
/// cross-execution accumulation, never modelled concurrency.
type Trace = Arc<StdMutex<BTreeSet<String>>>;

fn record(trace: &Trace, transition: &str) {
    trace
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(transition.to_string());
}

const PAGE_TOKENS: usize = 4;
const BYTES_PER_TOKEN: usize = 8;

/// Transitions of the paged-KV grant/append/drop protocol.
pub fn kvpool_declared() -> Vec<String> {
    [
        "kvpool:admit/fresh",
        "kvpool:admit/shared-full",
        "kvpool:append/in-place",
        "kvpool:append/new-page",
        "kvpool:drop/release",
    ]
    .map(String::from)
    .to_vec()
}

/// Transitions of the scheduler request-lifecycle protocol.
pub fn scheduler_declared() -> Vec<String> {
    [
        "sched:enqueue",
        "sched:admit",
        "sched:preempt",
        "sched:requeue",
        "sched:shed",
        "sched:cancel",
        "sched:complete",
    ]
    .map(String::from)
    .to_vec()
}

/// One sequence's worth of protocol operations: admit (classifying the
/// grant path), generate `gen` tokens (classifying each append by where
/// it lands in the page), verify readback, drop.
fn run_seq(pool: &Arc<PagedKvPool>, prompt: &[u32], gen: &[u32], trace: &Trace) {
    let Ok(mut seq) = pool.admit(prompt, gen.len()) else {
        panic!("admission must succeed: the pool is sized for all sequences");
    };
    let shared = seq.shared_tokens();
    if shared == 0 {
        record(trace, "kvpool:admit/fresh");
    }
    if shared >= PAGE_TOKENS {
        record(trace, "kvpool:admit/shared-full");
    }
    assert!(pool.accounting_balanced(), "byte/page accounting drifted at admit");
    loom::thread::yield_now();

    for &token in gen {
        let new_page = seq.len() % PAGE_TOKENS == 0;
        if let Err(e) = seq.append(token) {
            panic!("reserved append failed: {e}");
        }
        if new_page {
            record(trace, "kvpool:append/new-page");
        } else {
            record(trace, "kvpool:append/in-place");
        }
        assert!(
            pool.accounting_balanced(),
            "byte/page accounting drifted at append"
        );
        loom::thread::yield_now();
    }

    // No double grant: the stream read back through the page table must
    // be exactly what this sequence wrote, regardless of interleaving.
    let expected: Vec<u32> = prompt.iter().chain(gen.iter()).copied().collect();
    assert_eq!(seq.tokens(), expected, "page granted to two writers");

    drop(seq);
    record(trace, "kvpool:drop/release");
    loom::thread::yield_now();
}

/// Model-check the paged-KV pool protocol: three sequences sharing one
/// prompt prefix race admit/append/drop on the real allocator.
pub fn check_kvpool_protocol(opts: Options) -> ProtocolReport {
    let trace: Trace = Arc::new(StdMutex::new(BTreeSet::new()));
    let t = Arc::clone(&trace);
    let outcome = explore(opts, move || {
        let mem = MemPool::new(
            "verify.kvpool",
            16 * PAGE_TOKENS * BYTES_PER_TOKEN,
        );
        let pool = PagedKvPool::new(
            mem.clone(),
            PageConfig {
                page_tokens: PAGE_TOKENS,
                bytes_per_token: BYTES_PER_TOKEN,
            },
        );
        // 6-token prompt = one full page + a 2-token open tail, so a
        // later admit shares the full page while a peer still holds it
        // and every sequence appends in place into its private tail
        // before its growth page.
        let prompt: Vec<u32> = vec![1, 2, 3, 4, 5, 6];
        let handles: Vec<_> = [
            vec![101, 102, 103],
            vec![201, 202],
            vec![301, 302],
        ]
        .into_iter()
        .map(|gen| {
            let pool = Arc::clone(&pool);
            let prompt = prompt.clone();
            let trace = Arc::clone(&t);
            loom::thread::spawn(move || run_seq(&pool, &prompt, &gen, &trace))
        })
        .collect();
        for h in handles {
            let Ok(()) = h.join() else {
                panic!("sequence thread panicked");
            };
        }
        // Quiescence: every grant returned, every byte released, every
        // refcount at zero.
        let c = pool.counters();
        assert_eq!(c.pages_in_use, 0, "pages leaked at quiescence");
        assert_eq!(c.refcount_sum, 0, "refcounts leaked at quiescence");
        assert_eq!(mem.used(), 0, "backing bytes leaked at quiescence");
    });
    let exercised = trace
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect();
    ProtocolReport {
        name: "kvpool".to_string(),
        interleavings: outcome.executions as u64,
        truncated: outcome.truncated,
        failure: outcome.failure,
        declared: kvpool_declared(),
        exercised,
    }
}

/// Terminal request states — totality demands every request reach one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Term {
    Completed,
    Shed,
    Cancelled,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    id: usize,
    prio: u8,
    remaining: u32,
    sheddable: bool,
}

/// The scheduler lifecycle state, re-stated over loom's mutex so every
/// lock acquisition is an interleaving point (the real scheduler's loop
/// holds no lock — it is single-threaded per virtual step — so the model
/// checks the *protocol*: the transition rules between queued, running,
/// and terminal states under concurrent enqueue/cancel).
struct SchedState {
    queue: Vec<Req>,
    running: Vec<Req>,
    done: Vec<(usize, Term)>,
    cancels: Vec<usize>,
}

const SLOTS: usize = 2;
const SHED_QUEUE_LIMIT: usize = 2;
const TOTAL_REQS: usize = 5;

fn assert_conserved(st: &SchedState) {
    assert!(st.running.len() <= SLOTS, "more running requests than slots");
    let mut seen = BTreeSet::new();
    for id in st
        .queue
        .iter()
        .map(|r| r.id)
        .chain(st.running.iter().map(|r| r.id))
        .chain(st.done.iter().map(|&(id, _)| id))
    {
        assert!(id < TOTAL_REQS, "unknown request id {id}");
        assert!(seen.insert(id), "request {id} present in two states");
    }
}

/// One scheduler pump: process cancellations, shed under queue pressure,
/// preempt for priority, admit into free slots, then advance every
/// running request one decode step.
fn pump(st: &mut SchedState, trace: &Trace) {
    // Cancellation reaches both queued and running requests; a request
    // already terminal is a no-op (the race the model explores).
    let cancels = std::mem::take(&mut st.cancels);
    for id in cancels {
        if let Some(pos) = st.queue.iter().position(|r| r.id == id) {
            st.queue.remove(pos);
            st.done.push((id, Term::Cancelled));
            record(trace, "sched:cancel");
        } else if let Some(pos) = st.running.iter().position(|r| r.id == id) {
            st.running.remove(pos);
            st.done.push((id, Term::Cancelled));
            record(trace, "sched:cancel");
        }
    }
    // Shed sheddable work while the queue exceeds its pressure limit.
    while st.queue.len() > SHED_QUEUE_LIMIT {
        let Some(pos) = st.queue.iter().position(|r| r.sheddable) else {
            break;
        };
        let r = st.queue.remove(pos);
        st.done.push((r.id, Term::Shed));
        record(trace, "sched:shed");
    }
    // Preempt: a strictly higher-priority waiter evicts the lowest-
    // priority running request back into the queue.
    if st.running.len() == SLOTS {
        let best_wait = st.queue.iter().map(|r| r.prio).max();
        let worst_run = st.running.iter().map(|r| r.prio).min();
        if let (Some(bw), Some(wr)) = (best_wait, worst_run) {
            if bw > wr {
                let pos = st
                    .running
                    .iter()
                    .position(|r| r.prio == wr)
                    .unwrap_or_default();
                let r = st.running.remove(pos);
                st.queue.push(r);
                record(trace, "sched:preempt");
                record(trace, "sched:requeue");
            }
        }
    }
    // Admit highest-priority waiters into free slots (stable on ties).
    while st.running.len() < SLOTS && !st.queue.is_empty() {
        let best = st.queue.iter().map(|r| r.prio).max().unwrap_or_default();
        let pos = st
            .queue
            .iter()
            .position(|r| r.prio == best)
            .unwrap_or_default();
        let r = st.queue.remove(pos);
        st.running.push(r);
        record(trace, "sched:admit");
    }
    // Step: every running request advances; finished ones complete.
    let mut i = 0;
    while i < st.running.len() {
        st.running[i].remaining -= 1;
        if st.running[i].remaining == 0 {
            let r = st.running.remove(i);
            st.done.push((r.id, Term::Completed));
            record(trace, "sched:complete");
        } else {
            i += 1;
        }
    }
    assert_conserved(st);
}

/// Model-check the scheduler admit/preempt/shed/cancel lifecycle: a
/// pump loop races a client enqueueing a high-priority request and a
/// sheddable request, and a canceller racing a request that may be
/// queued, running, or already complete.
pub fn check_scheduler_protocol(opts: Options) -> ProtocolReport {
    let trace: Trace = Arc::new(StdMutex::new(BTreeSet::new()));
    let t = Arc::clone(&trace);
    let outcome = explore(opts, move || {
        let req = |id, prio, remaining, sheddable| Req {
            id,
            prio,
            remaining,
            sheddable,
        };
        let state = loom::sync::Arc::new(loom::sync::Mutex::new(SchedState {
            queue: vec![req(0, 1, 2, false), req(1, 1, 2, false), req(2, 1, 1, false)],
            running: Vec::new(),
            done: Vec::new(),
            cancels: Vec::new(),
        }));

        let client = {
            let state = loom::sync::Arc::clone(&state);
            let trace = Arc::clone(&t);
            loom::thread::spawn(move || {
                // A high-priority arrival (preemption trigger) ...
                {
                    let mut st = state.lock();
                    st.queue.push(req(3, 2, 1, false));
                    record(&trace, "sched:enqueue");
                    assert_conserved(&st);
                }
                // ... a sheddable arrival (queue-pressure trigger) ...
                {
                    let mut st = state.lock();
                    st.queue.push(req(4, 0, 3, true));
                    record(&trace, "sched:enqueue");
                    assert_conserved(&st);
                }
                // ... and a cancellation racing request 1's lifecycle.
                state.lock().cancels.push(1);
            })
        };

        let pumper = {
            let state = loom::sync::Arc::clone(&state);
            let trace = Arc::clone(&t);
            loom::thread::spawn(move || {
                // Enough pumps to drain every request in any interleaving:
                // 5 requests, max 3 steps each, 2 slots — 9 pumps covers
                // the worst serialization with slack.
                for _ in 0..9 {
                    pump(&mut state.lock(), &trace);
                }
            })
        };

        let Ok(()) = client.join() else {
            panic!("client thread panicked");
        };
        let Ok(()) = pumper.join() else {
            panic!("pump thread panicked");
        };

        // The pump loop may have drained before the client's last
        // arrival; with both threads joined the backlog is final, so a
        // bounded quiescent drain models the scheduler outliving its
        // clients (and adds no interleaving branches — one thread).
        for _ in 0..9 {
            pump(&mut state.lock(), &t);
        }

        // Terminal-state totality: nothing is left queued or running,
        // and every request reached exactly one terminal state.
        let st = state.lock();
        assert!(st.queue.is_empty(), "requests stranded in queue: {:?}", st.queue);
        assert!(st.running.is_empty(), "requests stranded running");
        assert_eq!(st.done.len(), TOTAL_REQS, "lost request: {:?}", st.done);
        assert_conserved(&st);
    });
    let exercised = trace
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .cloned()
        .collect();
    ProtocolReport {
        name: "scheduler".to_string(),
        interleavings: outcome.executions as u64,
        truncated: outcome.truncated,
        failure: outcome.failure,
        declared: scheduler_declared(),
        exercised,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kvpool_protocol_holds_and_exercises_every_declared_transition() {
        let report = check_kvpool_protocol(Options::default());
        assert!(report.passed(), "{:?}", report.failure);
        assert!(report.interleavings > 1, "exploration degenerate");
        for t in &report.declared {
            assert!(
                report.exercised.contains(t),
                "declared transition never exercised: {t} (got {:?})",
                report.exercised
            );
        }
        for t in &report.exercised {
            assert!(
                report.declared.contains(t),
                "undeclared transition exercised: {t}"
            );
        }
    }

    #[test]
    fn scheduler_protocol_holds_and_exercises_every_declared_transition() {
        let report = check_scheduler_protocol(Options::default());
        assert!(report.passed(), "{:?}", report.failure);
        assert!(report.interleavings > 1, "exploration degenerate");
        for t in &report.declared {
            assert!(
                report.exercised.contains(t),
                "declared transition never exercised: {t} (got {:?})",
                report.exercised
            );
        }
    }

    #[test]
    fn exploration_counts_are_deterministic() {
        let a = check_scheduler_protocol(Options::default());
        let b = check_scheduler_protocol(Options::default());
        assert_eq!(a.interleavings, b.interleavings);
        assert_eq!(a.exercised, b.exercised);
    }
}
