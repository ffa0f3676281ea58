//! Protocol checking of the two state machines the serving path rests
//! on.
//!
//! The **paged-KV pool** grant/append/drop protocol is explored under
//! bounded interleavings with the vendored loom checker
//! ([`loom::explore`]) on the *real* [`PagedKvPool`] — its internal
//! `parking_lot` lock is not loom-instrumented, so explicit
//! [`loom::thread::yield_now`] calls between protocol operations are the
//! interleaving points. Checked on every interleaving:
//!
//! - **refcount conservation** — the pool's per-page refcount sum and
//!   page/byte accounting balance after every operation;
//! - **no double grant** — each sequence reads back exactly the token
//!   stream it wrote (a page granted to two writers would corrupt one);
//! - **zero leaks at quiescence** — when all sequences drop, pages in
//!   use, backing bytes, and the refcount sum all reach zero.
//!
//! The **scheduler lifecycle** runs single-threaded on a virtual clock,
//! so it is not explored but run: the shipped scheduler's log on a
//! fixed set of runs is checked against `lm-serve`'s spec, [`conform`].
//!
//! Each harness records which *declared* transitions it drove; `LMA292`
//! rejects a run that never reached one (an unexercised transition
//! carries unverified invariants).

use lm_engine::MemPool;
use lm_fault::{FaultConfig, FaultInjector, StormProfile};
use lm_kvpool::{PageConfig, PagedKvPool};
use lm_serve::preflight::ttft_floor_s;
use lm_serve::{
    conform, derive_plan, synth_traffic, AnalyticBackend, CancelToken, Request, RequestPhase,
    ServeBackend, ServeConfig, ServeSession, SloPolicy, Transition, LIFECYCLE,
};
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

/// A lifecycle edge as the scheduler report names it.
fn sched_name((from, to): Transition) -> String {
    format!("sched:{}->{}", from.map_or("start", RequestPhase::name), to.name())
}

/// Check the shipped scheduler against the lifecycle spec on a fixed
/// set of runs that together fire every [`LIFECYCLE`] edge: each fault
/// storm at two seeds (disconnects, crashes, pool pressure whose
/// deadline rescues preempt), an enforcing SLO at 1.5x the TTFT floor
/// on two slots (shedding), and a single-slot run with an explicit
/// cancel on the resident and one on a queued request. Each run counts
/// as one interleaving (on a virtual clock a run is its only schedule);
/// the first violation or serve error is the failure.
pub fn check_scheduler_protocol() -> ProtocolReport {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(7, 4.0, 48, backend.model());
    let (mut runs, mut exercised, mut failure) = (0, BTreeSet::new(), None);
    let mut check = |label: &str, cfg: ServeConfig, requests: Vec<Request>| {
        runs += 1;
        let verdict = match ServeSession::new(&backend).config(cfg).run(requests) {
            Ok(run) => {
                let (plan, out) = run.into_continuous();
                conform(&plan, &out).map_err(|v| format!("{v:?}"))
            }
            Err(e) => Err(e.to_string()),
        };
        match verdict {
            Ok(c) => exercised.extend(c.transitions.into_keys().map(sched_name)),
            Err(e) => {
                failure.get_or_insert(format!("{label}: {e}"));
            }
        }
    };
    for profile in StormProfile::ALL {
        for seed in [7, 1234] {
            let fault = FaultInjector::new(FaultConfig::storm(seed, profile));
            let cfg = ServeConfig { fault, ..ServeConfig::default() };
            check(&format!("{} storm seed {seed}", profile.name()), cfg, traffic.clone());
        }
    }
    let mut slo = ServeConfig { max_slots: 2, ..ServeConfig::default() };
    let floor_s = ttft_floor_s(&derive_plan(&backend, &slo).0, &backend);
    slo.slo = Some(SloPolicy::enforcing(1.5 * floor_s));
    check("enforcing slo", slo, traffic);
    // A 48-token context over a one-slot pool plans exactly one slot.
    let single = ServeConfig { max_slots: 1, slot_context: 48, ..ServeConfig::default() };
    let cancel_at = |t_us| {
        let token = CancelToken::never();
        token.cancel_at_us(t_us);
        token
    };
    let mut requests = vec![
        Request::new(0, vec![1, 2, 3], 32).with_cancel(cancel_at(2_000_000)),
        Request::new(1, vec![4, 5], 8).with_cancel(cancel_at(1_000_000)),
    ];
    requests.extend((2..12).map(|id| Request::new(id, vec![6, 7], 40)));
    check("single-slot cancels", single, requests);
    ProtocolReport {
        name: "scheduler".to_string(),
        interleavings: runs,
        truncated: false,
        failure,
        declared: LIFECYCLE.map(sched_name).to_vec(),
        exercised: exercised.into_iter().collect(),
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
        let report = check_scheduler_protocol();
        assert!(report.passed(), "{:?}", report.failure);
        let mut exercised = report.exercised.clone();
        let mut declared = report.declared.clone();
        exercised.sort();
        declared.sort();
        assert_eq!(exercised, declared, "every lifecycle edge, and no other");
    }

    #[test]
    fn exploration_counts_are_deterministic() {
        let a = check_scheduler_protocol();
        let b = check_scheduler_protocol();
        assert_eq!(a.interleavings, b.interleavings);
        assert_eq!(a.exercised, b.exercised);
    }
}
