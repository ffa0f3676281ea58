//! Self-tests for the vendored loom checker — the instrument `lm-verify`
//! trusts for every protocol verdict, so the instrument itself is
//! calibrated here: a seeded racy counter (a textbook lost update) MUST
//! be found, a correctly locked protocol MUST pass, and the bounded
//! DFS MUST be deterministic run-over-run (the `repro verify` artifact
//! is byte-compared across runs).

#![allow(clippy::unwrap_used)]

use loom::{explore, Exploration, Options};

/// Two threads do a non-atomic read-modify-write on a shared counter
/// (`load` then `store(v + 1)` with a preemption window between). The
/// lost-update interleaving needs exactly one preemption, so even the
/// tightest bound must find the seeded bug.
fn racy_counter() -> Exploration {
    explore(Options::default(), || {
        use loom::sync::atomic::{AtomicUsize, Ordering};
        use loom::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                loom::thread::spawn(move || {
                    let v = counter.load(Ordering::SeqCst);
                    counter.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(Ordering::SeqCst),
            2,
            "lost update: both increments read the same base"
        );
    })
}

#[test]
fn seeded_racy_counter_is_found() {
    let outcome = racy_counter();
    let failure = outcome
        .failure
        .expect("the checker must find the lost update");
    assert!(
        failure.contains("lost update"),
        "failure must carry the assertion message: {failure}"
    );
    assert!(!outcome.truncated);
}

#[test]
fn safe_mutex_protocol_passes() {
    let outcome = explore(Options::default(), || {
        use loom::sync::{Arc, Mutex};
        let counter = Arc::new(Mutex::new(0usize));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                loom::thread::spawn(move || {
                    let mut g = counter.lock();
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 2);
    });
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(
        outcome.executions > 1,
        "a two-thread mutex protocol has more than one interleaving"
    );
}

#[test]
fn exploration_is_deterministic_and_stops_at_first_failure() {
    let a = racy_counter();
    let b = racy_counter();
    assert_eq!(a.executions, b.executions, "DFS order must be reproducible");
    assert_eq!(a.failure, b.failure);
}

#[test]
fn iteration_cap_reports_truncation_instead_of_false_confidence() {
    let outcome = explore(
        Options {
            preemption_bound: 3,
            max_iterations: 2,
        },
        || {
            use loom::sync::{Arc, Mutex};
            let m = Arc::new(Mutex::new(0usize));
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let m = Arc::clone(&m);
                    loom::thread::spawn(move || {
                        *m.lock() += 1;
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        },
    );
    assert!(outcome.truncated, "2 iterations cannot exhaust this tree");
    assert!(
        !outcome.passed(),
        "a truncated search must not claim a pass"
    );
    assert!(outcome.failure.is_none(), "truncation is not a failure");
}

#[test]
fn preemption_bound_zero_still_runs_the_voluntary_schedules() {
    // With no preemptions allowed, only voluntary switches (finish,
    // block) branch; the exploration still runs and passes on safe code.
    let outcome = explore(
        Options {
            preemption_bound: 0,
            max_iterations: 1_000,
        },
        || {
            let h = loom::thread::spawn(|| 41 + 1);
            assert_eq!(h.join().unwrap(), 42);
        },
    );
    assert!(outcome.passed(), "{:?}", outcome.failure);
    assert!(outcome.executions >= 1);
}
