//! End-to-end overload-resilience tests (DESIGN.md §9.2): for *any*
//! storm seed and profile the continuous scheduler must return every KV
//! lease to the serve pool and resolve every request exactly once; and
//! a request whose deadline expires while it is still queued must be
//! rejected with a typed deadline reason without ever occupying a slot.
#![allow(clippy::unwrap_used)]

use lm_fault::{FaultConfig, FaultInjector, RetryPolicy, StormProfile};
use lm_serve::{
    conform, derive_plan, synth_traffic, AnalyticBackend, RejectReason, Request, ServeBackend,
    ServeConfig, ServeSession,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// RAII-lease invariant under arbitrary storms: whatever mix of
    /// disconnects, crashes, pool pressure and stalls a seed produces,
    /// the run conforms to the lifecycle spec — no byte or page leased
    /// at end of run, every request in exactly one terminal state,
    /// admissions conserved.
    #[test]
    fn any_storm_seed_reclaims_every_kv_lease(
        seed in any::<u64>(),
        profile_idx in 0usize..StormProfile::ALL.len(),
        n in 4usize..20,
    ) {
        let profile = StormProfile::ALL[profile_idx];
        let backend = AnalyticBackend::opt_30b();
        let traffic = synth_traffic(seed, 4.0, n, backend.model());
        let cfg = ServeConfig {
            fault: FaultInjector::new(FaultConfig::storm(seed, profile)),
            retry: RetryPolicy::fast_test().with_seeded_jitter(seed, 0.5),
            ..ServeConfig::default()
        };
        let run = ServeSession::new(&backend).config(cfg).run(traffic).unwrap();
        let (plan, out) = run.into_continuous();
        let verdict = conform(&plan, &out).map(|c| c.requests);
        prop_assert_eq!(verdict, Ok(n), "under {} storm seed {}", profile.name(), seed);
    }
}

/// A deadline that expires while the request is still in the wait queue
/// resolves as a typed deadline rejection — and the request never
/// occupies a slot: no token is ever emitted for it and no admission is
/// charged to it.
#[test]
fn queued_deadline_expiry_rejects_without_ever_taking_a_slot() {
    let backend = AnalyticBackend::opt_30b();
    let cfg = ServeConfig::default();
    // Every slot of the plan is held for a long generation by a
    // higher-priority, deadline-free hog before the doomed request
    // arrives, so it never becomes an admission candidate — which is
    // also why deadline rescue (it reclaims pages for a *candidate*)
    // cannot fire — and its deadline expires while it waits.
    let hogs = derive_plan(&backend, &cfg).0.slots as u64;
    let doomed_id = hogs;
    let mut requests: Vec<Request> = (0..hogs)
        .map(|id| Request::new(id, vec![1, 2, 3], 48).with_priority(2))
        .collect();
    requests.push(
        Request::new(doomed_id, vec![4, 5], 8)
            .with_priority(0)
            .with_arrival_us(1)
            .with_deadline_us(1_000_000), // 1 virtual second: far before any hog finishes
    );
    let mut events = Vec::new();
    let out = ServeSession::new(&backend)
        .config(cfg)
        .run_streaming(requests, &mut |e| events.push(e))
        .unwrap()
        .outcome;

    assert_eq!(out.responses.len() as u64, hogs, "every hog completes");
    assert!(out.responses.iter().all(|r| r.id != doomed_id));
    assert_eq!(out.rejections.len(), 1);
    let rej = &out.rejections[0];
    assert_eq!(rej.id, doomed_id);
    assert!(
        matches!(rej.reason, RejectReason::DeadlineExpired { .. }),
        "expected a deadline rejection, got {:?}",
        rej.reason
    );
    assert_eq!(out.deadline_misses, 1);
    assert!(
        events.iter().all(|e| e.request_id != doomed_id),
        "the expired request must never emit a token"
    );
    assert_eq!(
        out.stats.admitted, hogs,
        "only the hogs are ever admitted: {:?}",
        out.stats
    );
    assert_eq!(out.stats.preemptions, 0, "nothing was evicted to make room");
}
