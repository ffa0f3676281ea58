//! `repro chaos` — the deterministic chaos harness (DESIGN.md §9.2): the
//! continuous-batching scheduler is driven under a seeded fault storm
//! (pool pressure, transfer stalls, client disconnects, slot crashes)
//! and the run is judged on hard invariants rather than throughput:
//!
//! 1. **Zero leaked KV leases** — every slot's RAII lease returns to the
//!    serve pool no matter how the admission ended — and **zero leaked
//!    pages**: the paged pool's page table is empty once every sequence
//!    has reached a terminal state;
//! 2. **Total resolution** — every request reaches exactly one terminal
//!    state (response, rejection, or cancellation);
//! 3. **Conservation** — admissions balance completions, in-slot
//!    cancellations, preemptions and crashes (2 and 3: the lifecycle
//!    spec, [`conform`], accepts the storm run);
//! 4. **Transparency** — on the real miniature engine, every survivor's
//!    token stream is identical to a solo `Engine::run` of the same
//!    request, crashes and resumptions notwithstanding;
//! 5. **Replay** — the whole report is byte-identical when the harness
//!    runs again from the same seed (the storm is stateless SplitMix64).
//!
//! `repro chaos --seed N --storm <profile>` exits non-zero when any
//! invariant breaks.

use lm_engine::GenerateRequest;
use lm_fault::{FaultConfig, FaultInjector, FaultStats, RetryPolicy, StormProfile};
use lm_serve::{
    conform, synth_traffic, AnalyticBackend, EngineBackend, Request, ServeBackend, ServeConfig,
    ServeOutcome, ServePlan, ServeSession, ServeStats,
};
use serde::{Deserialize, Serialize};

/// The hard invariants the harness gates on.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosInvariants {
    /// Serve-pool bytes still leased at end of run == 0.
    pub zero_leaked_leases: bool,
    /// Paged-pool pages still mapped at end of run == 0 — the
    /// page-granular sibling of the lease invariant: every terminal
    /// state (completion, cancellation, preemption, crash) must drop
    /// its whole page table, shared refcounts included.
    pub zero_leaked_pages: bool,
    /// The lifecycle spec accepts the run and it resolved every request.
    pub all_resolved: bool,
    /// The lifecycle spec accepts the run (its admission tallies make
    /// admitted == completed + cancelled_in_slot + preemptions + crashes).
    pub admissions_balanced: bool,
    /// Every engine-backend survivor matches its solo `Engine::run`.
    pub survivors_transparent: bool,
    /// A second run from the same seed serialises byte-identically.
    pub replay_identical: bool,
}

impl ChaosInvariants {
    pub fn all_hold(&self) -> bool {
        self.zero_leaked_leases
            && self.zero_leaked_pages
            && self.all_resolved
            && self.admissions_balanced
            && self.survivors_transparent
            && self.replay_identical
    }
}

/// Everything `repro chaos` writes to `results/chaos.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    pub seed: u64,
    pub storm: String,
    pub rps: f64,
    pub requests: usize,
    pub plan: ServePlan,
    pub completed: usize,
    pub rejected: usize,
    pub cancelled: usize,
    /// Terminal states reached (must equal `requests`).
    pub resolved: usize,
    pub kv_leaked_bytes: u64,
    /// KV pages still mapped when the run ended (must be zero).
    pub kv_pages_leaked: u64,
    /// Admission-lifecycle accounting from the scheduler.
    pub stats: ServeStats,
    /// Injected-fault counters from the storm injector.
    pub faults: FaultStats,
    /// Engine-backend survivors checked token-for-token against solo runs.
    pub survivors_checked: usize,
    pub invariants: ChaosInvariants,
    pub invariants_ok: bool,
}

/// One analytic-backend pass under the storm; a fresh injector per call
/// so replay sees identical fault state. The injector's counters are
/// shared with the clone the scheduler attaches to the pool, so they are
/// fully populated when the pass returns.
fn storm_pass(
    seed: u64,
    profile: StormProfile,
    rps: f64,
    n: usize,
) -> (ServePlan, ServeOutcome, FaultStats) {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, backend.model());
    let injector = FaultInjector::new(FaultConfig::storm(seed, profile));
    let cfg = ServeConfig {
        fault: injector.clone(),
        retry: RetryPolicy::fast_test().with_seeded_jitter(seed, 0.5),
        ..ServeConfig::default()
    };
    let (plan, out) = ServeSession::new(&backend)
        .config(cfg)
        .run(traffic)
        .unwrap_or_else(|e| panic!("chaos serving failed: {e}"))
        .into_continuous();
    (plan, out, injector.stats())
}

/// Transparency under fire: serve a small batch on the *real* miniature
/// engine with the same storm profile; every request that survives to a
/// response must carry exactly the tokens of a solo `Engine::run`.
/// Returns `(survivors_checked, all_matched)`.
fn engine_transparency_pass(seed: u64, profile: StormProfile) -> (usize, bool) {
    let backend = EngineBackend::tiny_test(seed)
        .unwrap_or_else(|e| panic!("tiny engine backend failed: {e}"));
    let prompts: [&[u32]; 4] = [&[1, 2, 3], &[4, 5], &[6, 7, 8, 9, 10], &[11]];
    let requests: Vec<Request> = prompts
        .iter()
        .enumerate()
        .map(|(i, p)| Request::new(i as u64, p.to_vec(), 4 + i).with_arrival_us(i as u64 * 100))
        .collect();
    let cfg = ServeConfig {
        fault: FaultInjector::new(FaultConfig::storm(seed, profile)),
        retry: RetryPolicy::fast_test().with_seeded_jitter(seed, 0.5),
        ..ServeConfig::default()
    };
    let out = ServeSession::new(&backend)
        .config(cfg)
        .run(requests)
        .unwrap_or_else(|e| panic!("engine chaos serving failed: {e}"))
        .outcome;
    let mut all_matched = true;
    for r in &out.responses {
        let prompt = prompts[r.id as usize].to_vec();
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![prompt], 4 + r.id as usize))
            .unwrap_or_else(|e| panic!("solo engine run failed: {e}"));
        all_matched &= r.tokens == solo.tokens[0];
    }
    (out.responses.len(), all_matched)
}

/// Run the harness: two analytic storm passes (replay check), one
/// engine-backend transparency pass, and the invariant verdicts.
pub fn run(seed: u64, profile: StormProfile, rps: f64, n: usize) -> ChaosReport {
    let (plan, out, faults) = storm_pass(seed, profile, rps, n);
    let (_, replay, _) = storm_pass(seed, profile, rps, n);
    let replay_identical = serde_json::to_string(&out)
        .and_then(|a| serde_json::to_string(&replay).map(|b| a == b))
        .unwrap_or(false);
    let (survivors_checked, survivors_transparent) = engine_transparency_pass(seed, profile);

    let conformed = conform(&plan, &out).ok();
    let invariants = ChaosInvariants {
        zero_leaked_leases: out.kv_leaked_bytes == 0 && replay.kv_leaked_bytes == 0,
        zero_leaked_pages: out.kv_pages_leaked == 0 && replay.kv_pages_leaked == 0,
        all_resolved: conformed.as_ref().is_some_and(|c| c.requests == n),
        admissions_balanced: conformed.is_some(),
        survivors_transparent,
        replay_identical,
    };
    let invariants_ok = invariants.all_hold();
    ChaosReport {
        seed,
        storm: profile.name().to_string(),
        rps,
        requests: n,
        plan,
        completed: out.responses.len(),
        rejected: out.rejections.len(),
        cancelled: out.cancellations.len(),
        resolved: out.terminal_count(),
        kv_leaked_bytes: out.kv_leaked_bytes as u64,
        kv_pages_leaked: out.kv_pages_leaked,
        stats: out.stats,
        faults,
        survivors_checked,
        invariants,
        invariants_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_REQUESTS, DEFAULT_RPS, DEFAULT_SEED};

    #[test]
    fn default_storm_holds_every_invariant() {
        let r = run(DEFAULT_SEED, StormProfile::Default, DEFAULT_RPS, DEFAULT_REQUESTS);
        assert!(r.invariants_ok, "invariants: {:?}", r.invariants);
        assert_eq!(r.resolved, r.requests);
        assert!(
            r.cancelled > 0 || r.stats.slot_crashes > 0,
            "the default storm must actually interrupt something: {:?}",
            r.stats
        );
    }

    #[test]
    fn every_profile_resolves_and_reclaims() {
        for profile in StormProfile::ALL {
            let r = run(3, profile, DEFAULT_RPS, 16);
            assert!(
                r.invariants.zero_leaked_leases
                    && r.invariants.zero_leaked_pages
                    && r.invariants.all_resolved,
                "{}: {:?}",
                profile.name(),
                r.invariants
            );
        }
    }

    #[test]
    fn report_is_byte_deterministic() {
        let a = serde_json::to_string(&run(11, StormProfile::Crashes, DEFAULT_RPS, 12)).unwrap();
        let b = serde_json::to_string(&run(11, StormProfile::Crashes, DEFAULT_RPS, 12)).unwrap();
        assert_eq!(a, b);
    }
}
