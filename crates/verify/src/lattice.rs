//! The planner-space sweep: enumerate a bounded lattice of deployment
//! configs and prove, at every point, that the planner's lint verdict is
//! consistent with *executable* ground truth.
//!
//! For each lattice point the sweep derives the slot plan twice over:
//! once through `lm-serve`'s pre-flight ([`preflight_reports`]), and once
//! by actually *executing* the planned admissions against a real
//! [`PagedKvPool`] backed by a real byte-accounted `MemPool`. The
//! invariant catalogue (DESIGN.md §10):
//!
//! - `geometry_tiles` (I3): pages tile the plan's KV block exactly and
//!   page bytes equal `page_tokens · bytes_per_token`;
//! - `slots_feasible` (I2): every one of the plan's `slots` admissions
//!   at the planned expected residency is actually granted;
//! - `pool_capacity` (I1): executing those admissions never drives the
//!   pool past capacity and page/byte accounting stays balanced;
//! - `append_protocol` (I1'): every reserved append lands without a
//!   protocol error;
//! - `zero_leaks` (I1''): tearing every sequence down returns the pool
//!   to exactly zero pages and zero bytes;
//! - `ladder_monotone` (I4): the scheduler's clamped effective degrade
//!   factors are positive and non-increasing, so predicted step time
//!   never *rises* while climbing the ladder;
//! - `ttft_floor` (I5): the TTFT predictor never predicts below the
//!   physical floor (one prefill + one step) and is monotone in queue
//!   position;
//! - `slo_meetable` (I6): a configured TTFT objective sits at or above
//!   that floor.
//!
//! Verdict classification per point: lint-clean ∧ truth-fails is a
//! **lint-unsoundness witness** (`LMA291`, gated to zero on the shipped
//! planner); lint-rejects ∧ truth-holds is **lint incompleteness**
//! (reported, tolerated — lints may be conservative); the other two
//! cells are consistent.
//!
//! The sweep is pure arithmetic plus deterministic allocator calls — no
//! clocks, no RNG — so its report is byte-stable across runs.

use lm_analyze::UnsoundnessWitness;
use lm_engine::MemPool;
use lm_kvpool::{PageConfig, PagedKvPool};
use lm_models::{presets, ModelConfig};
use lm_serve::preflight::preflight_reports;
use lm_serve::{AnalyticBackend, ServeBackend, ServeConfig, SloPolicy};
use lm_serve::{DegradeLadder, ServePlan, StaticLadder, TtftModel};
use lm_sim::Policy;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Lattice size: `Full` is the 1,200-point lattice `repro verify` runs;
/// `Quick` is the subsample the debug-mode tier-1 tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepDepth {
    Quick,
    Full,
}

/// Seeded defect injected into the *executable* side of the sweep (the
/// lints never see it — which is exactly what makes it a soundness
/// probe: a mutated execution that fails ground truth while the lints
/// stay green must surface as an `LMA291` witness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Mutation {
    /// Faithful execution of the planned admissions.
    None,
    /// Admission over-grants one page per sequence (reserves one page
    /// of generation headroom beyond what the plan budgeted), the
    /// classic off-by-one that exhausts an exactly-sized pool.
    OvergrantPage,
}

/// The verdict at one lattice point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Human-readable point identity.
    pub config: String,
    /// The planner lints passed (no `Error`-severity finding).
    pub lint_clean: bool,
    /// Every executable invariant held.
    pub truth_ok: bool,
    /// Names of the invariants that failed, in catalogue order.
    pub failed_invariants: Vec<String>,
}

/// Aggregated sweep outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// `(axis, distinct values)` for the `LMA290` degeneracy lint.
    pub axes: Vec<(String, u64)>,
    /// Lattice points explored.
    pub configs: u64,
    /// Points where lints passed but ground truth failed.
    pub unsoundness: Vec<UnsoundnessWitness>,
    /// Points where lints rejected but every invariant held.
    pub incompleteness: u64,
    /// Points where verdict and truth agreed (both ok or both failed).
    pub consistent: u64,
}

struct ModelAxis {
    name: &'static str,
    cfg: ModelConfig,
}

fn model_axis(depth: SweepDepth) -> Vec<ModelAxis> {
    let mut v = vec![
        ModelAxis { name: "opt-13b", cfg: presets::opt_13b() },
        ModelAxis { name: "opt-30b", cfg: presets::opt_30b() },
        ModelAxis { name: "opt-66b", cfg: presets::opt_66b() },
    ];
    if depth == SweepDepth::Full {
        v.insert(0, ModelAxis { name: "opt-6.7b", cfg: presets::opt_6p7b() });
    }
    v
}

/// Pool sizes as worst-case-slab multiples (`0` = planner-derived).
fn pool_axis(depth: SweepDepth) -> Vec<usize> {
    match depth {
        SweepDepth::Quick => vec![0, 2, 4, 16],
        SweepDepth::Full => vec![0, 1, 2, 4, 16],
    }
}

/// Page sizes in tokens (`0` = planner-derived; `11` does not divide
/// the default planning contexts, driving the lint-reject region).
fn page_axis(depth: SweepDepth) -> Vec<usize> {
    match depth {
        SweepDepth::Quick => vec![0, 8, 16, 11],
        SweepDepth::Full => vec![0, 4, 8, 16, 11],
    }
}

#[derive(Clone, Copy, PartialEq)]
enum SloAxis {
    None,
    Observe,
    Enforcing,
    /// An objective far below the physical floor — the planner must
    /// reject it (`LMA260`) and ground truth must agree it is unmeetable.
    BelowFloor,
}

impl SloAxis {
    fn name(self) -> &'static str {
        match self {
            SloAxis::None => "none",
            SloAxis::Observe => "observe",
            SloAxis::Enforcing => "enforcing",
            SloAxis::BelowFloor => "below-floor",
        }
    }

    fn policy(self) -> Option<SloPolicy> {
        match self {
            SloAxis::None => None,
            SloAxis::Observe => Some(SloPolicy::observe(8.0)),
            SloAxis::Enforcing => Some(SloPolicy::enforcing(8.0)),
            SloAxis::BelowFloor => Some(SloPolicy::enforcing(1e-6)),
        }
    }
}

fn slo_axis(depth: SweepDepth) -> Vec<SloAxis> {
    match depth {
        SweepDepth::Quick => vec![SloAxis::None, SloAxis::Enforcing, SloAxis::BelowFloor],
        SweepDepth::Full => vec![
            SloAxis::None,
            SloAxis::Observe,
            SloAxis::Enforcing,
            SloAxis::BelowFloor,
        ],
    }
}

#[derive(Clone, Copy, PartialEq)]
enum LadderAxis {
    None,
    /// Model-guided shape: factors < 1, each rung faster.
    Geometric,
    /// Adversarial shape: raw factors > 1; the scheduler's clamp must
    /// keep the *effective* sequence monotone anyway.
    Inverted,
}

impl LadderAxis {
    fn name(self) -> &'static str {
        match self {
            LadderAxis::None => "none",
            LadderAxis::Geometric => "geo-0.8",
            LadderAxis::Inverted => "inv-1.3",
        }
    }

    fn ladder(self) -> Option<Arc<dyn DegradeLadder>> {
        match self {
            LadderAxis::None => None,
            LadderAxis::Geometric => Some(Arc::new(StaticLadder::geometric(3, 0.8))),
            LadderAxis::Inverted => Some(Arc::new(StaticLadder::geometric(2, 1.3))),
        }
    }
}

fn ladder_axis(depth: SweepDepth) -> Vec<LadderAxis> {
    match depth {
        SweepDepth::Quick => vec![LadderAxis::None, LadderAxis::Geometric],
        SweepDepth::Full => vec![LadderAxis::None, LadderAxis::Geometric, LadderAxis::Inverted],
    }
}

/// Evaluate executable ground truth for one derived plan, returning the
/// failed invariant names in catalogue order (empty = all held).
fn ground_truth(
    backend: &AnalyticBackend,
    cfg: &ServeConfig,
    plan: &ServePlan,
    mutation: Mutation,
) -> Vec<String> {
    let mut failed: Vec<String> = Vec::new();
    let fail = |list: &mut Vec<String>, name: &str| {
        if !list.iter().any(|f| f == name) {
            list.push(name.to_string());
        }
    };

    // I3 geometry_tiles — the executable definition: a page must be
    // nonzero, byte-consistent with the model's per-token KV cost, tile
    // the planning context exactly, and the pool must hold >= 1 page.
    let page_tokens = plan.page_tokens as usize;
    let bytes_per_token = backend.kv_bytes_at(1).max(1);
    let geometry_ok = page_tokens > 0
        && plan.page_bytes as usize == page_tokens * bytes_per_token
        && plan.slot_context.is_multiple_of(page_tokens.max(1))
        && plan.pages_total >= 1;
    if !geometry_ok {
        fail(&mut failed, "geometry_tiles");
    }

    // I1/I2: execute the planned admissions for real. Only meaningful
    // with a constructible pool.
    if page_tokens > 0 && plan.page_bytes > 0 {
        let mem = MemPool::new("verify.kv", plan.kv_pool_bytes as usize);
        let pool = PagedKvPool::new(
            Arc::clone(&mem),
            PageConfig { page_tokens, bytes_per_token },
        );
        let expected_pages = (plan.pages_per_slot as usize).div_ceil(2).max(1);
        let tokens_per_seq = expected_pages * page_tokens;
        let known_len = tokens_per_seq / 2;
        let gen_len = tokens_per_seq - known_len
            + match mutation {
                Mutation::None => 0,
                // One extra page of generation headroom per sequence —
                // the over-grant the lints cannot see.
                Mutation::OvergrantPage => page_tokens,
            };
        let mut seqs = Vec::with_capacity(plan.slots);
        for i in 0..plan.slots {
            // Distinct leading tokens so no prompt shares a prefix:
            // feasibility must hold with zero sharing wins.
            let known: Vec<u32> = (0..known_len)
                .map(|t| (i * 1_000_000 + t + 1) as u32)
                .collect();
            match pool.admit(&known, gen_len) {
                Ok(seq) => seqs.push(seq),
                Err(_) => {
                    fail(&mut failed, "slots_feasible");
                    break;
                }
            }
            if pool.pages_in_use() > pool.capacity_pages() || !pool.accounting_balanced() {
                fail(&mut failed, "pool_capacity");
            }
        }
        // Drive every admitted sequence to its reserved capacity: the
        // reservation contract says no append may fail.
        for (i, seq) in seqs.iter_mut().enumerate() {
            for t in 0..gen_len {
                if seq.append((900_000_000 + i * 10_000 + t) as u32).is_err() {
                    fail(&mut failed, "append_protocol");
                    break;
                }
            }
            if pool.pages_in_use() > pool.capacity_pages() || !pool.accounting_balanced() {
                fail(&mut failed, "pool_capacity");
            }
        }
        drop(seqs);
        if pool.pages_in_use() != 0 || mem.used() != 0 {
            fail(&mut failed, "zero_leaks");
        }
    }

    // I4 ladder_monotone — replicate the scheduler's clamp and require
    // the effective predicted step time never rises along the ladder.
    if let Some(ladder) = cfg.ladder.as_ref() {
        let mut eff = 1.0f64;
        let mut prev_step = plan.est_step_seconds;
        for level in 1..=64 {
            let Some(rung) = ladder.rung(level) else { break };
            eff = eff.min(rung.step_time_factor);
            let step = plan.est_step_seconds * eff;
            if eff.is_nan() || eff <= 0.0 || step > prev_step + 1e-12 {
                fail(&mut failed, "ladder_monotone");
                break;
            }
            prev_step = step;
        }
    }

    // I5 ttft_floor — the predictor must respect the physical floor
    // (one prefill + one step) and be monotone in queue position.
    let prefill_s = backend.prefill_seconds(plan.slot_context, plan.slots.max(1));
    let floor_s = prefill_s + plan.est_step_seconds;
    let ttft = TtftModel {
        slots: plan.slots,
        free_slots: plan.slots,
        remaining_sorted: Vec::new(),
        mean_gen_steps: 32.0,
        prefill_s,
        step_s: plan.est_step_seconds,
    };
    let floor_us = (floor_s * 1e6).ceil().max(0.0) as u64;
    let mut prev = 0u64;
    for pos in 0..(2 * plan.slots.max(1) + 4) {
        let t = ttft.predict_rel_ttft_us(pos);
        if t < floor_us || t < prev {
            fail(&mut failed, "ttft_floor");
            break;
        }
        prev = t;
    }

    // I6 slo_meetable — a configured objective must clear the floor.
    if let Some(slo) = cfg.slo.as_ref() {
        if slo.ttft_p99_s < floor_s {
            fail(&mut failed, "slo_meetable");
        }
    }

    failed
}

/// Run the sweep at `depth` with `mutation` applied to the executable
/// side of every point.
pub fn run_sweep(depth: SweepDepth, mutation: Mutation) -> SweepReport {
    let models = model_axis(depth);
    let pools = pool_axis(depth);
    let pages = page_axis(depth);
    let slos = slo_axis(depth);
    let ladders = ladder_axis(depth);

    let axes = vec![
        ("model".to_string(), models.len() as u64),
        ("pool_bytes".to_string(), pools.len() as u64),
        ("page_tokens".to_string(), pages.len() as u64),
        ("slo".to_string(), slos.len() as u64),
        ("ladder".to_string(), ladders.len() as u64),
    ];

    let mut report = SweepReport {
        axes,
        configs: 0,
        unsoundness: Vec::new(),
        incompleteness: 0,
        consistent: 0,
    };

    for m in &models {
        let backend = AnalyticBackend::new(
            lm_hardware::presets::single_gpu_a100(),
            m.cfg.clone(),
            Policy::flexgen_default(),
        );
        // One worst-case slab at the default planning context, used to
        // express the pool axis in model-relative units.
        let default_context = ((m.cfg.max_seq_len / 4) as usize).max(2);
        let slab_bytes = backend.kv_bytes_at(default_context).max(1);
        for &pool_mult in &pools {
            for &page_tokens in &pages {
                for &slo in &slos {
                    for &ladder in &ladders {
                        let cfg = ServeConfig {
                            kv_pool_bytes: pool_mult * slab_bytes,
                            page_tokens,
                            slo: slo.policy(),
                            ladder: ladder.ladder(),
                            ..ServeConfig::default()
                        };
                        // The plan-time verdict the sweep judges is the
                        // whole shipped virtual-clock pre-flight.
                        let (plan, reports) = preflight_reports(&backend, &cfg, None);
                        let lint_clean = reports.iter().all(|r| r.is_clean());
                        let failed = ground_truth(&backend, &cfg, &plan, mutation);
                        let truth_ok = failed.is_empty();
                        report.configs += 1;
                        let config = format!(
                            "{}/pool={}x/page={}/slo={}/ladder={}",
                            m.name,
                            pool_mult,
                            page_tokens,
                            slo.name(),
                            ladder.name()
                        );
                        match (lint_clean, truth_ok) {
                            (true, false) => report.unsoundness.push(UnsoundnessWitness {
                                config,
                                invariant: failed.join("+"),
                                detail: format!(
                                    "plan: slots={} pages_total={} pages_per_slot={} \
                                     page_tokens={} — lints clean, execution violated [{}]",
                                    plan.slots,
                                    plan.pages_total,
                                    plan.pages_per_slot,
                                    plan.page_tokens,
                                    failed.join(", ")
                                ),
                            }),
                            (false, true) => report.incompleteness += 1,
                            _ => report.consistent += 1,
                        }
                    }
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lattice_covers_the_floor_with_no_degenerate_axis() {
        let axes_product: u64 = [
            model_axis(SweepDepth::Quick).len(),
            pool_axis(SweepDepth::Quick).len(),
            page_axis(SweepDepth::Quick).len(),
            slo_axis(SweepDepth::Quick).len(),
            ladder_axis(SweepDepth::Quick).len(),
        ]
        .iter()
        .map(|&n| n as u64)
        .product();
        assert!(axes_product >= 200, "quick lattice too small: {axes_product}");
        for n in [
            model_axis(SweepDepth::Quick).len(),
            pool_axis(SweepDepth::Quick).len(),
            page_axis(SweepDepth::Quick).len(),
            slo_axis(SweepDepth::Quick).len(),
            ladder_axis(SweepDepth::Quick).len(),
        ] {
            assert!(n >= 2, "degenerate axis in the quick lattice");
        }
    }

    #[test]
    fn shipped_planner_has_zero_unsoundness_witnesses_on_one_model_slice() {
        // The full quick sweep runs under `repro verify`; here a single
        // model keeps the unit suite fast while still crossing every
        // other axis.
        let report = run_sweep_single_model(Mutation::None);
        assert!(
            report.unsoundness.is_empty(),
            "unsoundness witnesses: {:?}",
            report.unsoundness
        );
        assert!(report.consistent > 0);
    }

    #[test]
    fn overgrant_mutation_is_caught_as_a_witness() {
        let report = run_sweep_single_model(Mutation::OvergrantPage);
        assert!(
            !report.unsoundness.is_empty(),
            "the seeded over-grant must produce at least one LMA291 witness"
        );
        let w = &report.unsoundness[0];
        assert!(w.invariant.contains("slots_feasible") || w.invariant.contains("pool_capacity"),
            "unexpected invariant: {}", w.invariant);
    }

    /// One-model slice of the quick lattice, for unit-test cost.
    fn run_sweep_single_model(mutation: Mutation) -> SweepReport {
        let backend = AnalyticBackend::opt_30b();
        let m = presets::opt_30b();
        let default_context = ((m.max_seq_len / 4) as usize).max(2);
        let slab_bytes = backend.kv_bytes_at(default_context).max(1);
        let mut report = SweepReport {
            axes: Vec::new(),
            configs: 0,
            unsoundness: Vec::new(),
            incompleteness: 0,
            consistent: 0,
        };
        for &pool_mult in &pool_axis(SweepDepth::Quick) {
            for &page_tokens in &page_axis(SweepDepth::Quick) {
                let cfg = ServeConfig {
                    kv_pool_bytes: pool_mult * slab_bytes,
                    page_tokens,
                    ..ServeConfig::default()
                };
                let (plan, reports) = preflight_reports(&backend, &cfg, None);
                let failed = ground_truth(&backend, &cfg, &plan, mutation);
                report.configs += 1;
                match (reports.iter().all(|r| r.is_clean()), failed.is_empty()) {
                    (true, false) => report.unsoundness.push(UnsoundnessWitness {
                        config: format!("opt-30b/pool={pool_mult}x/page={page_tokens}"),
                        invariant: failed.join("+"),
                        detail: String::new(),
                    }),
                    (false, true) => report.incompleteness += 1,
                    _ => report.consistent += 1,
                }
            }
        }
        report
    }

    #[test]
    fn sweep_report_is_deterministic() {
        let a = serde_json::to_string(&run_sweep_single_model(Mutation::None)).unwrap();
        let b = serde_json::to_string(&run_sweep_single_model(Mutation::None)).unwrap();
        assert_eq!(a, b);
    }
}
