//! Model-guided graceful degradation.
//!
//! When the platform misbehaves *persistently* — the device pool stays
//! under pressure past the retry budget, or the interconnect runs at a
//! fraction of its nominal bandwidth — retrying harder is the wrong
//! recovery. Instead the controller re-runs the paper's analytic
//! machinery ([`lm_offload_evaluator`], the same Eq. 3-7-aware scoring
//! the [`crate::Advisor`] uses) against a *degraded* platform
//! description, and picks the fallback policy the model ranks fastest
//! among those still feasible. Generation then continues at the
//! degraded-but-feasible policy rather than failing.
//!
//! The engine-side driver [`generate_with_degradation`] wires this to
//! `lm-engine`: a sustained `PoolExhausted` (survived the retry budget)
//! triggers a fallback selection plus a switch to serial (prefetch-off)
//! streaming, which halves the in-flight device working set — the
//! backpressure-aware half of the recovery.

use crate::policy_search::lm_offload_evaluator;
use crate::provider::ThreadFactors;
use crate::quant_model::QuantCostParams;
use lm_engine::{Engine, EngineError, EngineOptions, GenerateRequest, Generation};
use lm_hardware::Platform;
use lm_models::{DType, ModelConfig, Workload};
use lm_sim::{AttentionPlacement, Policy};
use serde::{Deserialize, Serialize};

/// What went wrong, in the terms the performance model understands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradationTrigger {
    /// Sustained device-pool exhaustion: only `available_fraction` of
    /// the planned device budget is actually usable.
    PoolPressure { available_fraction: f64 },
    /// The link runs at `factor` (in (0, 1]) of its nominal bandwidth.
    BandwidthDrop { factor: f64 },
}

// The vendored serde derive handles only unit enum variants, so the
// data-carrying trigger serialises by hand as {"kind": ..., "value": ...}.
impl Serialize for DegradationTrigger {
    fn serialize(&self) -> serde::Value {
        let (kind, value) = match self {
            DegradationTrigger::PoolPressure { available_fraction } => {
                ("pool_pressure", *available_fraction)
            }
            DegradationTrigger::BandwidthDrop { factor } => ("bandwidth_drop", *factor),
        };
        let mut m = serde::Map::new();
        m.insert("kind".into(), serde::Value::String(kind.into()));
        m.insert("value".into(), serde::Value::Float(value));
        serde::Value::Object(m)
    }
}

impl Deserialize for DegradationTrigger {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected trigger object"))?;
        let kind: String = serde::field(obj, "kind")?;
        let v: f64 = serde::field(obj, "value")?;
        match kind.as_str() {
            "pool_pressure" => Ok(DegradationTrigger::PoolPressure {
                available_fraction: v,
            }),
            "bandwidth_drop" => Ok(DegradationTrigger::BandwidthDrop { factor: v }),
            other => Err(serde::Error::custom(format!("unknown trigger kind '{other}'"))),
        }
    }
}

/// One accepted policy switch, for reporting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicySwitch {
    pub trigger: DegradationTrigger,
    pub from: Policy,
    pub to: Policy,
    /// The analytic throughput the model predicted for `to` on the
    /// degraded platform, tokens/s.
    pub predicted_throughput: f64,
}

/// The degradation controller: holds the analytic context (platform,
/// model, workload, kernel quality) needed to re-score policies when a
/// trigger fires.
#[derive(Debug, Clone)]
pub struct DegradationController {
    pub platform: Platform,
    pub model: ModelConfig,
    pub workload: Workload,
    pub params: QuantCostParams,
    pub threads: ThreadFactors,
}

impl DegradationController {
    pub fn new(
        platform: &Platform,
        model: &ModelConfig,
        workload: &Workload,
        params: QuantCostParams,
    ) -> Self {
        DegradationController {
            platform: platform.clone(),
            model: model.clone(),
            workload: *workload,
            params,
            threads: ThreadFactors::Controlled,
        }
    }

    /// The platform as the trigger describes it: reduced GPU memory
    /// under pool pressure, scaled link bandwidth under a drop.
    pub fn degraded_platform(&self, trigger: DegradationTrigger) -> Platform {
        let mut p = self.platform.clone();
        match trigger {
            DegradationTrigger::PoolPressure { available_fraction } => {
                let f = available_fraction.clamp(0.0, 1.0);
                p.gpu.mem_capacity = (p.gpu.mem_capacity as f64 * f) as u64;
            }
            DegradationTrigger::BandwidthDrop { factor } => {
                let f = factor.clamp(1e-6, 1.0);
                p.link.h2d_bw *= f;
                p.link.d2h_bw *= f;
            }
        }
        p
    }

    /// The fallback ladder from `current`: progressively cheaper
    /// (smaller-footprint, lower-traffic) policies, ending at the
    /// fully-offloaded Int4 configuration. Invalid rungs and the
    /// current policy itself are filtered out.
    pub fn fallback_ladder(&self, current: &Policy) -> Vec<Policy> {
        let mut rungs: Vec<Policy> = Vec::new();
        let push = |p: Policy, rungs: &mut Vec<Policy>| {
            if p.validate().is_ok() && p != *current && !rungs.contains(&p) {
                rungs.push(p);
            }
        };
        // 1. Quantize the weights: smaller stream, smaller resident set.
        let mut w4 = *current;
        w4.weights_dtype = DType::Int4;
        push(w4, &mut rungs);
        // 2. Quantize the KV cache.
        let mut k4 = *current;
        k4.kv_dtype = DType::Int4;
        push(k4, &mut rungs);
        // 3. Both.
        let mut b4 = w4;
        b4.kv_dtype = DType::Int4;
        push(b4, &mut rungs);
        // 4. Both, with halved GPU-resident shares.
        let mut half = b4;
        half.wg /= 2.0;
        half.cg /= 2.0;
        push(half, &mut rungs);
        // 5. Offload attention (KV stays on host), quantized weights.
        let mut cpu_att = w4;
        cpu_att.attention = AttentionPlacement::Cpu;
        cpu_att.cg = 0.0;
        push(cpu_att, &mut rungs);
        // 6. Fully offloaded, everything Int4 — the floor.
        let floor = Policy {
            wg: 0.0,
            cg: 0.0,
            hg: 0.0,
            weights_dtype: DType::Int4,
            kv_dtype: DType::Int4,
            attention: AttentionPlacement::Cpu,
        };
        push(floor, &mut rungs);
        rungs
    }

    /// Pick the fallback the analytic model ranks fastest among the
    /// ladder's rungs that remain *feasible* on the degraded platform.
    /// `None` when no rung fits — the caller must surface a hard error.
    pub fn select_fallback(
        &self,
        trigger: DegradationTrigger,
        current: &Policy,
    ) -> Option<(Policy, f64)> {
        let platform = self.degraded_platform(trigger);
        let mut best: Option<(Policy, f64)> = None;
        for rung in self.fallback_ladder(current) {
            if let Some(tput) = lm_offload_evaluator(
                &platform,
                &self.model,
                &self.workload,
                &rung,
                self.params,
                self.threads,
            ) {
                if best.map(|(_, b)| tput > b).unwrap_or(true) {
                    best = Some((rung, tput));
                }
            }
        }
        best
    }

    /// The serving-side view of [`Self::fallback_ladder`]: each rung is
    /// re-scored by the analytic evaluator on the *healthy* platform,
    /// and rungs the model ranks faster than `base` become
    /// [`lm_serve::DegradeRung`]s whose `step_time_factor` is the
    /// modelled step-time ratio `base_tput / rung_tput` (< 1 — quantized
    /// streams shrink the shared weight fetch, Eq. 2). Rungs the model
    /// cannot score, or scores no faster than the base, are dropped; the
    /// rest are ordered mildest-first, so the scheduler's one-way
    /// ratchet climbs from least to most degraded. An empty ladder (no
    /// rung outruns the base) leaves shedding and preemption.
    pub fn serve_ladder(&self, base: &Policy) -> Vec<lm_serve::DegradeRung> {
        let score = |p: &Policy| {
            lm_offload_evaluator(
                &self.platform,
                &self.model,
                &self.workload,
                p,
                self.params,
                self.threads,
            )
        };
        let mut rungs: Vec<lm_serve::DegradeRung> = Vec::new();
        if let Some(base_tput) = score(base) {
            for rung in self.fallback_ladder(base) {
                let Some(tput) = score(&rung) else { continue };
                let factor = base_tput / tput;
                if factor < 1.0 {
                    rungs.push(lm_serve::DegradeRung {
                        name: describe_policy(&rung),
                        step_time_factor: factor,
                    });
                }
            }
        }
        // Mildest degradation first: the ratchet should take the
        // smallest step that might hold the objective.
        rungs.sort_by(|a, b| {
            b.step_time_factor
                .total_cmp(&a.step_time_factor)
                .then_with(|| a.name.cmp(&b.name))
        });
        rungs
    }
}

/// A short human label for a fallback policy, used as the rung name.
fn describe_policy(p: &Policy) -> String {
    let att = match p.attention {
        AttentionPlacement::Gpu => "gpu",
        AttentionPlacement::Cpu => "cpu",
    };
    format!(
        "w:{:?}/kv:{:?}/att:{att}/wg:{:.2}",
        p.weights_dtype, p.kv_dtype, p.wg
    )
}

/// Result of a degradation-aware generation run.
#[derive(Debug)]
pub struct DegradedGeneration {
    pub generation: Generation,
    /// The policy generation finally completed under.
    pub policy: Policy,
    /// Accepted policy switches, in order.
    pub switches: Vec<PolicySwitch>,
}

/// Least GPU-memory fraction the degradation controller will plan for
/// after observing an exhausted pool: transient spikes can sample as low
/// as zero, which would make every policy infeasible.
const MIN_ASSUMED_FRACTION: f64 = 0.25;

/// Run generation with graceful degradation: build an engine for
/// `initial_policy`, and on sustained device-pool exhaustion (an error
/// that already survived the engine's retry budget) ask `controller`
/// for the model-ranked fallback, rebuild with the degraded options —
/// prefetch off, so only one layer is in flight — and continue. Bounded
/// by the ladder length; returns [`EngineError::Degraded`] when no
/// feasible fallback remains.
#[allow(clippy::too_many_arguments)]
pub fn generate_with_degradation(
    controller: &DegradationController,
    cfg: &ModelConfig,
    seed: u64,
    base_options: &EngineOptions,
    initial_policy: Policy,
    prompts: &[Vec<u32>],
    gen_len: usize,
) -> Result<DegradedGeneration, EngineError> {
    let fault = base_options.fault.clone();
    let options_for = |p: &Policy| base_options.clone().with_dtypes(p.weights_dtype, p.kv_dtype);
    let mut policy = initial_policy;
    let mut options = options_for(&policy);
    let mut switches: Vec<PolicySwitch> = Vec::new();
    // One attempt per ladder rung plus the initial try.
    let max_attempts = controller.fallback_ladder(&initial_policy).len() + 1;
    for _ in 0..max_attempts {
        let engine = Engine::new(cfg, seed, options.clone())?;
        match engine.run(&GenerateRequest::new(prompts.to_vec(), gen_len)) {
            Ok(generation) => {
                return Ok(DegradedGeneration {
                    generation,
                    policy,
                    switches,
                })
            }
            Err(EngineError::Pool(e)) => {
                // The retry budget is spent: treat the observed capacity
                // as the new device budget and let the model choose. The
                // observation is one (worst-case) sample though — a spike
                // can momentarily leave *zero* headroom, and planning for
                // a zero-memory GPU would rule out every policy. Floor
                // the assumption instead: if pressure really persists at
                // the fallback, the next loop iteration samples again and
                // steps further down the ladder.
                let observed = (e.capacity as f64 / options.device_capacity.max(1) as f64)
                    .clamp(0.0, 1.0);
                let trigger = DegradationTrigger::PoolPressure {
                    available_fraction: observed.max(MIN_ASSUMED_FRACTION),
                };
                let Some((next, predicted_throughput)) =
                    controller.select_fallback(trigger, &policy)
                else {
                    return Err(EngineError::Degraded(format!(
                        "no feasible fallback policy after sustained pool pressure: {e}"
                    )));
                };
                fault.note_degradation();
                switches.push(PolicySwitch {
                    trigger,
                    from: policy,
                    to: next,
                    predicted_throughput,
                });
                policy = next;
                options = options_for(&policy);
                // Backpressure response: stop prefetching so only one
                // layer occupies the squeezed pool at a time.
                options.prefetch = false;
            }
            Err(e) => return Err(e),
        }
    }
    Err(EngineError::Degraded(format!(
        "pool pressure persisted through {} fallback policies",
        switches.len()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_hardware::presets;
    use lm_models::presets as models;

    fn controller() -> DegradationController {
        DegradationController::new(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &Workload::motivation(),
            QuantCostParams::lm_offload_kernels(),
        )
    }

    #[test]
    fn degraded_platform_shrinks_the_right_axis() {
        let c = controller();
        let p = c.degraded_platform(DegradationTrigger::PoolPressure {
            available_fraction: 0.5,
        });
        assert_eq!(p.gpu.mem_capacity, c.platform.gpu.mem_capacity / 2);
        assert_eq!(p.link.h2d_bw, c.platform.link.h2d_bw);
        let q = c.degraded_platform(DegradationTrigger::BandwidthDrop { factor: 0.25 });
        assert_eq!(q.link.h2d_bw, c.platform.link.h2d_bw * 0.25);
        assert_eq!(q.gpu.mem_capacity, c.platform.gpu.mem_capacity);
    }

    #[test]
    fn ladder_is_valid_and_excludes_current() {
        let c = controller();
        let current = Policy::flexgen_default();
        let ladder = c.fallback_ladder(&current);
        assert!(ladder.len() >= 3);
        for p in &ladder {
            assert!(p.validate().is_ok(), "{p:?}");
            assert_ne!(*p, current);
        }
    }

    #[test]
    fn select_fallback_matches_independent_evaluator_ranking() {
        // The acceptance condition: the controller's pick is exactly the
        // rung the analytic model scores fastest among feasible ones.
        let c = controller();
        let current = Policy::flexgen_default();
        let trigger = DegradationTrigger::BandwidthDrop { factor: 0.3 };
        let (chosen, tput) = c.select_fallback(trigger, &current).expect("a fallback");
        let degraded = c.degraded_platform(trigger);
        let mut best_seen = f64::NEG_INFINITY;
        for rung in c.fallback_ladder(&current) {
            if let Some(t) = lm_offload_evaluator(
                &degraded,
                &c.model,
                &c.workload,
                &rung,
                c.params,
                c.threads,
            ) {
                best_seen = best_seen.max(t);
            }
        }
        assert_eq!(tput, best_seen, "controller must pick the model's argmax");
        let chosen_score = lm_offload_evaluator(
            &degraded,
            &c.model,
            &c.workload,
            &chosen,
            c.params,
            c.threads,
        )
        .expect("chosen rung must be feasible");
        assert_eq!(chosen_score, tput);
    }

    #[test]
    fn pool_pressure_fallback_is_feasible_on_shrunk_gpu() {
        let c = controller();
        let mut current = Policy::flexgen_default();
        current.wg = 0.4; // a resident share the shrunk GPU can't hold
        let trigger = DegradationTrigger::PoolPressure {
            available_fraction: 0.3,
        };
        let (chosen, _) = c.select_fallback(trigger, &current).expect("a fallback");
        let degraded = c.degraded_platform(trigger);
        assert!(lm_sim::fits(&c.model, &c.workload, &degraded, &chosen));
    }

    #[test]
    fn serve_ladder_rungs_are_improving_and_mildest_first() {
        let c = controller();
        // A fully-resident FP16 base leaves plenty of modelled headroom
        // for quantized fallbacks to outrun it.
        let base = Policy::flexgen_default();
        let ladder = c.serve_ladder(&base);
        assert!(
            !ladder.is_empty(),
            "quantized rungs must outrun the fp16 base in the model"
        );
        let mut prev = 1.0f64;
        for r in &ladder {
            assert!(
                r.step_time_factor > 0.0 && r.step_time_factor < 1.0,
                "{}: factor {} outside (0, 1)",
                r.name,
                r.step_time_factor
            );
            assert!(
                r.step_time_factor <= prev,
                "ladder must be ordered mildest-first"
            );
            prev = r.step_time_factor;
        }
    }

    #[test]
    fn serve_ladder_is_one_based_like_the_trait_contract() {
        let c = controller();
        let ladder = c.serve_ladder(&Policy::flexgen_default());
        // Level 0 is "no degradation"; level `i` is in force once the
        // scheduler has climbed the first `i` rungs.
        assert_eq!(lm_serve::degrade_factor(&ladder, 0), 1.0);
        assert_eq!(
            lm_serve::degrade_factor(&ladder, 1),
            ladder[0].step_time_factor,
            "level 1 is the first, mildest rung"
        );
        let n = ladder.len();
        assert_eq!(
            lm_serve::degrade_factor(&ladder, n),
            ladder[n - 1].step_time_factor,
            "the top level is the last, fastest rung"
        );
    }

    #[test]
    fn engine_options_map_precisions() {
        // The one mapping lives on `EngineOptions`; f16 K/V is held at f32.
        for ((w, kv), held) in [
            ((DType::Int4, DType::Int8), DType::Int8),
            ((DType::F16, DType::F16), DType::F32),
        ] {
            let o = EngineOptions::default().with_dtypes(w, kv);
            assert_eq!((o.weights_dtype(), o.kv_dtype()), (w, held));
        }
    }
}
