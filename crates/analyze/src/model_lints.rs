//! `LMA20x` — the analytic model (Eq. 1-24) mixes bytes, bytes/second
//! and seconds; a units slip (GB vs bytes, ms vs s) silently corrupts
//! every downstream estimate. These lints check a [`ModelProbe`] sampled
//! from the live implementation against relations that must hold
//! dimensionally and structurally. Sampling and checking are separate so
//! a mutation can corrupt a probe field without constructing an
//! inconsistent `CostProvider`.

use crate::diag::{Diagnostic, LintCode, Report};
use lm_hardware::Platform;
use lm_models::{footprint, DType, ModelConfig, Workload};
use lm_sim::{t_gen, BaseCostModel, CostProvider, Policy, TaskKind};
use serde::{Deserialize, Serialize};

/// Observations sampled from a deployment's cost model at one decode
/// step, in base units (bytes, bytes/second, seconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelProbe {
    /// Effective host-to-device bandwidth, bytes/s.
    pub h2d_bw: f64,
    /// Effective device-to-host bandwidth, bytes/s.
    pub d2h_bw: f64,
    /// Streamed weight bytes per layer.
    pub weight_bytes: f64,
    /// Decode step the times were sampled at.
    pub token: u64,
    /// Batches per zig-zag block.
    pub num_batches: u64,
    /// Sampled per-task durations, seconds (per layer; cache/activation
    /// tasks are per batch).
    pub load_weight_time: f64,
    pub load_cache_time: f64,
    pub load_activation_time: f64,
    pub store_cache_time: f64,
    pub store_activation_time: f64,
    pub compute_cpu_time: f64,
    pub compute_gpu_time: f64,
    /// Sampled `T_gen` at the same step (Eq. 2).
    pub t_gen: f64,
    /// At-rest weight footprint under the policy's dtype, bytes.
    pub weights_at_rest_bytes: f64,
    /// The same footprint at fp16, bytes.
    pub weights_f16_bytes: f64,
    /// At-rest KV footprint under the policy's dtype, bytes.
    pub kv_at_rest_bytes: f64,
    /// The same KV footprint at fp16, bytes.
    pub kv_f16_bytes: f64,
}

impl ModelProbe {
    /// Sample a probe from the analytic model of a deployment at decode
    /// step `token`.
    pub fn sample(
        platform: &Platform,
        model: &ModelConfig,
        workload: &Workload,
        policy: &Policy,
        token: u64,
    ) -> ModelProbe {
        let base = BaseCostModel::new(platform, model, workload, *policy);
        let tasks = base.tasks(token);
        ModelProbe {
            h2d_bw: platform.h2d_bw(),
            d2h_bw: platform.d2h_bw(),
            weight_bytes: base.weight_bytes_per_layer() as f64,
            token,
            num_batches: workload.num_batches,
            load_weight_time: tasks[TaskKind::LoadWeight],
            load_cache_time: tasks[TaskKind::LoadCache],
            load_activation_time: tasks[TaskKind::LoadActivation],
            store_cache_time: tasks[TaskKind::StoreCache],
            store_activation_time: tasks[TaskKind::StoreActivation],
            compute_cpu_time: tasks[TaskKind::ComputeCpu],
            compute_gpu_time: tasks[TaskKind::ComputeGpu],
            t_gen: t_gen(&base, token, workload.num_batches),
            weights_at_rest_bytes: footprint::weights_bytes(model, policy.weights_dtype) as f64,
            weights_f16_bytes: footprint::weights_bytes(model, DType::F16) as f64,
            kv_at_rest_bytes: footprint::kv_cache_bytes_peak(model, workload, policy.kv_dtype)
                as f64,
            kv_f16_bytes: footprint::kv_cache_bytes_peak(model, workload, DType::F16) as f64,
        }
    }

    fn quantities(&self) -> [(&'static str, f64); 15] {
        [
            ("h2d_bw", self.h2d_bw),
            ("d2h_bw", self.d2h_bw),
            ("weight_bytes", self.weight_bytes),
            ("load_weight_time", self.load_weight_time),
            ("load_cache_time", self.load_cache_time),
            ("load_activation_time", self.load_activation_time),
            ("store_cache_time", self.store_cache_time),
            ("store_activation_time", self.store_activation_time),
            ("compute_cpu_time", self.compute_cpu_time),
            ("compute_gpu_time", self.compute_gpu_time),
            ("t_gen", self.t_gen),
            ("weights_at_rest_bytes", self.weights_at_rest_bytes),
            ("weights_f16_bytes", self.weights_f16_bytes),
            ("kv_at_rest_bytes", self.kv_at_rest_bytes),
            ("kv_f16_bytes", self.kv_f16_bytes),
        ]
    }
}

/// Relative slack allowed on the Eq. 2 max check (task overheads are
/// additive constants the aggregation reproduces exactly, so the slack
/// only absorbs floating-point noise).
const TGEN_REL_TOL: f64 = 1e-9;

/// Run every model lint over a sampled probe.
pub fn lint_model(probe: &ModelProbe) -> Report {
    let mut out = Vec::new();

    // LMA204 first: the remaining lints assume finite arithmetic.
    let mut finite = true;
    for (name, v) in probe.quantities() {
        if !v.is_finite() || v < 0.0 {
            finite = false;
            out.push(Diagnostic::error(
                LintCode::Lma204NonFiniteQuantity,
                format!("probe.{name}"),
                format!("sampled value {v} is not a finite non-negative number"),
            ));
        }
    }
    if !finite {
        return Report::new(out);
    }

    // LMA201: dimensional lower bound. `time [s] × bandwidth [B/s]` must
    // cover the bytes moved; a ms-vs-s or GB-vs-B slip violates this by
    // orders of magnitude. Only the weight load is checked against its
    // bytes — it is the one task whose volume the probe carries — and a
    // 1% tolerance forgives rounding.
    if probe.weight_bytes > 0.0 && probe.h2d_bw > 0.0 {
        let moved = probe.load_weight_time * probe.h2d_bw;
        if moved < probe.weight_bytes * 0.99 {
            out.push(Diagnostic::error(
                LintCode::Lma201DimensionalMismatch,
                "probe.load_weight_time".to_string(),
                format!(
                    "{} s x {} B/s = {moved:.3e} B cannot move the layer's \
                     {:.3e} B (units slip?)",
                    probe.load_weight_time, probe.h2d_bw, probe.weight_bytes
                ),
            ));
        }
    }

    // LMA202: Eq. 2 — T_gen is the max of the per-resource aggregates.
    let nb = probe.num_batches as f64;
    let h2d = probe.load_weight_time + nb * (probe.load_cache_time + probe.load_activation_time);
    let d2h = nb * (probe.store_cache_time + probe.store_activation_time);
    let cpu = nb * probe.compute_cpu_time;
    let gpu = nb * probe.compute_gpu_time;
    let expected = h2d.max(d2h).max(cpu).max(gpu);
    let tol = expected.abs() * TGEN_REL_TOL + 1e-15;
    if (probe.t_gen - expected).abs() > tol {
        out.push(Diagnostic::error(
            LintCode::Lma202TgenNotMax,
            "probe.t_gen".to_string(),
            format!(
                "t_gen {} != max(h2d {h2d}, d2h {d2h}, cpu {cpu}, gpu {gpu}) \
                 = {expected}",
                probe.t_gen
            ),
        ));
    }

    // LMA203: quantization can only shrink the at-rest footprint.
    if probe.weights_at_rest_bytes > probe.weights_f16_bytes {
        out.push(Diagnostic::error(
            LintCode::Lma203QuantizedLargerThanF16,
            "probe.weights_at_rest_bytes".to_string(),
            format!(
                "at-rest weights {} B exceed the fp16 footprint {} B",
                probe.weights_at_rest_bytes, probe.weights_f16_bytes
            ),
        ));
    }
    if probe.kv_at_rest_bytes > probe.kv_f16_bytes {
        out.push(Diagnostic::error(
            LintCode::Lma203QuantizedLargerThanF16,
            "probe.kv_at_rest_bytes".to_string(),
            format!(
                "at-rest KV cache {} B exceeds the fp16 footprint {} B",
                probe.kv_at_rest_bytes, probe.kv_f16_bytes
            ),
        ));
    }

    Report::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_hardware::presets;
    use lm_models::presets as models;

    fn probe() -> ModelProbe {
        ModelProbe::sample(
            &presets::single_gpu_a100(),
            &models::opt_30b(),
            &Workload::parallelism_study(),
            &Policy::flexgen_default(),
            4,
        )
    }

    #[test]
    fn live_model_probe_is_clean() {
        let r = lint_model(&probe());
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.warning_count(), 0, "{r}");
    }

    #[test]
    fn probe_is_clean_across_steps_and_policies() {
        let platform = presets::single_gpu_a100();
        let model = models::opt_30b();
        let w = Workload::parallelism_study();
        let mut quant = Policy::flexgen_default();
        quant.weights_dtype = DType::Int4;
        quant.kv_dtype = DType::Int8;
        for policy in [Policy::flexgen_default(), quant] {
            for token in [0, 7, 31] {
                let p = ModelProbe::sample(&platform, &model, &w, &policy, token);
                let r = lint_model(&p);
                assert!(r.is_clean(), "token {token}: {r}");
            }
        }
    }

    #[test]
    fn probe_serializes() {
        let json = serde_json::to_string(&probe()).expect("serialize");
        assert!(json.contains("t_gen"), "{json}");
    }
}
