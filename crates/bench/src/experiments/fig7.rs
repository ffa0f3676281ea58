//! Figure 7 — "Effective Quantization": LM-Offload with thread-level
//! parallelism control *disabled* versus FlexGen, isolating the benefit
//! of the §3 performance models (the paper reports +90-121% for the 30B
//! models).

use crate::experiments::table3::{table3_models, GEN_LENGTHS};
use lm_hardware::presets;
use lm_models::ModelConfig;
use lm_offload::{run_framework, EngineConfig, Framework};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    pub model: String,
    pub gen_len: u64,
    pub flexgen_tput: f64,
    pub lm_offload_noctl_tput: f64,
    /// Improvement percentage of LM-Offload (no parallelism control).
    pub gain_pct: f64,
}

/// Run one cell.
pub fn run_cell(model: &ModelConfig, gen_len: u64) -> Option<Fig7Row> {
    let platform = presets::single_gpu_a100();
    let mut cfg = EngineConfig::new(&platform, model, 64, gen_len);
    cfg.parallelism_control = false;
    let lm = run_framework(Framework::LmOffload, &cfg)?;
    let fg = run_framework(Framework::FlexGen, &cfg)?;
    let gain = (lm.throughput() / fg.throughput() - 1.0) * 100.0;
    Some(Fig7Row {
        model: model.name.clone(),
        gen_len,
        flexgen_tput: fg.throughput(),
        lm_offload_noctl_tput: lm.throughput(),
        gain_pct: gain,
    })
}

/// Run the figure for all Table 3 models and generation lengths.
pub fn run() -> Vec<Fig7Row> {
    let mut out = Vec::new();
    for model in table3_models() {
        for len in GEN_LENGTHS {
            if let Some(row) = run_cell(&model, len) {
                out.push(row);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::presets as models;

    #[test]
    fn modeling_alone_beats_flexgen_substantially() {
        // Paper: "LM-Offload outperforms FlexGen by 90%-121% in all
        // configurations for 30 billion parameter LLMs" with control
        // disabled. Require a clear double-digit gain.
        let row = run_cell(&models::opt_30b(), 32).unwrap();
        assert!(row.gain_pct > 25.0, "gain only {:.0}%", row.gain_pct);
    }

    #[test]
    fn benefits_persist_at_larger_scale() {
        // "the performance benefits of LM-Offload remain consistent as
        // the model size increases."
        let small = run_cell(&models::opt_30b(), 16).unwrap();
        let large = run_cell(&models::opt_66b(), 16).unwrap();
        assert!(large.gain_pct > 0.0, "66B gain {:.0}%", large.gain_pct);
        assert!(small.gain_pct > 0.0);
    }
}
