//! The §5.2 headline numbers, derived from Table 3: LM-Offload vs
//! FlexGen "up to 2.95× (2.34× on average)" and vs ZeRO-Inference
//! "up to 2.88× (1.57× on average)".

use lm_offload::{speedup_over, Framework, Speedup, Table3Row};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    pub vs_flexgen: Option<Speedup>,
    pub vs_zero: Option<Speedup>,
    /// Cells where a baseline actually beat LM-Offload (the paper admits
    /// one: ZeRO on OPT-30B at len=128, by ~7%).
    pub baseline_wins: Vec<String>,
}

/// Summarise a set of (already normalised) Table 3 rows.
pub fn summarise(rows: &[Table3Row]) -> Summary {
    let baseline_wins = rows
        .iter()
        .filter(|r| r.framework != Framework::LmOffload.name() && r.norm_tput > 1.0)
        .map(|r| format!("{} {} len={} ({:.2}x)", r.framework, r.model, r.gen_len, r.norm_tput))
        .collect();
    Summary {
        vs_flexgen: speedup_over(rows, Framework::FlexGen),
        vs_zero: speedup_over(rows, Framework::ZeroInference),
        baseline_wins,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table3;
    use lm_models::presets as models;

    #[test]
    fn headline_speedups_have_paper_shape() {
        // Subsample the table for test runtime; the full sweep runs in
        // the repro binary. Shape targets: mean >= ~1.3x over FlexGen,
        // max well above the mean.
        let mut rows = Vec::new();
        for len in [8u64, 64] {
            rows.extend(table3::run_cell(&models::opt_30b(), len));
            rows.extend(table3::run_cell(&models::llama_30b(), len));
        }
        let s = summarise(&rows);
        let fg = s.vs_flexgen.expect("FlexGen rows present");
        assert!(fg.mean > 1.2, "mean speedup {:.2}", fg.mean);
        assert!(fg.max >= fg.mean);
        let zero = s.vs_zero.expect("ZeRO rows present");
        assert!(zero.mean > 0.9, "vs ZeRO mean {:.2}", zero.mean);
    }

    #[test]
    fn summary_reports_baseline_wins_if_any() {
        // Not asserting a specific win (calibration-dependent); only that
        // the reporting path works and is consistent with norm_tput.
        let rows = table3::run_cell(&models::opt_30b(), 8);
        let s = summarise(&rows);
        let wins_from_rows = rows
            .iter()
            .filter(|r| r.framework != "LM-Offload" && r.norm_tput > 1.0)
            .count();
        assert_eq!(s.baseline_wins.len(), wins_from_rows);
    }
}
