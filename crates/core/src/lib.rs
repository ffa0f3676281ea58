//! # lm-offload
//!
//! LM-Offload: performance model-guided generative inference of large
//! language models with parallelism control — the paper's primary
//! contribution, implemented over the `lm-sim`/`lm-parallelism`
//! substrates.
//!
//! - [`quant_model`]: the quantization performance models of §3.2
//!   (Eq. 12-24) with per-phase rates and kernel-quality presets;
//! - [`provider`]: the quantization-aware cost provider folding Eq. 3-7
//!   into the six decode tasks — the ground truth every framework's
//!   policy is simulated under;
//! - [`traffic`]: per-token interconnect traffic accounting (Table 1);
//! - [`advisor`]: the three "how to use the models" decision scenarios;
//! - [`degrade`]: model-guided graceful degradation — on sustained pool
//!   pressure or bandwidth drops, re-score a fallback ladder against the
//!   degraded platform and continue generation at the policy the model
//!   ranks fastest among the feasible ones;
//! - [`policy_search`]: LM-Offload's quantization-aware policy search
//!   over the extended (4-bit weights/KV) space;
//! - [`controller`]: Algorithm 3 integration — building the attention
//!   dependency graph for a deployment and deriving its thread plan;
//! - [`engine`]: end-to-end framework runs (search → simulate) for
//!   FlexGen, ZeRO-Inference and LM-Offload, single- and multi-GPU;
//! - [`report`]: Table 3 rows, normalisation, speedup summaries;
//! - [`whatif`]: sensitivity sweeps over hardware axes, re-searching the
//!   policy at every point — the deployment-planning payoff of having
//!   analytical models.
//!
//! ```
//! use lm_hardware::presets;
//! use lm_models::{presets as models, Workload};
//! use lm_offload::{Advisor, QuantCostParams};
//! use lm_sim::{AttentionPlacement, Policy};
//!
//! // Ask §3.2's second question: is KV-cache quantization beneficial for
//! // OPT-30B with GPU attention on the paper's A100 platform?
//! let advisor = Advisor::new(
//!     &presets::single_gpu_a100(),
//!     &models::opt_30b(),
//!     &Workload::motivation(),
//!     QuantCostParams::lm_offload_kernels(),
//! );
//! let mut base = Policy::flexgen_default();
//! base.attention = AttentionPlacement::Gpu;
//! assert!(advisor.kv_quantization(base).beneficial);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
pub mod advisor;
pub mod controller;
pub mod degrade;
pub mod engine;
pub mod policy_search;
pub mod provider;
pub mod quant_model;
pub mod report;
pub mod traffic;
pub mod whatif;

pub use advisor::{Advisor, Verdict};
pub use controller::{derive_plan, transfer_tasks, try_derive_plan, ControllerOutput, DEFAULT_HEAD_GROUPS};
pub use degrade::{
    engine_options_for_policy, generate_with_degradation, DegradationController,
    DegradationTrigger, DegradedGeneration, PolicySwitch, ServeDegradeLadder,
};
pub use engine::{run_framework, run_pipeline, EngineConfig, Framework, FrameworkRun};
pub use policy_search::{lm_offload_evaluator, lm_offload_search, lm_offload_search_in_space};
pub use provider::{quant_aware_provider, ThreadFactors};
pub use quant_model::{QuantCostParams, QuantModel};
pub use report::{normalise, speedup_over, FaultReport, Speedup, Table3Row};
pub use traffic::{per_token_traffic, TokenTraffic};
pub use whatif::{sweep as whatif_sweep, Axis, WhatIfCurve, WhatIfPoint};

/// The unified serving front door (DESIGN.md §9.1), re-exported so
/// deployments that depend on the root crate reach the serve API
/// without naming `lm-serve` directly.
pub use lm_serve::{AsyncConfig, ServeMode, ServeRun, ServeSession, TokenStreams};
