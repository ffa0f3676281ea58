//! Every shape, count and rate the workloads use, pinned here and echoed
//! into every result file. `--seconds` sizes the timed phases (how many
//! repetitions fit, how long the open phase sends); nothing adapts to how
//! fast the program turns out to be beyond that. `--quick` swaps in tiny
//! counts for a schema-and-output-checks smoke run.

use crate::gen::ChatShape;
use lm_models::{presets, ModelConfig};
use serde::Serialize;

/// Seed of the synthetic model weights: the model is a fixture, only the
/// inputs follow `--seed`.
pub const WEIGHT_SEED: u64 = 7;

/// A request is good when its first token arrives within this limit.
pub const TTFT_LIMIT_MS: f64 = 250.0;

#[derive(Debug, Clone, Serialize)]
pub struct Offline {
    pub model: ModelConfig,
    pub prompts: usize,
    pub prompt_len: usize,
    pub gen_len: usize,
    /// Int4 weights and int4 KV at rest instead of fp32.
    pub quantized: bool,
    /// Device pool = this many streamed layers + `device_slack_bytes`.
    pub device_layers: usize,
    pub device_slack_bytes: usize,
    /// Engine constructions (+ warm-up) timed for `setup_s`.
    pub setups: usize,
    /// Repetitions measured even if `--seconds` runs out first.
    pub min_reps: usize,
    /// Share of `--seconds` the measured repetitions get; set-up, several
    /// times over, and the reference engine take about the rest.
    pub measure_share: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Serve {
    pub shape: ChatShape,
    /// Open phase: this many requests, Poisson arrivals at `open_rate`
    /// per wall second, replayed as often as fits into `open_share` of
    /// `--seconds`.
    pub open_requests: usize,
    pub open_rate: f64,
    pub open_share: f64,
    /// Burst phase: this many requests, all due at t = 0, once after
    /// every open replay.
    pub burst_requests: usize,
    /// Virtual microseconds per wall microsecond: modelled A100 step
    /// costs shrink to under 0.1 % of wall, so every reported
    /// millisecond is executed work or queueing for it.
    pub time_scale: f64,
    pub channel_capacity: usize,
    /// Planning context per slot (prefix + longest suffix + longest
    /// generation, rounded up to whole pages).
    pub slot_context: usize,
    /// Requests re-run solo through `Engine::run` for the output check.
    pub solo_sample: usize,
    pub warmup_requests: usize,
    /// Set-ups timed for `setup_s`, shared out over the rounds.
    pub setups: usize,
    /// Client poll sleep when no stream had a token ready.
    pub poll_sleep_us: u64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Sim {
    pub requests: usize,
    /// Arrivals per modelled second (near the plan's capacity).
    pub rps: f64,
    pub slo_ttft_s: f64,
    pub warmup_reps: usize,
    pub min_reps: usize,
    /// Share of `--seconds` the measured repetitions get.
    pub measure_share: f64,
    pub setups: usize,
    /// Requests in the traced pass, whose per-boundary samples are kept.
    pub traced_requests: usize,
}

/// Pinned iteration counts of the micro-pass: each row is the minimum of
/// `samples` timings of `iters` back-to-back calls.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Micro {
    pub samples: usize,
    /// Scales every row's iteration count (1 in a full run).
    pub iters_scale: f64,
}

#[derive(Debug, Clone, Serialize)]
pub struct Params {
    pub quick: bool,
    pub weight_seed: u64,
    pub ttft_limit_ms: f64,
    pub offline_decode: Offline,
    pub offline_prefill_q4: Offline,
    pub serve: Serve,
    pub sim: Sim,
    pub micro: Micro,
}

impl Params {
    pub fn new(quick: bool) -> Self {
        let model = if quick {
            presets::tiny_test()
        } else {
            presets::opt_125m()
        };
        let offline = |prompts, prompt_len, gen_len, quantized| Offline {
            model: model.clone(),
            prompts,
            prompt_len,
            gen_len,
            quantized,
            device_layers: 2,
            device_slack_bytes: 64 << 20,
            setups: if quick { 1 } else { 3 },
            min_reps: if quick { 2 } else { 3 },
            measure_share: 0.5,
        };
        Params {
            quick,
            weight_seed: WEIGHT_SEED,
            ttft_limit_ms: TTFT_LIMIT_MS,
            offline_decode: offline(4, 4, 5, false),
            offline_prefill_q4: offline(2, 32, 2, true),
            serve: Serve {
                shape: ChatShape {
                    prefix_len: 320,
                    suffix: [4, 16],
                    gen: [8, 32],
                },
                // One whole cycle of generation lengths per replay.
                open_requests: if quick { 8 } else { 24 },
                open_rate: 5.0,
                open_share: 0.8,
                // One whole cycle of generation lengths per burst.
                burst_requests: if quick { 8 } else { 24 },
                time_scale: 1000.0,
                channel_capacity: 128,
                slot_context: 368,
                solo_sample: if quick { 4 } else { 8 },
                warmup_requests: 2,
                setups: if quick { 1 } else { 16 },
                poll_sleep_us: 200,
            },
            sim: Sim {
                requests: if quick { 512 } else { 8192 },
                rps: 0.04,
                slo_ttft_s: 120.0,
                warmup_reps: if quick { 1 } else { 2 },
                min_reps: if quick { 2 } else { 5 },
                measure_share: 0.5,
                setups: if quick { 1 } else { 25 },
                traced_requests: if quick { 256 } else { 2048 },
            },
            micro: Micro {
                samples: if quick { 2 } else { 7 },
                iters_scale: if quick { 0.1 } else { 1.0 },
            },
        }
    }
}
