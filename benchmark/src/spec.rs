//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their regression bounds, and the per-layer metrics with the
//! end-to-end number each is expected to move. `BENCHMARK.json` at the
//! repository root is `lmbench spec` printed from these tables (a test
//! holds the two together).

use crate::json::{object, text};
use serde::Value;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this number should move.
    pub moves: &'static str,
}

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;

pub const OFFLINE_DECODE: &str = "offline_decode";
pub const OFFLINE_PREFILL_Q4: &str = "offline_prefill_q4";
pub const SERVE_UNSHARED: &str = "serve_unshared";
pub const SERVE_SHARED_PREFIX: &str = "serve_shared_prefix";
pub const SCHED_SIM: &str = "sched_sim";

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: OFFLINE_DECODE,
        why: "Engine::run, OPT-125M fp32 streamed through a 2-layer device pool: M=4 GEMV, weight fetch and the 50k-vocab unembed bound it; lm-serve and lm-kvpool do nothing",
    },
    Workload {
        name: OFFLINE_PREFILL_Q4,
        why: "Engine::run with int4 weights and int4 KV at rest, long prompts, short generation: large-M GEMM, dequantise-on-fetch and the KV quantisation cycle dominate",
    },
    Workload {
        name: SERVE_UNSHARED,
        why: "ServeSession::run_async on the tiny real engine, unique 320-token heads, open Poisson phase then saturating burst: scheduler and per-request orchestration dominate, kernels barely matter",
    },
    Workload {
        name: SERVE_SHARED_PREFIX,
        why: "same arrivals, lengths and seeds but one common 320-token head: the only workload where KV prefix sharing can pay; today it must read like serve_unshared",
    },
    Workload {
        name: SCHED_SIM,
        why: "ServeSession::run on the virtual clock, OPT-30B analytic backend, 8192 ragged requests near modelled capacity: all wall time is scheduler boundaries, cost-model calls and page operations",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "goodput_frac",
        unit: "share",
        better: Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "gen_tok_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "total_tok_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const DECODE: &str = "gen_tok_s on offline_decode";
const PREFILL: &str = "total_tok_s on offline_prefill_q4";
const OFFLINE_BOTH: &str = "gen_tok_s on both offline workloads";
const SERVE: &str = "ttft_p50_ms, goodput_frac, gen_tok_s on serve_*";
const SIM: &str = "gen_tok_s on sched_sim";
const NOTHING: &str = "nothing yet (no workload runs it on a hot path)";

pub const PER_LAYER: [PerLayer; 66] = [
    // lm-tensor: pinned-iteration kernels at the workloads' own shapes.
    layer("tensor.gemv_gibs", "GiB/s", Higher, DECODE),
    layer("tensor.mha_decode_gflops", "GFLOP/s", Higher, DECODE),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher, PREFILL),
    layer("tensor.gemm_transb_gflops", "GFLOP/s", Higher, PREFILL),
    layer("tensor.attn_prefill_gflops", "GFLOP/s", Higher, PREFILL),
    layer("tensor.quantize_int4_gibs", "GiB/s", Higher, PREFILL),
    layer("tensor.dequantize_int4_gibs", "GiB/s", Higher, PREFILL),
    // lm-engine: construction, one layer, one fetch, one step.
    layer("engine.new_s", "s", Lower, "setup_s on offline_decode"),
    layer(
        "engine.new_q4_s",
        "s",
        Lower,
        "setup_s on offline_prefill_q4",
    ),
    layer("engine.layer_decode_ms", "ms", Lower, DECODE),
    layer("engine.unembed_ms", "ms", Lower, DECODE),
    layer("engine.fetch_layer_ms", "ms", Lower, DECODE),
    layer("engine.layer_prefill_ms", "ms", Lower, PREFILL),
    layer("engine.fetch_layer_q4_ms", "ms", Lower, PREFILL),
    layer("engine.kv_q4_roundtrip_ms", "ms", Lower, PREFILL),
    layer("engine.prefill_ms", "ms", Lower, OFFLINE_BOTH),
    layer("engine.decode_step_ms", "ms", Lower, OFFLINE_BOTH),
    layer("engine.load_weight_busy_ms", "ms", Lower, OFFLINE_BOTH),
    layer("engine.compute_busy_ms", "ms", Lower, OFFLINE_BOTH),
    layer("engine.load_wait_ms", "ms", Lower, OFFLINE_BOTH),
    layer("engine.overlap_frac", "share", Higher, OFFLINE_BOTH),
    layer("engine.weight_bytes_streamed", "B", Lower, OFFLINE_BOTH),
    layer(
        "engine.device_peak_bytes",
        "B",
        Lower,
        "peak_rss_mb on both offline workloads",
    ),
    layer(
        "engine.host_peak_bytes",
        "B",
        Lower,
        "peak_rss_mb on both offline workloads",
    ),
    layer(
        "engine.kv_bytes_at_rest",
        "B",
        Lower,
        "peak_rss_mb on offline_prefill_q4",
    ),
    layer("engine.solo_req_ms", "ms", Lower, SERVE),
    // lm-serve: the scheduler's own time, queueing, and the client's view.
    layer("serve.sim_req_s", "req/s", Higher, SIM),
    layer("serve.boundary_ns", "ns", Lower, SIM),
    layer("serve.boundary_obs_ns", "ns", Lower, SIM),
    layer("serve.derive_plan_us", "us", Lower, SIM),
    layer("serve.sched_self_ms", "ms", Lower, SERVE),
    layer("serve.materialize_share", "share", Lower, SERVE),
    layer("serve.queue_wait_p50_ms", "ms", Lower, SERVE),
    layer("serve.queue_wait_p95_ms", "ms", Lower, SERVE),
    layer("serve.gen_late_p95_ms", "ms", Lower, SERVE),
    layer("serve.stream_lag_p50_us", "us", Lower, SERVE),
    layer("serve.slots_mean", "count", Higher, SERVE),
    layer("serve.ttft_p95_ms", "ms", Lower, SERVE),
    layer("serve.latency_p95_ms", "ms", Lower, SERVE),
    layer("serve.itl_p50_us", "us", Lower, SERVE),
    layer(
        "serve.admitted",
        "count",
        Higher,
        "goodput_frac on serve_* and sched_sim",
    ),
    layer(
        "serve.rejected",
        "count",
        Lower,
        "goodput_frac on serve_* and sched_sim",
    ),
    layer("serve.shed", "count", Lower, "goodput_frac on sched_sim"),
    layer(
        "serve.preempted",
        "count",
        Lower,
        "goodput_frac on sched_sim",
    ),
    layer(
        "serve.deadline_misses",
        "count",
        Lower,
        "goodput_frac on sched_sim",
    ),
    layer(
        "serve.virtual_ttft_p95_s",
        "s",
        Lower,
        "ttft_p50_ms on sched_sim (a pure speed-up must not move it)",
    ),
    layer(
        "serve.virtual_tok_s",
        "tok/s",
        Higher,
        "latency_p50_ms on sched_sim (a pure speed-up must not move it)",
    ),
    // lm-kvpool: page operations and what sharing saves.
    layer("kvpool.admit_ns", "ns", Lower, SIM),
    layer("kvpool.admit_shared_ns", "ns", Lower, SIM),
    layer("kvpool.append_ns", "ns", Lower, SIM),
    layer("kvpool.cow_fork_ns", "ns", Lower, SIM),
    layer("kvpool.drop_ns", "ns", Lower, SIM),
    layer(
        "kvpool.shared_token_frac",
        "share",
        Higher,
        "gen_tok_s on serve_shared_prefix, once pages hold tensors",
    ),
    layer(
        "kvpool.pages_peak",
        "count",
        Lower,
        "gen_tok_s on serve_shared_prefix, once pages hold tensors",
    ),
    layer(
        "kvpool.reserved_over_used",
        "ratio",
        Lower,
        "gen_tok_s on serve_shared_prefix, once pages hold tensors",
    ),
    // lm-sim / lm-offload: the cost model under the scheduler, the planner.
    layer("sim.decode_cost_ns", "ns", Lower, SIM),
    layer("sim.prefill_cost_ns", "ns", Lower, SIM),
    layer("sim.cost_calls", "count", Lower, SIM),
    layer("sim.cost_share", "share", Lower, SIM),
    layer("sim.simulate_ms", "ms", Lower, NOTHING),
    layer("offload.policy_search_ms", "ms", Lower, NOTHING),
    // lm-parallelism: not on the engine's path until it routes through
    // the executor.
    layer("parallelism.executor_fixed_us", "us", Lower, NOTHING),
    layer("parallelism.executor_speedup", "ratio", Higher, NOTHING),
    layer("parallelism.search_ms", "ms", Lower, NOTHING),
    // lm-trace.
    layer(
        "trace.overhead_frac",
        "share",
        Lower,
        "every end-to-end timing, if tracing were left on",
    ),
    layer("trace.span_ns", "ns", Lower, "trace.overhead_frac"),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The `BENCHMARK.json` document for these tables.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    object(vec![
        (
            "command",
            Value::Array(command.into_iter().map(text).collect()),
        ),
        ("paths", Value::Array(vec![text("benchmark")])),
        ("run_seconds", Value::PosInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The regression bounds `compare` judges by, read from a
/// `BENCHMARK.json` document: `(metric, better, bound)`.
pub fn bounds_from(doc: &Value) -> Result<Vec<(String, Better, f64)>, String> {
    let rows = doc["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    rows.iter()
        .map(|row| {
            let name = row["name"]
                .as_str()
                .ok_or("end_to_end row without a name")?;
            let better = match row["better"].as_str() {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => {
                    return Err(format!(
                        "{name}: better must be lower or higher, got {other:?}"
                    ))
                }
            };
            let bound = row["bound"]
                .as_f64()
                .ok_or_else(|| format!("{name}: no numeric bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_file_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "{unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_at_the_root_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(on_disk, benchmark_json(), "regenerate with `lmbench spec`");
        let bounds = bounds_from(&on_disk).unwrap();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert_eq!(bounds[0], ("setup_s".to_string(), Better::Lower, 0.25));
    }
}
