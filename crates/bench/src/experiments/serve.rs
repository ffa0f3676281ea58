//! `repro serve` — the continuous-batching serving experiment: the same
//! seeded OPT-30B traffic trace is served three ways (continuous
//! batching over the paged KV pool, one-call-per-request, naive static
//! batching) on the analytic backend's virtual clock, and continuous batching must
//! dominate both baselines. TTFT and end-to-end latency percentiles come
//! from each run's own `lm-trace` histogram snapshot.
//!
//! The run also carries the cross-request prefix-sharing study: the
//! same arrival process and generation lengths are served once with a
//! common system-prompt prefix and once with unique control prefixes;
//! the paged pool maps the shared pages copy-on-write, skips their
//! prefill, and must deliver super-linear effective throughput relative
//! to the unshared control (with zero admission rejections).

use lm_serve::{
    synth_shared_prefix_traffic, synth_traffic, AnalyticBackend, ServeConfig, ServeMode,
    ServeOutcome, ServePlan, ServeSession,
};
use lm_trace::Tracer;
use serde::{Deserialize, Serialize};

/// Shared system-prompt length for the shared-prefix study: twenty
/// whole 16-token pages, so every request past the first maps 320 prompt
/// tokens straight out of the prefix index. The length is chosen to make
/// the study memory-bound: at offload scale prefill is weight-stream
/// dominated (skipping prefix *compute* saves almost no wall time), so
/// the sharing win is page residency — unshared requests need ~22 pages
/// each and the pool caps concurrency below the planned slot count,
/// while sharers keep only ~2-3 private pages and all run at once.
pub const DEFAULT_PREFIX_LEN: usize = 320;

/// The dominance bar the experiment (and the verify gate) enforces:
/// continuous batching must deliver at least this multiple of the
/// sequential baseline's throughput, and strictly beat static batching.
pub const MIN_SPEEDUP_VS_SEQUENTIAL: f64 = 1.3;

/// Latency percentiles of one serving mode, seconds (from the
/// `serve.ttft_s` / `serve.latency_s` trace histograms).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyStats {
    pub count: u64,
    pub p50_s: f64,
    pub p95_s: f64,
    pub p99_s: f64,
    pub max_s: f64,
}

impl LatencyStats {
    fn empty() -> Self {
        LatencyStats {
            count: 0,
            p50_s: 0.0,
            p95_s: 0.0,
            p99_s: 0.0,
            max_s: 0.0,
        }
    }
}

/// One serving mode's results over the shared traffic trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModeRow {
    pub mode: String,
    pub completed: usize,
    pub rejected: usize,
    pub sim_seconds: f64,
    pub tokens_per_s: f64,
    pub generated_tokens: u64,
    /// Tokens charged beyond what the requests actually used: prompt
    /// and generation padding in the static baseline. Structurally zero
    /// for the continuous scheduler, whose pages track the exact context.
    pub padding_tokens: u64,
    pub kv_peak_bytes: u64,
    /// High-water mark of live KV pages (continuous scheduler only).
    pub kv_pages_peak: u64,
    /// Page mappings served from the prefix index instead of fresh
    /// allocation + prefill.
    pub shared_prefix_hits: u64,
    /// Prompt tokens covered by those shared mappings.
    pub shared_tokens: u64,
    /// Copy-on-write forks taken on first divergent write.
    pub cow_forks: u64,
    /// Deadline misses — *reported* by every mode, enforced by none
    /// here: the continuous scheduler counts deadline-reason rejections,
    /// the baselines count requests whose service started past their
    /// deadline, so the modes stay comparable.
    pub deadline_misses: u64,
    pub ttft: LatencyStats,
    pub latency: LatencyStats,
}

/// The shared-prefix study: identical arrival process and decode
/// work, with and without a common prompt head. `shared_paged` must beat
/// `unshared_paged` on effective throughput — the prefill skipped by
/// prefix sharing is the only difference between them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedPrefixReport {
    pub seed: u64,
    pub rps: f64,
    pub requests: usize,
    pub prefix_len: usize,
    /// `shared_paged`, `unshared_paged` (control).
    pub modes: Vec<ModeRow>,
    /// shared_paged tok/s over unshared_paged tok/s.
    pub effective_speedup: f64,
    /// Admission rejections across the paged runs (gate: zero).
    pub paged_rejections: usize,
    /// The `repro serve` gate: sharing actually engaged (hits > 0), beat
    /// the unshared control, and rejected nothing.
    pub superlinear_ok: bool,
}

/// Everything `repro serve` writes to `results/serve.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    pub seed: u64,
    pub rps: f64,
    pub requests: usize,
    /// The `LMA25x`/`LMA28x`-linted admission plan every mode shares.
    pub plan: ServePlan,
    pub modes: Vec<ModeRow>,
    pub speedup_vs_sequential: f64,
    pub speedup_vs_static: f64,
    /// Continuous ≥ 1.3× sequential and > static — a `repro serve` gate.
    pub dominance_ok: bool,
    /// Page-aware admission gate: the paged scheduler rejects nothing
    /// at the default seed.
    pub paged_zero_rejections: bool,
    /// The shared-prefix study on the same `(seed, rps, requests)`;
    /// [`run`] always fills it.
    pub shared_prefix: Option<SharedPrefixReport>,
}

fn histogram(tracer: &Tracer, name: &str) -> LatencyStats {
    tracer
        .snapshot()
        .metrics
        .histograms
        .get(name)
        .map(|h| LatencyStats {
            count: h.count,
            p50_s: h.p50,
            p95_s: h.p95,
            p99_s: h.p99,
            max_s: h.max,
        })
        .unwrap_or_else(LatencyStats::empty)
}

fn mode_row(mode: &str, tracer: &Tracer, out: &ServeOutcome) -> ModeRow {
    ModeRow {
        mode: mode.to_string(),
        completed: out.responses.len(),
        rejected: out.rejections.len(),
        sim_seconds: out.sim_seconds,
        tokens_per_s: out.tokens_per_s(),
        generated_tokens: out.generated_tokens,
        padding_tokens: out.padding_tokens,
        kv_peak_bytes: out.kv_peak_bytes as u64,
        kv_pages_peak: out.kv_pages_peak,
        shared_prefix_hits: out.shared_prefix_hits,
        shared_tokens: out.shared_tokens,
        cow_forks: out.cow_forks,
        deadline_misses: out.deadline_misses,
        ttft: histogram(tracer, "serve.ttft_s"),
        latency: histogram(tracer, "serve.latency_s"),
    }
}

fn continuous_row(
    backend: &AnalyticBackend,
    label: &str,
    traffic: Vec<lm_serve::Request>,
) -> (ServePlan, ModeRow) {
    let tracer = Tracer::new();
    let cfg = ServeConfig {
        tracer: tracer.clone(),
        ..ServeConfig::default()
    };
    let (plan, out) = ServeSession::new(backend)
        .config(cfg)
        .run(traffic)
        .unwrap_or_else(|e| panic!("continuous serving ({label}) failed: {e}"))
        .into_continuous();
    (plan, mode_row(label, &tracer, &out))
}

/// Serve `n` seeded requests at `rps` through all three schedulers, then
/// run the shared-prefix study on the same trace parameters.
pub fn run(seed: u64, rps: f64, n: usize) -> ServeReport {
    let backend = AnalyticBackend::opt_30b();
    let traffic = synth_traffic(seed, rps, n, lm_serve::ServeBackend::model(&backend));

    let (plan, paged) = continuous_row(&backend, "continuous_paged", traffic.clone());

    let seq_tracer = Tracer::new();
    let seq_cfg = ServeConfig {
        tracer: seq_tracer.clone(),
        ..ServeConfig::default()
    };
    let seq = ServeSession::new(&backend)
        .config(seq_cfg)
        .mode(ServeMode::Sequential)
        .run(traffic.clone())
        .unwrap_or_else(|e| panic!("sequential baseline failed: {e}"))
        .outcome;

    let stat_tracer = Tracer::new();
    let stat_cfg = ServeConfig {
        tracer: stat_tracer.clone(),
        ..ServeConfig::default()
    };
    let stat = ServeSession::new(&backend)
        .config(stat_cfg)
        .mode(ServeMode::Static { batch: plan.slots })
        .run(traffic)
        .unwrap_or_else(|e| panic!("static baseline failed: {e}"))
        .outcome;

    let speedup_vs_sequential = if seq.tokens_per_s() > 0.0 {
        paged.tokens_per_s / seq.tokens_per_s()
    } else {
        0.0
    };
    let speedup_vs_static = if stat.tokens_per_s() > 0.0 {
        paged.tokens_per_s / stat.tokens_per_s()
    } else {
        0.0
    };
    let dominance_ok = speedup_vs_sequential >= MIN_SPEEDUP_VS_SEQUENTIAL
        && paged.tokens_per_s > stat.tokens_per_s();
    let paged_zero_rejections = paged.rejected == 0;

    ServeReport {
        seed,
        rps,
        requests: n,
        plan,
        modes: vec![
            paged,
            mode_row("sequential", &seq_tracer, &seq),
            mode_row("static", &stat_tracer, &stat),
        ],
        speedup_vs_sequential,
        speedup_vs_static,
        dominance_ok,
        paged_zero_rejections,
        shared_prefix: Some(run_shared_prefix(seed, rps, n, DEFAULT_PREFIX_LEN)),
    }
}

/// The shared-prefix study: `n` requests sharing one `prefix_len`-
/// token system prompt vs the same trace with unique control prefixes.
pub fn run_shared_prefix(seed: u64, rps: f64, n: usize, prefix_len: usize) -> SharedPrefixReport {
    let backend = AnalyticBackend::opt_30b();
    let (shared, control) = synth_shared_prefix_traffic(
        seed,
        rps,
        n,
        lm_serve::ServeBackend::model(&backend),
        prefix_len,
    );

    let (_, shared_paged) = continuous_row(&backend, "shared_paged", shared);
    let (_, unshared_paged) = continuous_row(&backend, "unshared_paged", control);

    let effective_speedup = if unshared_paged.tokens_per_s > 0.0 {
        shared_paged.tokens_per_s / unshared_paged.tokens_per_s
    } else {
        0.0
    };
    let paged_rejections = shared_paged.rejected + unshared_paged.rejected;
    let superlinear_ok = effective_speedup > 1.0
        && shared_paged.shared_prefix_hits > 0
        && paged_rejections == 0;

    SharedPrefixReport {
        seed,
        rps,
        requests: n,
        prefix_len,
        modes: vec![shared_paged, unshared_paged],
        effective_speedup,
        paged_rejections,
        superlinear_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{DEFAULT_REQUESTS, DEFAULT_RPS, DEFAULT_SEED};

    #[test]
    fn default_experiment_shows_dominance() {
        let r = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        assert!(
            r.dominance_ok,
            "continuous must dominate: vs seq {:.2}x, vs static {:.2}x",
            r.speedup_vs_sequential, r.speedup_vs_static
        );
        assert_eq!(r.modes.len(), 3);
        let cont = &r.modes[0];
        assert!(cont.completed > 0);
        assert_eq!(
            cont.ttft.count as usize, cont.completed,
            "every completed request records a TTFT sample"
        );
        assert!(cont.ttft.p50_s <= cont.ttft.p99_s);
        assert!(cont.latency.p50_s >= cont.ttft.p50_s);
    }

    #[test]
    fn paged_admission_rejects_nothing_at_default_seed() {
        let r = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        assert!(
            r.paged_zero_rejections,
            "paged mode rejected {} requests",
            r.modes[0].rejected
        );
        assert!(r.modes[0].kv_pages_peak > 0, "paged run tracks page peak");
    }

    #[test]
    fn paging_charges_no_padding_and_static_batching_does() {
        let r = run(DEFAULT_SEED, DEFAULT_RPS, DEFAULT_REQUESTS);
        let (paged, stat) = (&r.modes[0], &r.modes[2]);
        assert_eq!(stat.mode, "static");
        assert_eq!(paged.padding_tokens, 0, "pages track the exact context");
        assert!(
            stat.padding_tokens > 0,
            "the padded batch envelope must be visible in the report"
        );
    }

    #[test]
    fn shared_prefix_study_is_superlinear_at_default_seed() {
        let r = run_shared_prefix(DEFAULT_SEED, DEFAULT_RPS, 16, DEFAULT_PREFIX_LEN);
        assert!(
            r.superlinear_ok,
            "sharing must beat the unshared control: {:.3}x, {} hits, {} rejections",
            r.effective_speedup,
            r.modes[0].shared_prefix_hits,
            r.paged_rejections
        );
        assert_eq!(r.modes.len(), 2);
        assert!(r.modes[0].shared_tokens > 0);
        assert_eq!(
            r.modes[1].shared_prefix_hits, 0,
            "unique control prefixes must not share"
        );
        assert_eq!(
            r.modes[0].generated_tokens, r.modes[1].generated_tokens,
            "shared and control traces carry identical decode work"
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = run(DEFAULT_SEED, DEFAULT_RPS, 16);
        let b = run(DEFAULT_SEED, DEFAULT_RPS, 16);
        assert_eq!(
            a.modes[0].tokens_per_s.to_bits(),
            b.modes[0].tokens_per_s.to_bits()
        );
        assert_eq!(a.modes[0].sim_seconds.to_bits(), b.modes[0].sim_seconds.to_bits());
        assert_eq!(a.modes[0].generated_tokens, b.modes[0].generated_tokens);
        let sa = run_shared_prefix(DEFAULT_SEED, DEFAULT_RPS, 12, DEFAULT_PREFIX_LEN);
        let sb = run_shared_prefix(DEFAULT_SEED, DEFAULT_RPS, 12, DEFAULT_PREFIX_LEN);
        assert_eq!(
            sa.effective_speedup.to_bits(),
            sb.effective_speedup.to_bits()
        );
    }
}
