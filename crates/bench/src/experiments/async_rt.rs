//! `repro async` — the real-time serving lane (DESIGN.md §9.4): drive
//! the continuous scheduler through `ServeSession::run_async` on the
//! *real* miniature engine, with per-request tokio token streams
//! consumed concurrently on a worker runtime, and prove that going
//! async changes *when* tokens arrive but never *which* tokens arrive:
//!
//! 1. **Transparency**: every completed request's response tokens equal
//!    a solo `Engine::run` of the same prompt, and the tokens observed
//!    on the stream equal the tokens in the response;
//! 2. **Disconnects reclaim**: a client that drops its receiver
//!    mid-stream resolves as a `ClientDisconnect` cancellation with
//!    zero leaked KV bytes and pages;
//! 3. **Total resolution**: responses + rejections + cancellations
//!    conserve the request count.
//!
//! Wall-clock TTFT/throughput are *recorded* in `results/async.json`
//! but never byte-compared: the modelled run is compressed onto the wall via
//! [`AsyncConfig::time_scale`], so absolute wall numbers are
//! machine-dependent by design. Everything the gates judge is
//! wall-independent.

use lm_engine::GenerateRequest;
use lm_serve::{AsyncConfig, CancelReason, EngineBackend, Request, ServeSession};
use serde::{Deserialize, Serialize};
use std::time::Instant;

pub const DEFAULT_REQUESTS: usize = 9;

/// Wall-clock budget the virtual run is compressed into. Small enough
/// to keep `repro all` fast, large enough that pacing (not
/// compute) dominates and backpressure/disconnect windows are real.
const TARGET_WALL_S: f64 = 0.25;

/// Streams are dropped after this many delivered tokens (every third
/// request), well before any `gen_len`, so the disconnect is observed
/// mid-generation while KV is still leased.
const DROP_AFTER_TOKENS: usize = 2;

/// One consumed stream, as the tokio client task saw it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamRow {
    pub request_id: u64,
    /// Tokens observed on the channel before it closed (or was dropped).
    pub streamed_tokens: Vec<u32>,
    /// Whether this client dropped its receiver mid-stream on purpose.
    pub dropped_mid_stream: bool,
    /// Wall seconds from session start to the first token. Recorded,
    /// never gated byte-exactly.
    pub wall_ttft_s: Option<f64>,
}

/// Everything `repro async` reports (`results/async.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsyncReport {
    pub seed: u64,
    pub requests: usize,
    pub channel_capacity: usize,
    /// Virtual µs per wall µs, calibrated so the modelled run fits
    /// [`TARGET_WALL_S`].
    pub time_scale: f64,
    /// The virtual-clock duration of the same traffic (the calibration
    /// run) — deterministic.
    pub virtual_sim_seconds: f64,
    /// Async-path virtual duration — deterministic gates never compare
    /// it to the calibration run (wall jitter feeds the clock).
    pub async_sim_seconds: f64,
    pub completed: usize,
    pub rejected: usize,
    pub disconnects: usize,
    pub streams: Vec<StreamRow>,
    /// Wall-clock observations (recorded, not byte-gated).
    pub wall_seconds: f64,
    pub wall_ttft_mean_s: f64,
    pub wall_tokens_per_s: f64,
    /// Gate 1: responses equal solo `Engine::run`; streamed prefixes
    /// equal the response tokens.
    pub transparency_ok: bool,
    /// Gate 2: dropped receivers resolved as `ClientDisconnect` with
    /// zero leaked KV bytes/pages.
    pub zero_leak_ok: bool,
    /// Gate 3: every request reached exactly one terminal state and
    /// admissions balance.
    pub total_resolution_ok: bool,
    /// At least one mid-stream disconnect actually exercised the path.
    pub disconnect_ok: bool,
    pub async_ok: bool,
}

/// The tiny-engine request set: ragged prompts and generation lengths,
/// arrivals spread so admission interleaves with decode.
fn traffic(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let plen = 2 + (i % 5);
            let prompt: Vec<u32> = (0..plen as u32).map(|t| 1 + (t * 7 + i as u32) % 90).collect();
            Request::new(i as u64, prompt, 6 + i % 4).with_arrival_us(i as u64 * 10_000)
        })
        .collect()
}

/// Run the async lane: calibrate the time scale on the virtual clock,
/// then serve the same traffic in real time with streaming clients.
pub fn run(seed: u64, n: usize) -> AsyncReport {
    let backend = EngineBackend::tiny_test(seed)
        .unwrap_or_else(|e| panic!("tiny engine backend failed: {e}"));
    let requests = traffic(n);

    // Calibration: the deterministic virtual run of the same traffic
    // sizes the wall compression and is the transparency reference for
    // scheduling (the token values themselves come from solo runs).
    let session = ServeSession::new(&backend);
    let virtual_out = session
        .run(requests.clone())
        .unwrap_or_else(|e| panic!("virtual calibration run failed: {e}"))
        .outcome;
    let time_scale = (virtual_out.sim_seconds / TARGET_WALL_S).max(1.0);

    let acfg = AsyncConfig {
        time_scale,
        ..AsyncConfig::default()
    };
    let wall_start = Instant::now();
    let (served, mut streams) = session
        .run_async(requests.clone(), &acfg, |mut streams| {
            let rt = tokio::runtime::Runtime::new()
                .unwrap_or_else(|e| panic!("tokio runtime failed to start: {e}"));
            let t0 = Instant::now();
            let handles: Vec<_> = streams
                .drain()
                .into_iter()
                .map(|(id, mut rx)| {
                    let drop_mid_stream = id % 3 == 2;
                    let handle = rt.spawn(async move {
                        let mut tokens: Vec<u32> = Vec::new();
                        let mut first: Option<f64> = None;
                        while let Some(ev) = rx.recv().await {
                            first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
                            tokens.push(ev.token);
                            if drop_mid_stream && tokens.len() >= DROP_AFTER_TOKENS {
                                break; // rx drops here: a mid-stream disconnect
                            }
                        }
                        (tokens, first)
                    });
                    (id, drop_mid_stream, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(id, dropped, h)| {
                    let (streamed_tokens, wall_ttft_s) = rt
                        .join(h)
                        .unwrap_or_else(|e| panic!("stream client task failed: {e}"));
                    StreamRow {
                        request_id: id,
                        streamed_tokens,
                        dropped_mid_stream: dropped,
                        wall_ttft_s,
                    }
                })
                .collect::<Vec<StreamRow>>()
        })
        .unwrap_or_else(|e| panic!("async serving failed: {e}"));
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let out = served.outcome;
    streams.sort_by_key(|s| s.request_id);

    // Gate 1 — transparency: completed responses equal solo runs, and
    // what each surviving client saw is exactly the response stream.
    let mut transparency_ok = true;
    for r in &out.responses {
        let req = &requests[r.id as usize];
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len))
            .unwrap_or_else(|e| panic!("solo reference run failed: {e}"));
        transparency_ok &= r.tokens == solo.tokens[0];
        if let Some(s) = streams.iter().find(|s| s.request_id == r.id) {
            if !s.dropped_mid_stream {
                transparency_ok &= s.streamed_tokens == r.tokens;
            }
        }
    }
    // Dropped clients must have seen a strict prefix of *some* valid
    // stream: compare against the solo run of their own request.
    for s in streams.iter().filter(|s| s.dropped_mid_stream) {
        let req = &requests[s.request_id as usize];
        let solo = backend
            .engine()
            .run(&GenerateRequest::new(vec![req.prompt.clone()], req.gen_len))
            .unwrap_or_else(|e| panic!("solo reference run failed: {e}"));
        transparency_ok &= solo.tokens[0].starts_with(&s.streamed_tokens);
    }

    let disconnects = out
        .cancellations
        .iter()
        .filter(|c| c.reason == CancelReason::ClientDisconnect)
        .count();
    let zero_leak_ok = out.kv_leaked_bytes == 0 && out.kv_pages_leaked == 0;
    let total_resolution_ok = out.terminal_count() == n && out.stats.admissions_balanced();
    let disconnect_ok = disconnects >= 1;
    let async_ok = transparency_ok && zero_leak_ok && total_resolution_ok && disconnect_ok;

    let ttfts: Vec<f64> = streams.iter().filter_map(|s| s.wall_ttft_s).collect();
    let wall_ttft_mean_s = if ttfts.is_empty() {
        0.0
    } else {
        ttfts.iter().sum::<f64>() / ttfts.len() as f64
    };

    AsyncReport {
        seed,
        requests: n,
        channel_capacity: acfg.channel_capacity,
        time_scale,
        virtual_sim_seconds: virtual_out.sim_seconds,
        async_sim_seconds: out.sim_seconds,
        completed: out.responses.len(),
        rejected: out.rejections.len(),
        disconnects,
        streams,
        wall_seconds,
        wall_ttft_mean_s,
        wall_tokens_per_s: if wall_seconds > 0.0 {
            out.generated_tokens as f64 / wall_seconds
        } else {
            0.0
        },
        transparency_ok,
        zero_leak_ok,
        total_resolution_ok,
        disconnect_ok,
        async_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;

    #[test]
    fn async_lane_passes_every_gate_at_the_default_seed() {
        let r = run(DEFAULT_SEED, DEFAULT_REQUESTS);
        assert!(
            r.async_ok,
            "transparency={} zero_leak={} resolution={} disconnect={} ({} completed, {} disconnects)",
            r.transparency_ok,
            r.zero_leak_ok,
            r.total_resolution_ok,
            r.disconnect_ok,
            r.completed,
            r.disconnects
        );
        assert!(r.time_scale >= 1.0);
        assert!(r.wall_seconds > 0.0);
    }
}
