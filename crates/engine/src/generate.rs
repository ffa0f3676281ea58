//! The real generation loop: prefill + autoregressive decode with
//! layer-streamed weights, bounded device memory, and an asynchronous
//! prefetcher — the `load_weight`-overlapped-with-`compute` structure of
//! Algorithm 1, executed for real on `lm-tensor`.
//!
//! [`Engine::run`] has the cost model's shape (Eq. 1): one prefill sweep,
//! then `gen_len − 1` decode sweeps, one *between* each pair of samples,
//! over `Seq`s that own everything a later step needs. The engine holds no
//! per-run state, so sequences of any lengths and start times share sweeps
//! and each equals its solo run.

use crate::disk::{Checkpoint, CheckpointError};
use crate::model::{Embedding, LayerWeights};
use crate::pools::{Lease, MemPool, PoolExhausted};
use crate::request::GenerateRequest;
use crate::sampler::Sampler;
use crate::store::{FetchedLayer, OffloadStore, WeightsAtRest};
use lm_fault::{FaultInjector, RetryPolicy};
use lm_models::{DType, ModelConfig};
use lm_tensor::{KvCache, QuantConfig, Tensor};
use lm_trace::{TaskKind, Tracer};
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Device pool capacity in bytes (the "GPU memory" budget).
    pub device_capacity: usize,
    /// Host pool capacity in bytes.
    pub host_capacity: usize,
    /// Quantize weights at rest (FlexGen's compressed format). Takes
    /// precedence over `f16_at_rest`; [`EngineOptions::weights_dtype`]
    /// reads the two as one precision.
    pub quantize_at_rest: Option<QuantConfig>,
    /// Store weights at half precision (the paper's fp16 baseline).
    pub f16_at_rest: bool,
    /// Quantize the KV cache at rest (FlexGen's `compress_cache`): the
    /// step that writes a row attends it at f32, the next one quantizes
    /// it once, and attention dequantizes the old cache page by page as it
    /// reads it — the real Eq. 5-7 cycle.
    pub kv_quantize_at_rest: Option<QuantConfig>,
    /// Overlap next-layer weight fetches with compute (double buffering).
    pub prefetch: bool,
    pub sampler: Sampler,
    /// Deterministic fault plan threaded into the pools, the weight store
    /// and the prefetch channel. Disabled by default: every probe is an
    /// inlined `None` check and the engine behaves bit-identically to a
    /// build without fault injection.
    pub fault: FaultInjector,
    /// Recovery policy for transient faults (device-pool pressure on
    /// fetches, prefetch drops). Only consulted when `fault` is enabled.
    pub retry: RetryPolicy,
    /// Span/metrics recorder. Disabled by default — every probe is an
    /// inlined `None` check, like `fault`. When enabled, each decode
    /// sweep emits one `load_weight` span and one compute span per layer,
    /// and the fault injector's event log is stamped on the tracer's
    /// clock so faults align with spans in Perfetto.
    pub tracer: Tracer,
    /// Flight recorder (DESIGN.md §8): injected faults tee into its
    /// ring, and any [`EngineError`] surfacing from [`Engine::run`]
    /// freezes it into a post-mortem dump. Disabled by default.
    pub flight: lm_trace::FlightRecorder,
    /// Pre-flight static analysis at construction. When set, capacity
    /// configurations that could only fail deep inside `generate` (a
    /// device pool too small for one streamed layer, a host pool below
    /// the at-rest footprint) are rejected up front with an
    /// [`EngineError::Rejected`] carrying `LMA109` diagnostics, instead
    /// of surfacing later as mid-run pool exhaustion.
    pub strict: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            device_capacity: 256 << 20,
            host_capacity: 2 << 30,
            quantize_at_rest: None,
            f16_at_rest: false,
            kv_quantize_at_rest: None,
            prefetch: true,
            sampler: Sampler::Greedy,
            fault: FaultInjector::disabled(),
            retry: RetryPolicy::default(),
            tracer: Tracer::disabled(),
            flight: lm_trace::FlightRecorder::disabled(),
            strict: false,
        }
    }
}

/// The engine's precisions, as the cost model names them: the one mapping
/// between [`DType`] and the options' `QuantConfig`s.
impl EngineOptions {
    /// The precision weights are held at rest: `quantize_at_rest` takes
    /// precedence over `f16_at_rest`, and neither set means f32.
    pub fn weights_dtype(&self) -> DType {
        match self.weights_at_rest() {
            WeightsAtRest::F32 => DType::F32,
            WeightsAtRest::F16 => DType::F16,
            WeightsAtRest::Quantized(q) => quant_dtype(q),
        }
    }

    /// The store's form of [`Self::weights_dtype`], group size kept.
    fn weights_at_rest(&self) -> WeightsAtRest {
        match (self.quantize_at_rest, self.f16_at_rest) {
            (Some(q), _) => WeightsAtRest::Quantized(q),
            (None, true) => WeightsAtRest::F16,
            (None, false) => WeightsAtRest::F32,
        }
    }

    /// The precision K/V is held at rest: f32 unless `kv_quantize_at_rest`
    /// is set.
    pub fn kv_dtype(&self) -> DType {
        self.kv_quantize_at_rest.map_or(DType::F32, quant_dtype)
    }

    /// These options holding weights at `weights` and K/V at `kv`, every
    /// other field kept. The engine has no f16 cache: f16 K/V is held at
    /// f32, so [`Self::kv_dtype`] reads it back as `F32`.
    pub fn with_dtypes(mut self, weights: DType, kv: DType) -> Self {
        let quant = |d| match d {
            DType::Int4 => Some(QuantConfig::int4()),
            DType::Int8 => Some(QuantConfig::int8()),
            DType::F16 | DType::F32 => None,
        };
        self.quantize_at_rest = quant(weights);
        self.f16_at_rest = weights == DType::F16;
        self.kv_quantize_at_rest = quant(kv);
        self
    }
}

/// A group-quantised precision: 4-bit is `Int4`, any other width `Int8`.
fn quant_dtype(q: QuantConfig) -> DType {
    if q.bits == 4 {
        DType::Int4
    } else {
        DType::Int8
    }
}

/// Result of a generation run.
#[derive(Debug, Clone)]
pub struct Generation {
    /// Generated token ids per batch row (excluding the prompt).
    pub tokens: Vec<Vec<u32>>,
    /// Wall-clock generation throughput, tokens/second.
    pub throughput: f64,
    /// Peak device-pool usage in bytes — the proof of the memory budget.
    pub device_peak: usize,
    /// Peak host-pool usage in bytes.
    pub host_peak: usize,
    /// Host→device weight traffic during this run, in bytes — the real
    /// engine's `load_weight` volume, cross-checked against the analytic
    /// model in the integration tests.
    pub weight_bytes_streamed: u64,
    /// KV-cache bytes at rest when generation finished (compressed when
    /// `kv_quantize_at_rest` is set).
    pub kv_bytes_at_rest: usize,
}

/// `T_init` measurement from [`Engine::from_checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct InitReport {
    pub init_seconds: f64,
    pub bytes_read: u64,
}

/// Errors from engine construction and generation.
#[derive(Debug)]
pub enum EngineError {
    /// The request failed the shared validation checker
    /// ([`crate::request::validate_request`]): empty batch, an empty
    /// prompt, nothing to generate, context overflow, or a prompt token
    /// outside the vocabulary.
    /// Malformed serving traffic surfaces here instead of panicking.
    InvalidRequest { reason: String },
    Pool(PoolExhausted),
    Checkpoint(CheckpointError),
    /// An I/O-level failure that survived the retry budget.
    Io(std::io::Error),
    /// Generation could not proceed at the requested policy and no
    /// feasible fallback existed (raised by degradation controllers).
    Degraded(String),
    /// Strict-mode pre-flight analysis found `Error`-level diagnostics;
    /// the report names each violated capacity with stable `LMA` codes.
    Rejected(lm_analyze::Report),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            EngineError::Pool(e) => write!(f, "{e}"),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
            EngineError::Io(e) => write!(f, "engine I/O error: {e}"),
            EngineError::Degraded(m) => write!(f, "degradation failed: {m}"),
            EngineError::Rejected(report) => {
                write!(f, "strict pre-flight analysis rejected the engine:\n{report}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PoolExhausted> for EngineError {
    fn from(e: PoolExhausted) -> Self {
        EngineError::Pool(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

/// Strict-mode pre-flight: check the pool budgets against hard lower
/// bounds of the streaming layout before any allocation happens. The
/// bounds are conservative (packed payload only, no per-group metadata),
/// so every reported `Error` is a configuration that *must* fail later.
fn preflight(cfg: &ModelConfig, options: &EngineOptions) -> Result<(), EngineError> {
    use lm_analyze::{Diagnostic, LintCode, Report};

    let mut findings = Vec::new();
    // Fetched layers are dequantized to f32 on the device; prefetching
    // double-buffers them.
    let layer_f32 = DType::F32.bytes_for(cfg.weights_per_layer());
    let inflight = if options.prefetch { 2 } else { 1 } * layer_f32;
    if (options.device_capacity as u64) < inflight {
        findings.push(Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "options.device_capacity".to_string(),
            format!(
                "device pool {} B cannot hold the {inflight} B of in-flight \
                 layer weights ({} buffered layer(s) at f32)",
                options.device_capacity,
                if options.prefetch { 2 } else { 1 },
            ),
        ));
    }
    let at_rest_dtype = options.weights_dtype();
    let at_rest = lm_models::footprint::weights_bytes(cfg, at_rest_dtype);
    if (options.host_capacity as u64) < at_rest {
        findings.push(Diagnostic::error(
            LintCode::Lma109CapacityExceeded,
            "options.host_capacity".to_string(),
            format!(
                "host pool {} B below the {at_rest} B at-rest weight \
                 footprint ({at_rest_dtype:?})",
                options.host_capacity
            ),
        ));
    }
    if findings.is_empty() {
        Ok(())
    } else {
        Err(EngineError::Rejected(Report::new(findings)))
    }
}

/// One sequence between steps. Its caches, step and lease are its own, so
/// sequences of any lengths and steps share a sweep. Crate-private while
/// [`Engine::run`] is the only caller.
pub(crate) struct Seq {
    /// One one-row KV store per layer, host-side; its `len()` is the
    /// position the next sweep writes from.
    caches: Vec<KvCache>,
    /// The hidden row the next sample reads, `[1, hidden]`.
    hidden: Tensor,
    /// The step sampled next, of `gen_len`; the last token is never fed back.
    step: u64,
    gen_len: u64,
    /// Host-pool charge for `caches` at full capacity.
    _kv_lease: Lease,
}

/// The offloading inference engine.
pub struct Engine {
    cfg: ModelConfig,
    store: OffloadStore,
    embedding: Embedding,
    options: EngineOptions,
    device: Arc<MemPool>,
    host: Arc<MemPool>,
}

impl Engine {
    /// Build an engine with synthetic weights.
    pub fn new(cfg: &ModelConfig, seed: u64, options: EngineOptions) -> Result<Self, EngineError> {
        if options.strict {
            preflight(cfg, &options)?;
        }
        let layers =
            (0..cfg.num_layers).map(|i| LayerWeights::synthesize(cfg, i, seed));
        Self::assemble(cfg, layers, seed ^ 0xE5CA_1ADE, options)
    }

    /// Build an engine whose weights come from a disk checkpoint — the
    /// `T_init` path (Figure 2 step 1.1): every layer is read from disk
    /// into host memory before inference starts. Returns the engine plus
    /// the measured initialisation time and bytes read.
    pub fn from_checkpoint(
        cfg: &ModelConfig,
        path: &std::path::Path,
        options: EngineOptions,
    ) -> Result<(Self, InitReport), EngineError> {
        if options.strict {
            preflight(cfg, &options)?;
        }
        let t0 = Instant::now();
        let mut ck = Checkpoint::open(path)?;
        if ck.num_layers() != cfg.num_layers as usize {
            return Err(EngineError::Checkpoint(CheckpointError::Format(format!(
                "checkpoint has {} layers, config expects {}",
                ck.num_layers(),
                cfg.num_layers
            ))));
        }
        if ck.family() != cfg.family {
            return Err(EngineError::Checkpoint(CheckpointError::Format(
                "checkpoint family does not match config".into(),
            )));
        }
        let mut layers = Vec::with_capacity(ck.num_layers());
        for i in 0..ck.num_layers() {
            layers.push(ck.load_layer_with_retry(i, &options.fault, &options.retry)?);
        }
        let bytes_read = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let engine = Self::assemble(cfg, layers, 0xD15C ^ cfg.num_layers as u64, options)?;
        Ok((
            engine,
            InitReport {
                init_seconds: t0.elapsed().as_secs_f64(),
                bytes_read,
            },
        ))
    }

    /// The wiring both constructors share: pools, the store over
    /// `layers`, and the fault injector's clock and flight recorder.
    fn assemble(
        cfg: &ModelConfig,
        layers: impl IntoIterator<Item = LayerWeights>,
        embedding_seed: u64,
        options: EngineOptions,
    ) -> Result<Self, EngineError> {
        let host = MemPool::new("host", options.host_capacity);
        let device = MemPool::new("device", options.device_capacity);
        // Pools see pressure spikes only on the *device* side: the device
        // budget is the scarce resource the degradation machinery defends.
        device.attach_fault(options.fault.clone());
        let mut store = OffloadStore::from_layers(
            layers,
            options.weights_at_rest(),
            Arc::clone(&host),
            Arc::clone(&device),
        )?;
        store.fault = options.fault.clone();
        // One time base: fault events are stamped on the tracer's clock
        // so injected faults line up with spans in the Perfetto view.
        if let Some(clock) = options.tracer.clock() {
            options.fault.set_clock(clock);
        }
        if options.flight.is_enabled() {
            options.fault.set_flight(options.flight.clone());
        }
        Ok(Engine {
            cfg: cfg.clone(),
            store,
            embedding: Embedding::synthesize(cfg, embedding_seed),
            options,
            device,
            host,
        })
    }

    pub fn model(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Bytes one fetched (device-resident) layer occupies — the sizing
    /// input when a test or experiment wants a device budget of "N
    /// layers plus slack".
    pub fn layer_fetch_bytes(&self, layer: u32) -> usize {
        self.store.fetched_bytes(layer)
    }

    pub fn device_pool(&self) -> &Arc<MemPool> {
        &self.device
    }

    /// The host pool: the weights at rest, then each sequence's KV lease.
    pub fn host_pool(&self) -> &Arc<MemPool> {
        &self.host
    }

    /// At-rest K/V bytes one sequence holds at `positions` positions,
    /// every layer: what a sequence leases for its full capacity.
    pub fn kv_bytes_at(&self, positions: usize) -> usize {
        self.store.num_layers() * self.kv_cache(0).bytes_for(positions)
    }

    /// An empty one-layer, one-row cache at the options' K/V precision.
    fn kv_cache(&self, capacity: usize) -> KvCache {
        let h = self.cfg.hidden as usize;
        match self.options.kv_quantize_at_rest {
            None => KvCache::new(1, h, capacity),
            Some(q) => KvCache::new_quantized(1, h, capacity, q),
        }
    }

    /// Fetch layer `j` for a sweep: a `load_weight` span when `step` names
    /// a decode step (on the loader's own trace buffer when prefetching,
    /// so recording is contention-free). Retries only when a fault
    /// injector is attached — no retry bookkeeping on the clean hot path.
    fn fetch_traced(&self, step: Option<u64>, j: u32) -> Result<FetchedLayer, PoolExhausted> {
        let _span = step.map(|i| self.options.tracer.task_span(TaskKind::LoadWeight, i, j, None));
        if self.options.fault.is_enabled() {
            self.store.fetch_with_retry(j, &self.options.retry)
        } else {
            self.store.fetch(j)
        }
    }

    /// One layer sweep: `f(j, &layer)` sees every layer once, in order.
    /// Serial mode drives the consumer straight from the producer;
    /// prefetch mode moves the producer onto a loader thread one layer
    /// ahead. The rendezvous channel (capacity 0) hands layers over
    /// directly, so at most two exist at once.
    fn sweep_layers<F>(&self, step: Option<u64>, f: F) -> Result<(), EngineError>
    where
        F: FnMut(u32, &FetchedLayer),
    {
        let producer = (0..self.store.num_layers() as u32).map(|j| self.fetch_traced(step, j));
        if !self.options.prefetch {
            return self.consume_layers(step, producer, f);
        }
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel(0);
            let loader = scope.spawn(move || {
                for fetched in producer {
                    let failed = fetched.is_err();
                    if tx.send(fetched).is_err() || failed {
                        break;
                    }
                }
            });
            // The consumer owns the receiver, so it is gone before the
            // join: a loader parked in `send` behind a failed sweep sees
            // the disconnect and exits instead of being waited on forever.
            let result = self.consume_layers(step, rx.into_iter(), f);
            // Joined by hand: a loader panic is an error, not a re-panic.
            loader.join().map_err(|_| {
                EngineError::Io(std::io::Error::other("prefetch loader thread panicked"))
            })?;
            result
        })
    }

    /// The consumer half of a sweep, in both modes.
    fn consume_layers(
        &self,
        step: Option<u64>,
        layers: impl Iterator<Item = Result<FetchedLayer, PoolExhausted>>,
        mut f: impl FnMut(u32, &FetchedLayer),
    ) -> Result<(), EngineError> {
        for (j, fetched) in (0u32..).zip(layers) {
            let mut layer = fetched?;
            // A prefetch-channel drop loses the handed-over layer
            // (backpressure glitch); recover with an on-demand refetch so
            // the sweep still sees every layer once.
            if self.options.prefetch && self.options.fault.prefetch_drop("engine.prefetch", j as u64)
            {
                drop(layer);
                layer = self.fetch_traced(step, j)?;
            }
            f(j, &layer);
        }
        Ok(())
    }

    /// Validate `request` against this engine's model without running it
    /// — the same checker the `lm-serve` admission controller consults.
    pub fn validate(&self, request: &GenerateRequest) -> Result<(), EngineError> {
        request.validate_for(&self.cfg)
    }

    /// The unified generation entry point: validate the request with the
    /// shared checker, then run Algorithm 1 over it. Every row crosses
    /// each fetched layer in one call, so a layer's weights are fetched
    /// once per sweep for the whole request — the bandwidth amortisation
    /// at the heart of the paper's Eq. 2.
    ///
    /// Each row's tokens are identical to running that row alone (kernels
    /// are row-wise, attention per sequence); only the weight traffic
    /// changes, which [`Generation::weight_bytes_streamed`] exposes.
    /// Malformed requests return [`EngineError::InvalidRequest`] instead
    /// of panicking.
    pub fn run(&self, request: &GenerateRequest) -> Result<Generation, EngineError> {
        let result = self.validate(request).and_then(|()| self.generate(request));
        if let Err(e) = &result {
            // Freeze the flight recorder on the first surfaced engine
            // error: the ring holds the faults and decisions leading up
            // to it, the snapshot the metrics at the moment of failure.
            if self.options.flight.is_enabled() {
                let t_us = self
                    .options
                    .tracer
                    .clock()
                    .map(|c| c.now_us())
                    .unwrap_or(0);
                self.options.flight.trigger(
                    &format!("engine_error: {e}"),
                    t_us,
                    self.options.tracer.snapshot().metrics,
                );
            }
        }
        result
    }

    /// A validated request, step by step: one decode step per sample,
    /// its sweep *between* consecutive samples.
    fn generate(&self, request: &GenerateRequest) -> Result<Generation, EngineError> {
        let (prompts, gen_len) = (&request.prompts, request.gen_len);
        let start = Instant::now();
        let fetched_before = self.store.total_fetched_bytes();
        let mut seqs = self.prefill(prompts, gen_len)?;

        let decode = self.options.tracer.scope("decode");
        let mut tokens: Vec<Vec<u32>> = vec![Vec::with_capacity(gen_len); prompts.len()];
        for _ in 0..gen_len {
            let next = self.decode(&mut seqs.iter_mut().collect::<Vec<_>>())?;
            for (row, t) in tokens.iter_mut().zip(next) {
                row.push(t);
            }
        }
        drop(decode);

        let elapsed = start.elapsed().as_secs_f64();
        let generation = Generation {
            tokens,
            throughput: (prompts.len() * gen_len) as f64 / elapsed.max(f64::MIN_POSITIVE),
            device_peak: self.device.peak(),
            host_peak: self.host.peak(),
            weight_bytes_streamed: self.store.total_fetched_bytes() - fetched_before,
            kv_bytes_at_rest: seqs.iter().flat_map(|s| &s.caches).map(KvCache::bytes).sum(),
        };
        self.record_run_metrics(&generation);
        Ok(generation)
    }

    /// Prefill: lease each sequence's KV, embed the prompts and cross every
    /// layer once with all of them stacked. The prompts and `gen_len` are
    /// validated (enforced by [`Self::run`]).
    pub(crate) fn prefill(
        &self,
        prompts: &[Vec<u32>],
        gen_len: usize,
    ) -> Result<Vec<Seq>, EngineError> {
        let mut seqs = Vec::with_capacity(prompts.len());
        for prompt in prompts {
            // The last sampled token is never written back: s + n - 1 positions.
            let capacity = prompt.len() + gen_len.saturating_sub(1);
            seqs.push(Seq {
                caches: (0..self.store.num_layers()).map(|_| self.kv_cache(capacity)).collect(),
                hidden: Tensor::zeros([1, self.cfg.hidden as usize]),
                step: 0,
                gen_len: gen_len as u64,
                // What the caches will hold once full, priced as `kv_bytes_at_rest`.
                _kv_lease: self.host.alloc(self.kv_bytes_at(capacity))?,
            });
        }
        let positions: Vec<usize> = prompts.iter().flat_map(|p| 0..p.len()).collect();
        let x = self.embedding.embed(&prompts.concat(), &positions);
        let lens: Vec<usize> = prompts.iter().map(Vec::len).collect();
        let _prefill = self.options.tracer.scope("prefill");
        self.cross_layers(&mut seqs.iter_mut().collect::<Vec<_>>(), x, &lens, None)?;
        Ok(seqs)
    }

    /// One decode step for every sequence of `seqs`, whatever its length
    /// or step: one stacked unembed samples each sequence's next token at
    /// its own step, then every sequence with a token still to come feeds
    /// that token back through one sweep. Returns one token per sequence.
    pub(crate) fn decode(&self, seqs: &mut [&mut Seq]) -> Result<Vec<u32>, EngineError> {
        let hidden: Vec<&Tensor> = seqs.iter().map(|s| &s.hidden).collect();
        let steps: Vec<u64> = seqs.iter().map(|s| s.step).collect();
        let logits = self.embedding.unembed(&Tensor::concat_rows(&hidden));
        let next = self.options.sampler.sample(&logits, &steps);
        let (mut live, mut fed, mut positions) = (Vec::new(), Vec::new(), Vec::new());
        for (seq, &t) in seqs.iter_mut().zip(&next) {
            seq.step += 1;
            if seq.step < seq.gen_len {
                fed.push(t);
                positions.push(seq.caches[0].len());
                live.push(&mut **seq);
            }
        }
        // The sweep's spans carry the step its first sequence just sampled.
        if let Some(step) = live.first().map(|s| s.step - 1) {
            let x = self.embedding.embed(&fed, &positions);
            self.cross_layers(&mut live, x, &vec![1; fed.len()], Some(step))?;
        }
        Ok(next)
    }

    /// One sweep: the stacked new rows `x`, `new[i]` of them for `seqs[i]`,
    /// cross each fetched layer in one call, K/V written from each cache's
    /// `len()` on; each sequence keeps its last row as the hidden state its
    /// next sample reads. A decode step (`step` is `Some`) records one
    /// compute span per layer; prefill (`None`) only its scope.
    fn cross_layers(
        &self,
        seqs: &mut [&mut Seq],
        mut x: Tensor,
        new: &[usize],
        step: Option<u64>,
    ) -> Result<(), EngineError> {
        let heads = self.cfg.num_heads as usize;
        let tracer = &self.options.tracer;
        self.sweep_layers(step, |j, fetched| {
            let caches = seqs.iter_mut().map(|s| &mut s.caches[j as usize]);
            let mut rows: Vec<_> = caches.zip(new).map(|(c, &n)| (c.len(), n, c)).collect();
            let _span = step.map(|i| tracer.task_span(TaskKind::ComputeGpu, i, j, None));
            x = fetched.weights.forward(&x, &mut rows, heads);
        })?;
        let mut end = 0;
        for (seq, n) in seqs.iter_mut().zip(new) {
            end += n;
            seq.hidden = Tensor::from_vec([1, x.dim(1)], x.row(end - 1).to_vec());
        }
        Ok(())
    }

    /// Fold one run's headline numbers into the tracer's metrics
    /// registry: pool occupancy, streamed fetch bytes, at-rest KV size
    /// (the quantization saving when compression is on) and throughput.
    fn record_run_metrics(&self, g: &Generation) {
        let t = &self.options.tracer;
        if !t.is_enabled() {
            return;
        }
        t.counter_add(
            "engine.tokens_generated",
            g.tokens.iter().map(|r| r.len() as u64).sum(),
        );
        t.counter_add("engine.weight_bytes_streamed", g.weight_bytes_streamed);
        t.gauge_set(
            "engine.pool.device.peak_fraction",
            g.device_peak as f64 / self.options.device_capacity.max(1) as f64,
        );
        t.gauge_set(
            "engine.pool.host.peak_fraction",
            g.host_peak as f64 / self.options.host_capacity.max(1) as f64,
        );
        t.gauge_set("engine.kv_bytes_at_rest", g.kv_bytes_at_rest as f64);
        t.histogram_record("engine.run.throughput_tps", g.throughput);
        if self.options.fault.is_enabled() {
            let fs = self.options.fault.stats();
            t.gauge_set("fault.injected_total", fs.total_faults() as f64);
            t.gauge_set("fault.retries_total", fs.retries as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::{presets, Family};

    fn prompts() -> Vec<Vec<u32>> {
        vec![vec![1, 2, 3, 4], vec![9, 8, 7, 6]]
    }

    fn engine_with(device_capacity: usize, prefetch: bool) -> Engine {
        let cfg = presets::tiny_test();
        Engine::new(
            &cfg,
            42,
            EngineOptions {
                device_capacity,
                prefetch,
                ..EngineOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let e = engine_with(256 << 20, true);
        let a = e.run(&GenerateRequest::new(prompts(), 6)).unwrap();
        let b = e.run(&GenerateRequest::new(prompts(), 6)).unwrap();
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.tokens.len(), 2);
        assert_eq!(a.tokens[0].len(), 6);
    }

    #[test]
    fn offloaded_equals_unconstrained_token_for_token() {
        // The core correctness claim of an offloading runtime: a tight
        // two-layer device budget must not change the output.
        let e_big = engine_with(256 << 20, false);
        let layer_bytes = e_big.store.fetched_bytes(0);
        let e_tight = engine_with(2 * layer_bytes + 1024, true);
        let a = e_big.run(&GenerateRequest::new(prompts(), 8)).unwrap();
        let b = e_tight.run(&GenerateRequest::new(prompts(), 8)).unwrap();
        assert_eq!(a.tokens, b.tokens);
        assert!(b.device_peak <= 2 * layer_bytes + 1024);
    }

    #[test]
    fn one_layer_budget_fails_with_prefetch_but_works_without() {
        let probe = engine_with(256 << 20, false);
        let layer_bytes = probe.store.fetched_bytes(0);
        // Prefetching needs two in flight.
        let tight = engine_with(layer_bytes + 512, true);
        assert!(tight.run(&GenerateRequest::new(prompts(), 2)).is_err());
        let serial = engine_with(layer_bytes + 512, false);
        let out = serial.run(&GenerateRequest::new(prompts(), 2)).unwrap();
        assert!(out.device_peak <= layer_bytes + 512);
    }

    #[test]
    fn engine_error_freezes_the_flight_recorder() {
        let cfg = presets::tiny_test();
        let probe = engine_with(256 << 20, false);
        let layer_bytes = probe.store.fetched_bytes(0);
        let flight = lm_trace::FlightRecorder::new(32);
        // One-layer budget with prefetch armed: generation must fail,
        // and the failure must freeze a post-mortem dump.
        let e = Engine::new(
            &cfg,
            42,
            EngineOptions {
                device_capacity: layer_bytes + 512,
                prefetch: true,
                flight: flight.clone(),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        assert!(e.run(&GenerateRequest::new(prompts(), 2)).is_err());
        let dump = flight.dump().expect("error must trigger a dump");
        assert!(dump.reason.starts_with("engine_error:"), "{}", dump.reason);
        // A successful engine leaves its recorder unfrozen.
        let calm_flight = lm_trace::FlightRecorder::new(32);
        let calm = Engine::new(
            &cfg,
            42,
            EngineOptions {
                flight: calm_flight.clone(),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        calm.run(&GenerateRequest::new(prompts(), 2)).unwrap();
        assert!(calm_flight.dump().is_none());
    }

    #[test]
    fn strict_mode_rejects_undersized_pools_at_construction() {
        let cfg = presets::tiny_test();
        let tiny = EngineOptions {
            device_capacity: 1024, // far below one f32 layer
            ..EngineOptions::default()
        };
        // Non-strict: construction succeeds; the failure would surface
        // later as pool exhaustion mid-generation.
        assert!(Engine::new(&cfg, 7, tiny.clone()).is_ok());
        // Strict: rejected up front with an LMA109 diagnostic.
        let strict = EngineOptions { strict: true, ..tiny };
        match Engine::new(&cfg, 7, strict) {
            Err(EngineError::Rejected(report)) => {
                assert!(report.has(lm_analyze::LintCode::Lma109CapacityExceeded), "{report}");
                assert!(report.error_count() >= 1);
            }
            other => panic!("expected Rejected, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn strict_mode_accepts_the_default_budget() {
        let cfg = presets::tiny_test();
        let e = Engine::new(
            &cfg,
            7,
            EngineOptions { strict: true, ..EngineOptions::default() },
        )
        .unwrap();
        let out = e.run(&GenerateRequest::new(prompts(), 3)).unwrap();
        assert_eq!(out.tokens[0].len(), 3);
    }

    #[test]
    fn quantized_at_rest_generates_and_shrinks_host() {
        let cfg = presets::tiny_test();
        let full = Engine::new(&cfg, 1, EngineOptions::default()).unwrap();
        let quant = Engine::new(
            &cfg,
            1,
            EngineOptions {
                quantize_at_rest: Some(QuantConfig::int8()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gf = full.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        let gq = quant.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        assert!(quant.store.host_bytes() < full.store.host_bytes() / 2);
        // int8 weights keep the argmax trajectory for a few tokens on a
        // tiny model... not guaranteed in general, so only check shape.
        assert_eq!(gq.tokens[0].len(), gf.tokens[0].len());
    }

    fn invalid_reason(r: Result<Generation, EngineError>) -> String {
        match r {
            Err(EngineError::InvalidRequest { reason }) => reason,
            other => panic!("expected InvalidRequest, got ok={}", other.is_ok()),
        }
    }

    #[test]
    fn context_overflow_rejected_as_typed_error() {
        let e = engine_with(256 << 20, true);
        let long = vec![vec![1u32; 500]];
        // 600 > tiny-test max_seq 512 — an error, not a panic.
        let reason = invalid_reason(e.run(&GenerateRequest::new(long, 100)));
        assert!(reason.contains("exceeds max_seq_len"), "{reason}");
    }

    #[test]
    fn weight_traffic_matches_sweep_count() {
        // One prefill sweep plus one decode sweep between each pair of
        // samples — gen_len in all — each streaming every at-rest layer
        // byte exactly once.
        let e = engine_with(256 << 20, true);
        let gen_len = 3;
        let g = e.run(&GenerateRequest::new(prompts(), gen_len)).unwrap();
        let expected = gen_len as u64 * e.store.host_bytes() as u64;
        assert_eq!(g.weight_bytes_streamed, expected);
        // Quantized at rest: 4x fewer bytes cross the "link".
        let cfg = presets::tiny_test();
        let q = Engine::new(
            &cfg,
            42,
            EngineOptions {
                quantize_at_rest: Some(lm_tensor::QuantConfig::int4()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gq = q.run(&GenerateRequest::new(prompts(), gen_len)).unwrap();
        assert!(
            gq.weight_bytes_streamed * 3 < g.weight_bytes_streamed,
            "int4 {} vs f32 {}",
            gq.weight_bytes_streamed,
            g.weight_bytes_streamed
        );
    }

    #[test]
    fn f16_at_rest_halves_host_and_stream() {
        let cfg = presets::tiny_test();
        let full = engine_with(256 << 20, true);
        let half = Engine::new(
            &cfg,
            42,
            EngineOptions {
                f16_at_rest: true,
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gf = full.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        let gh = half.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        // fp16 at rest: ~half the stream; greedy first token survives.
        let ratio = gf.weight_bytes_streamed as f64 / gh.weight_bytes_streamed as f64;
        assert!((1.8..=2.1).contains(&ratio), "ratio {ratio}");
        assert_eq!(gf.tokens[0][0], gh.tokens[0][0]);
    }

    #[test]
    fn quantized_kv_cache_shrinks_at_rest_and_generates() {
        let cfg = presets::tiny_test();
        let full = Engine::new(&cfg, 31, EngineOptions::default()).unwrap();
        let quant = Engine::new(
            &cfg,
            31,
            EngineOptions {
                kv_quantize_at_rest: Some(lm_tensor::QuantConfig::int8()),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gf = full.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        let gq = quant.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        assert_eq!(gq.tokens[0].len(), 4);
        // int8 at rest: ~4x smaller cache.
        assert!(
            gq.kv_bytes_at_rest * 3 < gf.kv_bytes_at_rest,
            "quant {} vs full {}",
            gq.kv_bytes_at_rest,
            gf.kv_bytes_at_rest
        );
        // The greedy trajectory survives int8 KV for the first token.
        assert_eq!(gf.tokens[0][0], gq.tokens[0][0]);
        // And the host lease was smaller too.
        assert!(gq.host_peak < gf.host_peak);
    }

    #[test]
    fn traced_generation_emits_spans_and_metrics() {
        let cfg = presets::tiny_test();
        let tracer = Tracer::new();
        let e = Engine::new(
            &cfg,
            42,
            EngineOptions {
                tracer: tracer.clone(),
                ..EngineOptions::default()
            },
        )
        .unwrap();
        let gen_len = 3;
        let g = e.run(&GenerateRequest::new(prompts(), gen_len)).unwrap();
        let report = tracer.snapshot();
        let l = cfg.num_layers as usize;
        // One load_weight span and one compute span per (decode step,
        // layer), however many rows; gen_len - 1 decode steps. Prefill
        // contributes scopes, not spans.
        let steps = gen_len - 1;
        let lw = report
            .spans
            .iter()
            .filter(|s| s.kind == TaskKind::LoadWeight)
            .count();
        let cg = report
            .spans
            .iter()
            .filter(|s| s.kind == TaskKind::ComputeGpu)
            .count();
        assert_eq!(lw, steps * l);
        assert_eq!(cg, steps * l);
        assert!(report.spans.iter().all(|s| s.step < steps as u64));
        assert!(report.spans.iter().all(|s| s.batch.is_none()));
        // Scopes: one prefill + one decode.
        assert_eq!(report.scopes.iter().filter(|s| s.name == "prefill").count(), 1);
        assert_eq!(report.scopes.iter().filter(|s| s.name == "decode").count(), 1);
        // Metrics folded in.
        assert_eq!(
            report.metrics.counters["engine.weight_bytes_streamed"],
            g.weight_bytes_streamed
        );
        assert_eq!(
            report.metrics.counters["engine.tokens_generated"],
            (gen_len * prompts().len()) as u64
        );
        assert!(report.metrics.gauges["engine.pool.device.peak_fraction"] > 0.0);
        assert_eq!(
            report.metrics.histograms["task.load_weight.seconds"].count as usize,
            lw
        );
        // Tracing must not perturb the tokens.
        let clean = engine_with(256 << 20, true);
        let untraced = clean.run(&GenerateRequest::new(prompts(), gen_len)).unwrap();
        assert_eq!(g.tokens, untraced.tokens);
    }

    #[test]
    fn interleaved_blocks_equal_solo_runs() {
        // The engine holds no per-run state: ragged prompts of 4, 14 and 17
        // tokens prefilled in one sweep, and a fourth sequence prefilled two
        // steps later and then decoded in the same sweeps as the others,
        // each generate exactly what its solo run does. Their decode steps
        // open the pages at positions 16 and 32.
        let cfg = presets::tiny_test();
        let prompt = |len: u32, r: u32| -> Vec<u32> {
            (0..len).map(|i| (r * 31 + i * 7) % 500).collect()
        };
        let first = vec![prompt(4, 0), prompt(14, 1), prompt(17, 2)];
        let (late, gen_len, late_gen) = (prompt(9, 3), 17, 8);
        for kv in [None, Some(QuantConfig::int8()), Some(QuantConfig::int4())] {
            for prefetch in [true, false] {
                let options =
                    EngineOptions { prefetch, kv_quantize_at_rest: kv, ..EngineOptions::default() };
                let e = Engine::new(&cfg, 42, options).unwrap();
                let mut seqs = e.prefill(&first, gen_len).unwrap();
                let mut tokens = vec![Vec::new(); 4];
                for step in 0.. {
                    if step == 2 {
                        seqs.extend(e.prefill(std::slice::from_ref(&late), late_gen).unwrap());
                    }
                    let active = seqs.iter_mut().enumerate().filter(|(_, s)| s.step < s.gen_len);
                    let (rows, mut active): (Vec<usize>, Vec<&mut Seq>) = active.unzip();
                    if active.is_empty() {
                        break;
                    }
                    for (r, t) in rows.into_iter().zip(e.decode(&mut active).unwrap()) {
                        tokens[r].push(t);
                    }
                }
                let solo = |p: &Vec<u32>, n| {
                    e.run(&GenerateRequest::new(vec![p.clone()], n)).unwrap().tokens.remove(0)
                };
                let mut expected: Vec<Vec<u32>> = first.iter().map(|p| solo(p, gen_len)).collect();
                expected.push(solo(&late, late_gen));
                assert_eq!(tokens, expected, "prefetch {prefetch} kv {kv:?}");
            }
        }
    }

    /// The last hidden row of `prompt` fed as one prefill of `chunks[0]`
    /// rows, then each further chunk through one sweep onto the cache.
    fn fed_in_chunks(e: &Engine, prompt: &[u32], chunks: &[usize]) -> Vec<f32> {
        let first = prompt[..chunks[0]].to_vec();
        let mut seq = e.prefill(&[first], prompt.len() - chunks[0] + 1).unwrap().remove(0);
        let mut at = chunks[0];
        for &n in &chunks[1..] {
            let positions: Vec<usize> = (at..at + n).collect();
            let x = e.embedding.embed(&prompt[at..at + n], &positions);
            e.cross_layers(&mut [&mut seq], x, &[n], None).unwrap();
            at += n;
        }
        assert_eq!(at, prompt.len());
        seq.hidden.into_vec()
    }

    #[test]
    fn chunked_prefill_equals_one_shot() {
        // 25 prompt rows prefilled, then 15 more fed through one sweep: the
        // second chunk attends the 25 cached positions, so with f32 K/V the
        // last hidden row is the one-shot 40-row prefill's, bit for bit
        // (OPT and LLaMA, whose RoPE starts the chunk at position 25).
        let prompt: Vec<u32> = (0..40).map(|i| (i * 37 + 11) % 500).collect();
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut cfg = presets::tiny_test();
        let mut one_shot = Vec::new();
        for family in [Family::Llama, Family::Custom] {
            cfg.family = family;
            let e = Engine::new(&cfg, 42, EngineOptions::default()).unwrap();
            one_shot = fed_in_chunks(&e, &prompt, &[40]);
            let chunked = fed_in_chunks(&e, &prompt, &[25, 15]);
            assert_eq!(bits(&chunked), bits(&one_shot), "{family:?}");
        }
        // int4 K/V on the last (OPT-like) model: the second chunk reads the
        // first sealed, so it stays only within the cache's quantisation
        // error of the f32 result — 5.6 % of the row's largest element here,
        // where attention that skips the cached rows is off by 76 %.
        let kv_quantize_at_rest = Some(QuantConfig::int4());
        let e = Engine::new(&cfg, 42, EngineOptions { kv_quantize_at_rest, ..Default::default() });
        let chunked = fed_in_chunks(&e.unwrap(), &prompt, &[25, 15]);
        let err = chunked.iter().zip(&one_shot).map(|(a, b)| (a - b).abs()).fold(0.0, f32::max);
        let scale = one_shot.iter().fold(0.0f32, |m, x| m.max(x.abs()));
        assert!(err < 0.15 * scale, "int4 error {err}, row scale {scale}");
    }

    /// A sequence dropped after emitting `e` tokens and re-prefilled with
    /// its prompt plus those tokens, its step set to `e`, continues its solo
    /// stream bit for bit with f32 K/V, greedy or seeded. With quantised
    /// K/V it need not: the solo decode read the emitted rows sealed, the
    /// re-prefill attends them fresh at f32.
    #[test]
    fn a_reprefilled_sequence_continues_its_solo_stream() {
        let cfg = presets::tiny_test();
        let prompt: Vec<u32> = (0..9).map(|i| (i * 53 + 5) % 500).collect();
        let gen_len = 10;
        for sampler in [Sampler::Greedy, Sampler::TopK { k: 8, seed: 3 }] {
            let e = Engine::new(&cfg, 42, EngineOptions { sampler, ..Default::default() }).unwrap();
            let request = GenerateRequest::new(vec![prompt.clone()], gen_len);
            let solo = e.run(&request).unwrap().tokens.remove(0);
            for emitted in [1, 4, gen_len - 1] {
                let resumed = [&prompt[..], &solo[..emitted]].concat();
                let mut seq = e.prefill(&[resumed], gen_len - emitted).unwrap().remove(0);
                (seq.step, seq.gen_len) = (emitted as u64, gen_len as u64);
                let mut rest = Vec::new();
                while seq.step < seq.gen_len {
                    rest.extend(e.decode(&mut [&mut seq]).unwrap());
                }
                assert_eq!(rest, solo[emitted..], "{sampler:?} after {emitted}");
            }
        }
    }

    #[test]
    fn kv_lease_is_what_the_store_holds() {
        // On a fresh engine the host pool holds the weights, then the KV
        // lease: after one run that lease must be the at-rest KV bytes.
        let cfg = presets::tiny_test();
        for kv in [None, Some(QuantConfig::int8()), Some(QuantConfig::int4())] {
            let e = Engine::new(
                &cfg,
                42,
                EngineOptions {
                    kv_quantize_at_rest: kv,
                    ..EngineOptions::default()
                },
            )
            .unwrap();
            let g = e.run(&GenerateRequest::new(prompts(), 5)).unwrap();
            assert_eq!(
                g.host_peak - e.store.host_bytes(),
                g.kv_bytes_at_rest,
                "kv {kv:?}"
            );
        }
    }

    #[test]
    fn dtypes_round_trip_through_the_options() {
        use DType::*;
        for w in [F32, F16, Int8, Int4] {
            for kv in [F32, Int8, Int4] {
                let o = EngineOptions::default().with_dtypes(w, kv);
                assert_eq!((o.weights_dtype(), o.kv_dtype()), (w, kv));
            }
        }
        // The engine has no f16 cache.
        assert_eq!(EngineOptions::default().with_dtypes(F16, F16).kv_dtype(), F32);
    }

    #[test]
    fn kv_cache_charged_to_host() {
        let e = engine_with(256 << 20, true);
        let g = e.run(&GenerateRequest::new(prompts(), 4)).unwrap();
        // Host peak covers weights + KV lease.
        assert!(g.host_peak > e.store.host_bytes());
    }
}
