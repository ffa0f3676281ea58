//! The micro-pass of a traced run: single calls into one layer at the
//! shapes the workload itself uses, each timed as the minimum of
//! `samples` timings of a pinned number of back-to-back calls. FLOP and
//! byte counts per call are computed from the tensor shapes, not
//! measured.

use crate::params::{Micro, Offline, Sim, WEIGHT_SEED};
use crate::spans::{Recorder, SpanGuard, SpanId};
use crate::stats::Summary;
use lm_engine::{CacheStore, Embedding, LayerWeights, MemPool, OffloadStore, WeightsAtRest};
use lm_hardware::presets::single_gpu_a100;
use lm_kvpool::{PageConfig, PagedKvPool};
use lm_models::{presets, Workload};
use lm_offload::{lm_offload_search, quant_aware_provider, QuantCostParams, ThreadFactors};
use lm_parallelism::{attention_graph, burn, Executor};
use lm_serve::{derive_plan, AnalyticBackend, ServeBackend, ServeConfig};
use lm_sim::{simulate, Policy};
use lm_tensor::ops::matmul::{matmul, matmul_transb};
use lm_tensor::{dequantize, mha_decode, mha_prefill, quantize, KvCache, QuantConfig, Tensor};
use lm_trace::{TaskKind, Tracer};
use std::hint::black_box;
use std::time::Instant;

const GIB: f64 = (1u64 << 30) as f64;

/// One micro row: the metric value, the per-call timing behind it, and
/// the computed work per call where the row is a rate.
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub iters: usize,
    /// Nanoseconds per call across the samples.
    pub ns_per_call: Summary,
    pub flops_per_call: Option<f64>,
    pub bytes_per_call: Option<f64>,
}

pub struct Pass<'r> {
    micro: Micro,
    recorder: &'r Recorder,
    parent: Option<SpanId>,
    pub rows: Vec<Row>,
}

/// The crate a metric belongs to, from its name's prefix: the Perfetto
/// row its span lands on.
fn layer_of(metric: &str) -> String {
    match metric.split('.').next() {
        Some("offload") => "lm-offload".to_string(),
        Some(prefix) => format!("lm-{prefix}"),
        None => "harness".to_string(),
    }
}

impl<'r> Pass<'r> {
    /// Every row's timing is recorded as a span under `parent`.
    pub fn new(micro: Micro, recorder: &'r Recorder, parent: Option<SpanId>) -> Self {
        Pass {
            micro,
            recorder,
            parent,
            rows: Vec::new(),
        }
    }

    fn span(&self, name: &str) -> SpanGuard<'r> {
        self.recorder.span(name, &layer_of(name), self.parent, None)
    }

    /// Minimum over the samples of the mean time of `iters` calls.
    fn time(&self, name: &str, iters: usize, mut f: impl FnMut()) -> (usize, Summary) {
        let _span = self.span(name);
        let iters = ((iters as f64 * self.micro.iters_scale).ceil() as usize).max(1);
        let samples: Vec<f64> = (0..self.micro.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        (iters, Summary::of(&samples))
    }

    /// A latency row, reported in `unit_ns`-sized units (1e6 for ms).
    fn latency(&mut self, name: &'static str, unit_ns: f64, iters: usize, f: impl FnMut()) {
        let (iters, ns) = self.time(name, iters, f);
        self.push(name, ns.min / unit_ns, iters, ns, None, None);
    }

    /// A latency row from per-call samples (ns) gathered by the caller.
    fn push_latency(&mut self, name: &'static str, unit_ns: f64, iters: usize, ns: &[f64]) {
        let ns = Summary::of(ns);
        self.push(name, ns.min / unit_ns, iters, ns, None, None);
    }

    fn push(
        &mut self,
        name: &'static str,
        value: f64,
        iters: usize,
        ns_per_call: Summary,
        flops_per_call: Option<f64>,
        bytes_per_call: Option<f64>,
    ) {
        self.rows.push(Row {
            name,
            value,
            iters,
            ns_per_call,
            flops_per_call,
            bytes_per_call,
        });
    }

    /// A rate row over the fastest call: GFLOP/s when `flops` is given,
    /// otherwise GiB/s of `bytes`.
    fn rate(
        &mut self,
        name: &'static str,
        flops: Option<f64>,
        bytes: Option<f64>,
        iters: usize,
        f: impl FnMut(),
    ) {
        let (iters, ns) = self.time(name, iters, f);
        let value = match (flops, bytes) {
            (Some(flops), _) => flops / ns.min,
            (None, Some(bytes)) => bytes / ns.min * 1e9 / GIB,
            (None, None) => 0.0,
        };
        self.push(name, value, iters, ns, flops, bytes);
    }

    /// Cost of one `lm-trace` task span on an enabled tracer.
    pub fn trace_span(&mut self) {
        let tracer = Tracer::new();
        self.latency("trace.span_ns", 1.0, 20_000, || {
            drop(black_box(tracer.task_span(
                TaskKind::ComputeGpu,
                0,
                0,
                None,
            )));
        });
    }

    /// Kernels and engine pieces at `offline_decode`'s shapes.
    pub fn decode(&mut self, p: &Offline) {
        let cfg = &p.model;
        let (b, h, f) = (p.prompts, cfg.hidden as usize, cfg.ffn_hidden as usize);
        let heads = cfg.num_heads as usize;
        let ctx = p.prompt_len + p.gen_len;
        let x = Tensor::randn([b, h], 1.0, 1);

        let w = Tensor::randn([f, h], 0.02, 2);
        self.rate(
            "tensor.gemv_gibs",
            None,
            Some((f * h * 4) as f64),
            10,
            || drop(black_box(matmul_transb(&x, &w))),
        );
        drop(w);

        let mut cache = KvCache::new(b, h, ctx);
        for i in 0..ctx - 1 {
            let k = Tensor::randn([b, h], 1.0, 10 + i as u64);
            cache.append(&k, &k);
        }
        self.rate(
            "tensor.mha_decode_gflops",
            Some((4 * (ctx - 1) * h * b) as f64),
            None,
            2000,
            || drop(black_box(mha_decode(&x, &cache, heads))),
        );

        let layer = LayerWeights::synthesize(cfg, 0, WEIGHT_SEED);
        self.latency("engine.layer_decode_ms", 1e6, 5, || {
            let mut c = cache.clone();
            black_box(layer.forward_decode(&x, &mut c, heads, ctx - 1));
        });

        let fetch = fetch_fixture(layer, WeightsAtRest::F32);
        self.latency("engine.fetch_layer_ms", 1e6, 5, || {
            drop(black_box(
                fetch.fetch(0).expect("the fixture pool holds one layer"),
            ));
        });
        drop(fetch);

        let embedding = Embedding::synthesize(cfg, WEIGHT_SEED);
        self.latency("engine.unembed_ms", 1e6, 3, || {
            black_box(embedding.unembed(&x));
        });
    }

    /// Kernels and engine pieces at `offline_prefill_q4`'s shapes.
    pub fn prefill_q4(&mut self, p: &Offline) {
        let cfg = &p.model;
        let (b, s) = (p.prompts, p.prompt_len);
        let (h, f) = (cfg.hidden as usize, cfg.ffn_hidden as usize);
        let heads = cfg.num_heads as usize;
        let m = b * s;
        let q4 = QuantConfig::int4();
        let x = Tensor::randn([m, h], 1.0, 1);
        let gemm_flops = (2 * m * h * f) as f64;

        let w = Tensor::randn([h, f], 0.02, 2);
        self.rate("tensor.gemm_gflops", Some(gemm_flops), None, 3, || {
            black_box(matmul(&x, &w));
        });
        let wt = w.reshape([f, h]);
        self.rate(
            "tensor.gemm_transb_gflops",
            Some(gemm_flops),
            None,
            3,
            || {
                black_box(matmul_transb(&x, &wt));
            },
        );
        drop(wt);

        let qkv = Tensor::randn([b, s, h], 1.0, 3);
        self.rate(
            "tensor.attn_prefill_gflops",
            Some((4 * s * s * h * b) as f64),
            None,
            20,
            || drop(black_box(mha_prefill(&qkv, &qkv, &qkv, heads))),
        );

        // One layer's worth of weights through Algorithm 2 and back.
        let elems = cfg.weights_per_layer() as usize;
        let flat = Tensor::randn([elems / h, h], 0.02, 4);
        let f32_bytes = (elems * 4) as f64;
        self.rate(
            "tensor.quantize_int4_gibs",
            None,
            Some(f32_bytes),
            2,
            || {
                black_box(quantize(&flat, q4));
            },
        );
        let packed = quantize(&flat, q4);
        drop(flat);
        self.rate(
            "tensor.dequantize_int4_gibs",
            None,
            Some(f32_bytes),
            3,
            || {
                black_box(dequantize(&packed));
            },
        );
        drop(packed);

        let layer = LayerWeights::synthesize(cfg, 0, WEIGHT_SEED);
        let x3 = x.reshape([b, s, h]);
        self.latency("engine.layer_prefill_ms", 1e6, 2, || {
            let mut c = KvCache::new(b, h, s);
            black_box(layer.forward_prefill(&x3, &mut c, heads, 0));
        });

        let fetch = fetch_fixture(layer, WeightsAtRest::Quantized(q4));
        self.latency("engine.fetch_layer_q4_ms", 1e6, 3, || {
            drop(black_box(
                fetch.fetch(0).expect("the fixture pool holds one layer"),
            ));
        });
        drop(fetch);

        // Eq. 5-7 cycle: dequantise the prompt's KV, append one position,
        // re-quantise the new tail.
        // A fresh store per sample, built outside the timed calls.
        let k1 = Tensor::randn([b, h], 1.0, 5);
        let iters = ((20.0 * self.micro.iters_scale).ceil() as usize).max(1);
        let span = self.span("engine.kv_q4_roundtrip_ms");
        let samples: Vec<f64> = (0..self.micro.samples)
            .map(|_| {
                let mut store = CacheStore::new_quantized(b, h, s + iters, q4);
                store.with_full(|c| c.append(&x3, &x3));
                let t = Instant::now();
                for _ in 0..iters {
                    store.with_full(|c| c.append(&k1, &k1));
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        drop(span);
        self.push_latency("engine.kv_q4_roundtrip_ms", 1e6, iters, &samples);
    }

    /// Page-table operations at the scheduler's own page geometry.
    pub fn kvpool(&mut self) {
        let backend = AnalyticBackend::opt_30b();
        let (plan, _) = derive_plan(&backend, &ServeConfig::default());
        let page = plan.page_tokens as usize;
        let pool = PagedKvPool::new(
            MemPool::new("micro.kv", plan.kv_pool_bytes as usize),
            PageConfig {
                page_tokens: page,
                bytes_per_token: (plan.page_bytes / plan.page_tokens.max(1)) as usize,
            },
        );
        let (prompt_len, gen_len) = (256usize, 32usize);
        let fits = "the micro pool fits its few sequences";

        // Admissions of unshared sequences, then their drops, each timed
        // as a batch so neither includes the other.
        let batch: Vec<Vec<u32>> = (0..8u32)
            .map(|i| (0..prompt_len as u32).map(|t| 1 + t + 1000 * i).collect())
            .collect();
        let rounds = ((250.0 * self.micro.iters_scale).ceil() as usize).max(1);
        let span = self.span("kvpool.admit_ns + kvpool.drop_ns");
        let (mut admit, mut release) = (Vec::new(), Vec::new());
        for _ in 0..self.micro.samples {
            let (mut admit_ns, mut drop_ns) = (0u128, 0u128);
            for _ in 0..rounds {
                let t = Instant::now();
                let held: Vec<_> = batch
                    .iter()
                    .map(|p| pool.admit(p, gen_len).expect(fits))
                    .collect();
                admit_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                drop(held);
                drop_ns += t.elapsed().as_nanos();
            }
            let calls = (rounds * batch.len()) as f64;
            admit.push(admit_ns as f64 / calls);
            release.push(drop_ns as f64 / calls);
        }
        drop(span);
        self.push_latency("kvpool.admit_ns", 1.0, rounds * batch.len(), &admit);
        self.push_latency("kvpool.drop_ns", 1.0, rounds * batch.len(), &release);

        // Admission that maps an already-resident prefix (with its drop).
        let resident = pool.admit(&batch[0], gen_len).expect(fits);
        self.latency("kvpool.admit_shared_ns", 1.0, 2000, || {
            drop(black_box(pool.admit(&batch[0], gen_len).expect(fits)));
        });
        drop(resident);

        // Appends inside the reservation, page turns included.
        let mut seq = None;
        let mut left = 0;
        self.latency("kvpool.append_ns", 1.0, 4000, || {
            if left == 0 {
                seq = Some(pool.admit(&batch[0][..page], gen_len).expect(fits));
                left = gen_len;
            }
            if let Some(s) = seq.as_mut() {
                s.append(7).expect("appends stay inside the reservation");
            }
            left -= 1;
        });
        drop(seq);

        // First divergent write into a shared open tail page (with the
        // shared admission and drop around it).
        let tail = &batch[0][..page + page / 2];
        let owner = pool.admit(tail, gen_len).expect(fits);
        self.latency("kvpool.cow_fork_ns", 1.0, 1000, || {
            let mut forked = pool.admit(tail, gen_len).expect(fits);
            forked
                .append(9)
                .expect("the fork page is provisioned at admission");
        });
        drop(owner);
    }

    /// The analytic cost calls under the virtual-clock scheduler, the
    /// admission plan, the event-driven simulator and the policy search.
    pub fn sim(&mut self, sim: &Sim) {
        let backend = AnalyticBackend::opt_30b();
        let contexts: Vec<u64> = (0..16).map(|i| 96 + 24 * i).collect();
        self.latency("sim.decode_cost_ns", 1.0, 20_000, || {
            black_box(backend.decode_step_seconds(black_box(&contexts)));
        });
        self.latency("sim.prefill_cost_ns", 1.0, 20_000, || {
            black_box(backend.prefill_seconds(black_box(256), black_box(2)));
        });
        let cfg = ServeConfig {
            slo: Some(lm_serve::SloPolicy::enforcing(sim.slo_ttft_s)),
            ..ServeConfig::default()
        };
        self.latency("serve.derive_plan_us", 1e3, 200, || {
            black_box(derive_plan(&backend, &cfg));
        });

        let platform = single_gpu_a100();
        let model = presets::opt_30b();
        let w = Workload::new(64, 8, 8, 2);
        let provider = quant_aware_provider(
            &platform,
            &model,
            &w,
            Policy::flexgen_default(),
            QuantCostParams::lm_offload_kernels(),
            ThreadFactors::Controlled,
        );
        self.latency("sim.simulate_ms", 1e6, 5, || {
            black_box(simulate(&provider, &w, model.num_layers));
        });
        self.latency("offload.policy_search_ms", 1e6, 1, || {
            black_box(lm_offload_search(
                &platform,
                &model,
                64,
                8,
                QuantCostParams::lm_offload_kernels(),
                ThreadFactors::Controlled,
            ));
        });
    }

    /// The task-graph executor's fixed cost and real-core speed-up, and
    /// the Algorithm 3 search.
    pub fn parallelism(&mut self) {
        let graph = attention_graph(32, 64, 256, 7);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.latency("parallelism.executor_fixed_us", 1e3, 50, || {
            black_box(Executor::new(cores, 1).run(&graph, |_, _| {}));
        });

        // Unit-scale burn: each operator does its nominal FLOPs.
        let work = |node: usize, threads: usize| burn(graph.nodes[node].flops, threads);
        let (_, serial) = self.time("parallelism.executor_speedup (1 worker)", 2, || {
            black_box(Executor::new(1, 1).run(&graph, work));
        });
        let (iters, parallel) = self.time("parallelism.executor_speedup", 2, || {
            black_box(Executor::new(cores, 1).run(&graph, work));
        });
        let speedup = if parallel.min > 0.0 {
            serial.min / parallel.min
        } else {
            0.0
        };
        self.push(
            "parallelism.executor_speedup",
            speedup,
            iters,
            parallel,
            None,
            None,
        );

        let platform = single_gpu_a100();
        let w = Workload::new(64, 8, 8, 2);
        self.latency("parallelism.search_ms", 1e6, 3, || {
            black_box(lm_offload::derive_plan(
                &platform,
                &presets::opt_30b(),
                &w,
                &Policy::flexgen_default(),
            ));
        });
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }
}

/// A one-layer offload store with room on the "device" for one fetch.
fn fetch_fixture(layer: LayerWeights, at_rest: WeightsAtRest) -> OffloadStore {
    OffloadStore::from_layers(
        [layer],
        at_rest,
        MemPool::new("micro.host", 1 << 32),
        MemPool::new("micro.device", 1 << 32),
    )
    .expect("the fixture pools are far larger than one layer")
}
