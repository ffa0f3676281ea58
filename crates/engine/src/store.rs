//! The offloaded weight store: layers live at rest in the host pool
//! (optionally group-quantized — FlexGen's compressed format), and are
//! *fetched* — dequantized and materialised against the bounded device
//! pool — for the duration of their use. Dropping the fetched layer frees
//! the device bytes, so the pool's peak proves how much "GPU memory" the
//! run really needed.
//!
//! The f32 buffers a fetch fills are *device slots*: a dropped
//! [`FetchedLayer`] hands them back to the store and the next fetch writes
//! into them in place, as a transfer into preallocated device memory
//! would. A fresh 28 MB allocation per fetch is bound by first-touch page
//! faults (1.7 GB/s), not by the copy (13 GB/s into memory that exists).

use crate::model::LayerWeights;
use crate::pools::{Lease, MemPool, PoolExhausted};
use lm_fault::{FaultInjector, RetryPolicy};
use lm_tensor::{dequantize_into, Linear, QuantConfig, Tensor, WeightStore as LinearStore};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The weight-matrix buffers of one fetched layer, in
/// [`LayerWeights::linears`] order.
type Slot = Vec<Vec<f32>>;

/// A layer materialised into the device pool.
pub struct FetchedLayer {
    pub weights: LayerWeights,
    pub layer: u32,
    free_slots: Arc<Mutex<Vec<Slot>>>,
    _lease: Lease,
}

impl Drop for FetchedLayer {
    /// Runs before `_lease` drops: the slot is back on the free list
    /// before the device bytes are released, so whoever is granted them
    /// finds it there.
    fn drop(&mut self) {
        let slot = self
            .weights
            .linears_mut()
            .map(|l| {
                let hollow = LinearStore::Full(Tensor::zeros([0]));
                match std::mem::replace(&mut l.weight, hollow) {
                    LinearStore::Full(t) => t.into_vec(),
                    _ => Vec::new(),
                }
            })
            .collect();
        self.free_slots.lock().push(slot);
    }
}

/// The at-rest weight store.
pub struct OffloadStore {
    layers: Vec<Arc<LayerWeights>>,
    pub host: Arc<MemPool>,
    pub device: Arc<MemPool>,
    /// Bytes moved host→device over the store's lifetime (the real
    /// engine's `load_weight` traffic — comparable to the analytic
    /// model's per-token weight volume).
    fetched_bytes: AtomicU64,
    /// Injects transfer stalls into fetches; disabled by default.
    pub fault: FaultInjector,
    /// Slots of dropped fetches. One is built only when a granted lease
    /// finds none free, so at most as many exist as layers were ever
    /// leased at once (two with prefetch).
    free_slots: Arc<Mutex<Vec<Slot>>>,
    _host_lease: Lease,
}

/// At-rest weight precision of the host store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightsAtRest {
    /// Full f32 (test default).
    #[default]
    F32,
    /// Half precision — the paper's fp16 baseline.
    F16,
    /// Group-quantized (FlexGen's compressed format).
    Quantized(QuantConfig),
}

impl WeightsAtRest {
    /// Apply this precision to a layer in place.
    pub fn apply(self, layer: &mut LayerWeights) {
        match self {
            WeightsAtRest::F32 => {}
            WeightsAtRest::F16 => layer.halve(),
            WeightsAtRest::Quantized(q) => layer.quantize(q),
        }
    }
}

/// `l` at full precision, its weights written into `buf` in place: a
/// copy for f32, a widen for f16, a dequantize for int4/int8.
fn fill_linear(l: &Linear, mut buf: Vec<f32>) -> Linear {
    buf.resize(l.out_features * l.in_features, 0.0);
    match &l.weight {
        LinearStore::Full(t) => buf.copy_from_slice(t.data()),
        LinearStore::Half(h) => h.widen_into(&mut buf),
        LinearStore::Quantized(q) => dequantize_into(q, &mut buf),
    }
    Linear {
        weight: LinearStore::Full(Tensor::from_vec([l.out_features, l.in_features], buf)),
        bias: l.bias.clone(),
        in_features: l.in_features,
        out_features: l.out_features,
    }
}

impl OffloadStore {
    /// Build from an explicit layer source (e.g. a disk checkpoint) at the
    /// requested at-rest precision, charging the host pool.
    pub fn from_layers(
        layers: impl IntoIterator<Item = LayerWeights>,
        at_rest: WeightsAtRest,
        host: Arc<MemPool>,
        device: Arc<MemPool>,
    ) -> Result<Self, PoolExhausted> {
        let mut stored = Vec::new();
        let mut total = 0usize;
        for mut w in layers {
            at_rest.apply(&mut w);
            total += w.bytes();
            stored.push(Arc::new(w));
        }
        let host_lease = host.alloc(total)?;
        Ok(OffloadStore {
            layers: stored,
            host,
            device,
            fetched_bytes: AtomicU64::new(0),
            fault: FaultInjector::disabled(),
            free_slots: Arc::default(),
            _host_lease: host_lease,
        })
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total at-rest bytes.
    pub fn host_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.bytes()).sum()
    }

    /// Bytes a fetched (fully materialised) layer occupies on device.
    pub fn fetched_bytes(&self, layer: u32) -> usize {
        // Materialised layers are full-precision regardless of the
        // at-rest format; compute from a cheap probe of feature counts.
        let l = &self.layers[layer as usize];
        let lin = |x: &Linear| {
            x.in_features * x.out_features * 4 + x.bias.as_ref().map_or(0, |b| b.len() * 4)
        };
        let norms = (l.ln1_gamma.len() + l.ln1_beta.len()) * 4 * 2;
        l.linears().map(lin).sum::<usize>() + norms
    }

    /// Total host→device weight traffic so far, in bytes. At rest the
    /// layers may be quantized, so the *transferred* volume is the
    /// at-rest size (what crosses the link), not the materialised size.
    pub fn total_fetched_bytes(&self) -> u64 {
        self.fetched_bytes.load(Ordering::Relaxed)
    }

    /// Fetch layer `idx` to the device: dequantize/copy into a
    /// full-precision working set — a free device slot, or a new one —
    /// charged to the device pool. With a fault injector attached, the
    /// transfer may stall (a real sleep — the engine-side counterpart of
    /// the simulator's virtual stall).
    pub fn fetch(&self, idx: u32) -> Result<FetchedLayer, PoolExhausted> {
        if let Some(stall) = self.fault.transfer_stall("store.fetch", idx as u64) {
            std::thread::sleep(stall);
        }
        let at_rest = &self.layers[idx as usize];
        let lease = self.device.alloc(self.fetched_bytes(idx))?;
        self.fetched_bytes
            .fetch_add(at_rest.bytes() as u64, Ordering::Relaxed);
        let mut slot = self.free_slots.lock().pop().unwrap_or_default().into_iter();
        let mut fill = |l: &Linear| fill_linear(l, slot.next().unwrap_or_default());
        let weights = LayerWeights {
            ln1_gamma: at_rest.ln1_gamma.clone(),
            ln1_beta: at_rest.ln1_beta.clone(),
            q: fill(&at_rest.q),
            k: fill(&at_rest.k),
            v: fill(&at_rest.v),
            o: fill(&at_rest.o),
            ln2_gamma: at_rest.ln2_gamma.clone(),
            ln2_beta: at_rest.ln2_beta.clone(),
            mlp: at_rest.mlp.iter().map(fill).collect(),
            family: at_rest.family,
        };
        Ok(FetchedLayer {
            weights,
            layer: idx,
            free_slots: Arc::clone(&self.free_slots),
            _lease: lease,
        })
    }

    /// [`OffloadStore::fetch`] under a retry policy: transient device-pool
    /// pressure (injected or real) is retried with backoff until the
    /// policy's attempt or deadline budget runs out. Retries are counted
    /// on the attached injector.
    pub fn fetch_with_retry(
        &self,
        idx: u32,
        retry: &RetryPolicy,
    ) -> Result<FetchedLayer, PoolExhausted> {
        let mut retried = false;
        let out = retry.run(
            |_| self.fetch(idx),
            |_, _| {
                retried = true;
                self.fault.note_retry();
            },
        );
        match out {
            Ok(f) => {
                if retried {
                    self.fault.note_retry_success();
                }
                Ok(f)
            }
            Err(e) => Err(e.into_last()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lm_models::{presets, ModelConfig};

    /// Synthetic layers for `cfg` at `at_rest`, through the one
    /// constructor.
    fn synth_store(
        cfg: &ModelConfig,
        seed: u64,
        at_rest: WeightsAtRest,
        host: Arc<MemPool>,
        device: Arc<MemPool>,
    ) -> OffloadStore {
        let layers = (0..cfg.num_layers).map(|i| LayerWeights::synthesize(cfg, i, seed));
        OffloadStore::from_layers(layers, at_rest, host, device).unwrap()
    }

    fn pools(device_cap: usize) -> (Arc<MemPool>, Arc<MemPool>) {
        (
            MemPool::new("host", 1 << 30),
            MemPool::new("device", device_cap),
        )
    }

    #[test]
    fn quantized_at_rest_is_smaller_on_host() {
        let cfg = presets::tiny_test();
        let (h1, d1) = pools(1 << 30);
        let full = synth_store(&cfg, 1, WeightsAtRest::F32, h1.clone(), d1);
        let (h2, d2) = pools(1 << 30);
        let int4 = WeightsAtRest::Quantized(QuantConfig::int4());
        let quant = synth_store(&cfg, 1, int4, h2.clone(), d2);
        assert!(quant.host_bytes() * 3 < full.host_bytes());
        assert_eq!(h1.used(), full.host_bytes());
        assert_eq!(h2.used(), quant.host_bytes());
    }

    #[test]
    fn fetch_charges_and_frees_device_pool() {
        let cfg = presets::tiny_test();
        let (host, device) = pools(16 << 20);
        let int8 = WeightsAtRest::Quantized(QuantConfig::int8());
        let store = synth_store(&cfg, 2, int8, host, device.clone());
        assert_eq!(device.used(), 0);
        {
            let f = store.fetch(0).unwrap();
            assert_eq!(device.used(), store.fetched_bytes(0));
            assert_eq!(f.layer, 0);
        }
        assert_eq!(device.used(), 0, "drop must free the lease");
    }

    #[test]
    fn fetch_fails_when_device_too_small() {
        let cfg = presets::tiny_test();
        let (host, device) = pools(1024); // far too small for a layer
        let store = synth_store(&cfg, 3, WeightsAtRest::F32, host, device);
        assert!(store.fetch(0).is_err());
    }

    #[test]
    fn fetched_layer_computes_like_at_rest_full_precision() {
        use lm_tensor::{KvCache, Tensor};
        let cfg = presets::tiny_test();
        let (host, device) = pools(64 << 20);
        let store = synth_store(&cfg, 4, WeightsAtRest::F32, host, device);
        let fetched = store.fetch(1).unwrap();
        let reference = LayerWeights::synthesize(&cfg, 1, 4);
        let x = Tensor::randn([2, 64], 1.0, 8);
        let mut c1 = KvCache::new(2, 64, 4);
        let mut c2 = KvCache::new(2, 64, 4);
        let a = fetched.weights.forward_decode(&x, &mut c1, 4, 0);
        let b = reference.forward_decode(&x, &mut c2, 4, 0);
        assert!(a.allclose(&b, 1e-6));
    }

    #[test]
    fn fetch_retries_clear_injected_pool_pressure() {
        use lm_fault::{FaultConfig, FaultInjector};
        let cfg = presets::tiny_test();
        let (host, device) = pools(64 << 20);
        let fault = FaultInjector::new(FaultConfig {
            pool_pressure_rate: 0.6,
            pool_pressure_bytes: 1 << 30, // bigger than the pool: spike = failure
            ..FaultConfig::quiescent(11)
        });
        device.attach_fault(fault.clone());
        let mut store = synth_store(&cfg, 6, WeightsAtRest::F32, host, device);
        store.fault = fault.clone();
        let policy = lm_fault::RetryPolicy {
            max_attempts: 32,
            ..lm_fault::RetryPolicy::fast_test()
        };
        // At rate 0.6 with fresh draws per attempt, 32 attempts make
        // failure astronomically unlikely; every layer must come through.
        for i in 0..store.num_layers() as u32 {
            store.fetch_with_retry(i, &policy).unwrap();
        }
        let stats = fault.stats();
        assert!(stats.pool_pressure_spikes > 0, "spikes never fired");
        assert_eq!(stats.retries, stats.pool_pressure_spikes);
    }

    /// Every weight matrix of a layer, in slot order.
    fn linears(w: &LayerWeights) -> Vec<&Linear> {
        [&w.q, &w.k, &w.v, &w.o].into_iter().chain(&w.mlp).collect()
    }

    #[test]
    fn reused_slot_holds_exactly_the_newly_fetched_layer() {
        let cfg = presets::tiny_test();
        for at_rest in [
            WeightsAtRest::F32,
            WeightsAtRest::F16,
            WeightsAtRest::Quantized(QuantConfig::int8()),
            WeightsAtRest::Quantized(QuantConfig::int4()),
        ] {
            let (host, device) = pools(64 << 20);
            let layers = (0..2).map(|i| LayerWeights::synthesize(&cfg, i, 9));
            let store = OffloadStore::from_layers(layers, at_rest, host, device.clone()).unwrap();
            drop(store.fetch(0).unwrap());
            assert_eq!(device.used(), 0, "{at_rest:?}: drop must free the lease");
            assert_eq!(
                store.free_slots.lock().len(),
                1,
                "{at_rest:?}: slot not returned"
            );

            let fetched = store.fetch(1).unwrap();
            assert!(
                store.free_slots.lock().is_empty(),
                "{at_rest:?}: slot not reused"
            );
            let fresh = linears(&store.layers[1]);
            for (m, (got, want)) in linears(&fetched.weights).into_iter().zip(fresh).enumerate() {
                let (got, want) = (got.weight.as_full(), want.weight.as_full());
                assert_eq!(got.shape(), want.shape());
                let same = got
                    .data()
                    .iter()
                    .zip(want.data())
                    .all(|(g, w)| g.to_bits() == w.to_bits());
                assert!(
                    same,
                    "{at_rest:?}: matrix {m} of layer 1 carries stale bits"
                );
            }
            drop(fetched);
            assert_eq!(device.used(), 0);
            assert_eq!(
                device.peak(),
                store.fetched_bytes(0),
                "{at_rest:?}: more than one layer"
            );
            assert_eq!(
                store.free_slots.lock().len(),
                1,
                "{at_rest:?}: a second slot was built"
            );
        }
    }

    #[test]
    fn tokens_do_not_depend_on_prefetch_device_budget_or_slot_reuse() {
        use crate::{Engine, EngineOptions, GenerateRequest};
        let cfg = presets::tiny_test();
        let request = GenerateRequest::new(vec![vec![3, 1, 4, 1, 5], vec![9, 2, 6, 5, 3]], 6);
        let int4 = Some(QuantConfig::int4());
        for (f16_at_rest, quantize_at_rest) in [(false, None), (true, None), (false, int4)] {
            let mut runs = Vec::new();
            for prefetch in [true, false] {
                for two_layers in [true, false] {
                    let options = |device_capacity| EngineOptions {
                        device_capacity,
                        f16_at_rest,
                        quantize_at_rest,
                        prefetch,
                        ..EngineOptions::default()
                    };
                    let unbounded = Engine::new(&cfg, 7, options(1 << 40)).unwrap();
                    let engine = if two_layers {
                        let budget = 2 * unbounded.layer_fetch_bytes(0) + (1 << 20);
                        Engine::new(&cfg, 7, options(budget)).unwrap()
                    } else {
                        unbounded
                    };
                    runs.push(engine.run(&request).unwrap().tokens);
                }
            }
            assert!(
                runs.iter().all(|t| t == &runs[0]),
                "f16 {f16_at_rest}, quantized {quantize_at_rest:?}: {runs:?}"
            );
        }
    }

    #[test]
    fn double_buffering_needs_two_layer_budget() {
        let cfg = presets::tiny_test();
        let (host, device) = pools(0);
        let store = synth_store(&cfg, 5, WeightsAtRest::F32, host, device.clone());
        let one = store.fetched_bytes(0);
        // Rebuild device pool sized for exactly two layers.
        let device2 = MemPool::new("device", 2 * one);
        let store = OffloadStore {
            device: device2.clone(),
            ..store
        };
        let a = store.fetch(0).unwrap();
        let b = store.fetch(1).unwrap();
        assert!(store.fetch(2).is_err(), "third concurrent fetch must fail");
        drop(a);
        let _c = store.fetch(2).unwrap();
        drop(b);
        assert_eq!(device2.used(), store.fetched_bytes(2));
    }
}
