//! Metrics: counters, gauges, and log-scale histograms.
//!
//! Counters and gauges are plain atomics; histograms bucket values on a
//! logarithmic scale (4 sub-buckets per octave, ≤ ~9% relative error per
//! bucket) so p50/p95/p99 of quantities spanning decades — span
//! durations, fetch bytes — stay accurate without storing samples.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-buckets per factor-of-two (trades memory for quantile accuracy).
const SUB: f64 = 4.0;
/// Bucket 0 represents 2^-40 (~1e-12); the top bucket 2^24 (~1.7e7).
const OFFSET: f64 = 40.0;
const BUCKETS: usize = 256;

/// A lock-free log-scale histogram of non-negative values.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values, as f64 bits (CAS loop).
    sum_bits: AtomicU64,
    /// Min/max as f64 bits — monotonic for non-negative floats.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

fn bucket_of(v: f64) -> usize {
    if v <= 0.0 || !v.is_finite() {
        return 0;
    }
    let idx = ((v.log2() + OFFSET) * SUB).floor();
    idx.clamp(0.0, (BUCKETS - 1) as f64) as usize
}

/// Geometric center of a bucket.
fn bucket_value(idx: usize) -> f64 {
    ((idx as f64 + 0.5) / SUB - OFFSET).exp2()
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Record one value. Negative or non-finite values count into the
    /// lowest bucket (they indicate a caller bug, not a crash).
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Approximate quantile `q` in [0, 1]: the geometric center of the
    /// bucket where the cumulative count crosses `q·N`. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // Exclusive nearest-rank: p99 of 100 samples is the 100th value.
        let target = ((q.clamp(0.0, 1.0) * total as f64).floor() as u64 + 1).min(total);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return bucket_value(idx);
            }
        }
        bucket_value(BUCKETS - 1)
    }

    /// Count, sum, mean, min, max and p50/p95/p99. The quantiles are
    /// bucket centres clamped to `[min, max]`: a centre can lie outside
    /// the observed range, a quantile cannot.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSummary {
            count,
            sum: self.sum(),
            mean: if count == 0 {
                0.0
            } else {
                self.sum() / count as f64
            },
            min,
            max,
            // `max`/`min`, not `clamp`: a racing `record` can leave
            // min > max for an instant, and `clamp` panics on that.
            p50: self.quantile(0.50).max(min).min(max),
            p95: self.quantile(0.95).max(min).min(max),
            p99: self.quantile(0.99).max(min).min(max),
        }
    }
}

/// Serialisable digest of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

/// Named counters, gauges and histograms. Registration locks a map;
/// updates on an already-registered handle are atomic.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn intern<T>(
        map: &Mutex<BTreeMap<String, Arc<T>>>,
        name: &str,
        make: impl FnOnce() -> T,
    ) -> Arc<T> {
        let mut m = map.lock();
        if let Some(v) = m.get(name) {
            return Arc::clone(v);
        }
        let v = Arc::new(make());
        m.insert(name.to_string(), Arc::clone(&v));
        v
    }

    /// Add `n` to counter `name` (registering it on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        Self::intern(&self.counters, name, || AtomicU64::new(0)).fetch_add(n, Ordering::Relaxed);
    }

    /// Set gauge `name` to `v`.
    pub fn gauge_set(&self, name: &str, v: f64) {
        Self::intern(&self.gauges, name, || AtomicU64::new(0))
            .store(v.to_bits(), Ordering::Relaxed);
    }

    /// The histogram `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::intern(&self.histograms, name, Histogram::new)
    }

    /// Record one value into histogram `name`.
    pub fn histogram_record(&self, name: &str, v: f64) {
        self.histogram(name).record(v);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

/// Point-in-time serialisable view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_on_known_distribution() {
        let h = Histogram::new();
        // 100 values: 1.0 x90, 10.0 x9, 100.0 x1 — p50=1, p95=10, p99=100.
        for _ in 0..90 {
            h.record(1.0);
        }
        for _ in 0..9 {
            h.record(10.0);
        }
        h.record(100.0);
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 280.0).abs() < 1e-9);
        // Bucket centers are within ~9% of the true value.
        let rel = |got: f64, want: f64| (got / want - 1.0).abs();
        assert!(
            rel(h.quantile(0.50), 1.0) < 0.10,
            "p50 {}",
            h.quantile(0.50)
        );
        assert!(
            rel(h.quantile(0.95), 10.0) < 0.10,
            "p95 {}",
            h.quantile(0.95)
        );
        assert!(
            rel(h.quantile(0.99), 100.0) < 0.10,
            "p99 {}",
            h.quantile(0.99)
        );
        let s = h.summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 2.8).abs() < 1e-9);
    }

    #[test]
    fn histogram_spans_decades() {
        let h = Histogram::new();
        for v in [1e-9, 1e-6, 1e-3, 1.0, 1e3] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert!(s.min < 2e-9 && s.min > 0.5e-9);
        assert!(s.max > 0.9e3);
        // p50 is the middle sample (1e-3) to bucket accuracy.
        assert!((h.quantile(0.5) / 1e-3 - 1.0).abs() < 0.10);
    }

    #[test]
    fn quantiles_stay_inside_the_observed_range() {
        // One sample: every quantile is the sample, not its bucket centre.
        let h = Histogram::new();
        h.record(441.1);
        let s = h.summary();
        assert_ne!(h.quantile(0.5), 441.1, "the raw bucket centre differs");
        assert_eq!((s.p50, s.p95, s.p99), (441.1, 441.1, 441.1));
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn degenerate_values_fold_into_lowest_bucket() {
        let h = Histogram::new();
        h.record(-3.0);
        h.record(f64::NAN);
        h.record(0.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.summary().max, 0.0);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let r = MetricsRegistry::new();
        r.counter_add("fetch.bytes", 100);
        r.counter_add("fetch.bytes", 28);
        r.gauge_set("pool.occupancy", 0.75);
        r.gauge_set("pool.occupancy", 0.5); // gauges overwrite
        r.histogram_record("span.s", 2.0);
        r.histogram_record("span.s", 4.0);
        let s = r.snapshot();
        assert_eq!(s.counters["fetch.bytes"], 128);
        assert_eq!(s.gauges["pool.occupancy"], 0.5);
        assert_eq!(s.histograms["span.s"].count, 2);
        assert!((s.histograms["span.s"].sum - 6.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let r = MetricsRegistry::new();
        r.counter_add("c", 7);
        r.gauge_set("g", 1.5);
        r.histogram_record("h", 3.0);
        let snap = r.snapshot();
        let v = serde::Serialize::serialize(&snap);
        let back: MetricsSnapshot = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let r = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        r.counter_add("n", 1);
                        r.histogram_record("h", 1.0 + (i % 10) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = r.snapshot();
        assert_eq!(s.counters["n"], 4000);
        assert_eq!(s.histograms["h"].count, 4000);
        assert!((s.histograms["h"].sum - 4.0 * (1000.0 + 4500.0)).abs() < 1e-6);
    }
}
