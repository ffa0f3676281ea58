//! At-rest KV-cache compression — FlexGen's `compress_cache`, the paper's
//! Eq. 5-7 path — lives in [`KvCache::new_quantized`]: one store for f32
//! and quantised KV, which `attend` dequantises page by page (the
//! continuously-growing dequantization cost of §3.1, Observation 2).

use lm_tensor::KvCache;

/// The engine's KV store under the name `benchmark/src/micro.rs` builds
/// against.
pub type CacheStore = KvCache;

#[cfg(test)]
mod tests {
    use super::*;
    use lm_tensor::{QuantConfig, Tensor};

    /// `steps` single-position appends, the way the micro benchmark makes
    /// them.
    fn fill(store: &mut CacheStore, hidden: usize, steps: usize, seed: u64) {
        for i in 0..steps {
            store.with_full(|c| {
                let k = Tensor::randn([2, hidden], 1.0, seed + i as u64);
                let v = Tensor::randn([2, hidden], 1.0, seed + 100 + i as u64);
                c.append(&k, &v);
            });
        }
    }

    #[test]
    fn quantized_store_tracks_length() {
        let mut s = CacheStore::new_quantized(2, 64, 16, QuantConfig::int8());
        assert!(s.is_empty());
        fill(&mut s, 64, 5, 1);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn quantized_at_rest_is_smaller_than_full() {
        let mut full = CacheStore::new(2, 64, 64);
        let mut quant = CacheStore::new_quantized(2, 64, 64, QuantConfig::int8());
        fill(&mut full, 64, 32, 7);
        fill(&mut quant, 64, 32, 7);
        assert!(
            quant.bytes() * 2 < full.bytes(),
            "quant {} vs full {}",
            quant.bytes(),
            full.bytes()
        );
    }

    #[test]
    fn materialized_values_within_error_bound() {
        // The latest append's row reads back as written; once the next
        // append has quantized it (int8), each value is within the group
        // quantization bound of what was appended.
        let mut quant = CacheStore::new_quantized(1, 64, 8, QuantConfig::int8());
        let k = Tensor::randn([1, 64], 1.0, 11);
        let v = Tensor::randn([1, 64], 1.0, 12);
        quant.append(&k, &v);
        assert_eq!(quant.keys(0), k.data());
        quant.append(&v, &k);
        assert_ne!(quant.keys(0)[..64], k.data()[..]);
        for (a, b) in quant.keys(0).iter().zip(k.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        for (a, b) in quant.values(0).iter().zip(v.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
        assert_eq!(quant.keys(0)[64..], v.data()[..]);
    }

    #[test]
    fn requantization_is_chunk_local() {
        // Appending later rows must not change earlier rows (no
        // cumulative requantization error: each row is quantized once,
        // by the append after its own).
        let mut quant = CacheStore::new_quantized(1, 64, 8, QuantConfig::int4());
        for i in 0..2 {
            let k = Tensor::randn([1, 64], 1.0, 21 + i);
            quant.append(&k, &k);
        }
        let first = quant.keys(0)[..64].to_vec();
        for i in 0..3 {
            let k = Tensor::randn([1, 64], 1.0, 30 + i);
            quant.append(&k, &k);
        }
        assert_eq!(first, quant.keys(0)[..64]);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn quantized_capacity_enforced() {
        // The third append exceeds capacity 2.
        let mut s = CacheStore::new_quantized(2, 64, 2, QuantConfig::int8());
        fill(&mut s, 64, 3, 5);
    }
}
