//! Order statistics for timing samples: nearest-rank percentiles, the
//! "at least ten samples beyond" rule for the highest reportable
//! percentile, and the median + quartiles summary every timing carries.

use serde::{Map, Value};

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `q` in `(0, 1]`; an empty slice reads 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The highest of p99 / p95 / p90 / p75 that still has at least ten
/// samples beyond it, or `None` when even p75 does not (fewer than 40
/// samples). A tail percentile with fewer samples behind it is one or two
/// outliers, not a distribution.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // Whole percents keep the "ten beyond" test exact.
    [99usize, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .map(|p| p as f64 / 100.0)
}

/// Median, quartiles, extremes and sample count of one timing, with the
/// highest percentile the sample supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(q, value)` of [`highest_supported_percentile`], if any.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Summary {
            n: samples.len(),
            min: percentile(samples, f64::MIN_POSITIVE),
            q1: percentile(samples, 0.25),
            median: median(samples),
            q3: percentile(samples, 0.75),
            max: percentile(samples, 1.0),
            tail: highest_supported_percentile(samples.len()).map(|q| (q, percentile(samples, q))),
        }
    }

    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("n".into(), Value::PosInt(self.n as u64));
        for (k, v) in [
            ("min", self.min),
            ("q1", self.q1),
            ("median", self.median),
            ("q3", self.q3),
            ("max", self.max),
        ] {
            m.insert(k.into(), Value::Float(v));
        }
        if let Some((q, v)) = self.tail {
            m.insert(format!("p{:.0}", q * 100.0), Value::Float(v));
        }
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        // Order of the input is irrelevant; odd counts take the middle.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(0.75));
        assert_eq!(highest_supported_percentile(99), Some(0.75));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(199), Some(0.90));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
    }

    #[test]
    fn summary_carries_quartiles_and_the_supported_tail() {
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (8, 1.0, 2.0, 4.0, 6.0, 8.0)
        );
        assert_eq!(s.tail, None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail, Some((0.90, 90.0)));
        assert_eq!(Summary::of(&v).to_value()["p90"].as_f64(), Some(90.0));
    }
}
