//! Prometheus / OpenMetrics text exposition for a [`MetricsSnapshot`]
//! (DESIGN.md §8): counters render as `counter` families, gauges as
//! `gauge`, and histogram digests as `summary` families (quantile series
//! plus `_sum`/`_count`), with the digest's min/max carried as adjacent
//! gauges so a summary round-trips losslessly through the text form.
//!
//! Metric names are sanitised to the exposition charset (`[a-zA-Z0-9_:]`;
//! dots become underscores), families are emitted in sanitised-name
//! order, and floats print in Rust's shortest-round-trip form — so
//! `render(parse(render(s))?) == render(s)` byte for byte, which the
//! `repro obs` gate checks on every run.

use crate::metrics::{HistogramSummary, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A malformed exposition document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpoError {
    /// 1-based line number of the offending line.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ExpoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exposition line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ExpoError {}

/// Map a metric name onto the exposition charset: every character
/// outside `[a-zA-Z0-9_:]` becomes `_`, and a leading digit gains a
/// `_` prefix. Idempotent; distinct registry names that collide after
/// sanitisation (e.g. `a.b` vs `a_b`) merge last-writer-wins.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Shortest f64 form that `str::parse::<f64>` recovers bit-exactly.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Render a snapshot as Prometheus text exposition, `# EOF`-terminated.
pub fn render(snap: &MetricsSnapshot) -> String {
    let counters: BTreeMap<String, u64> = snap
        .counters
        .iter()
        .map(|(k, v)| (sanitize_name(k), *v))
        .collect();
    let gauges: BTreeMap<String, f64> = snap
        .gauges
        .iter()
        .map(|(k, v)| (sanitize_name(k), *v))
        .collect();
    let histograms: BTreeMap<String, &HistogramSummary> = snap
        .histograms
        .iter()
        .map(|(k, v)| (sanitize_name(k), v))
        .collect();

    let mut out = String::new();
    for (name, v) in &counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_f64(*v));
    }
    for (name, h) in &histograms {
        let _ = writeln!(out, "# TYPE {name} summary");
        let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", fmt_f64(h.p50));
        let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", fmt_f64(h.p95));
        let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", fmt_f64(h.p99));
        let _ = writeln!(out, "{name}_sum {}", fmt_f64(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
        let _ = writeln!(out, "# TYPE {name}_min gauge");
        let _ = writeln!(out, "{name}_min {}", fmt_f64(h.min));
        let _ = writeln!(out, "# TYPE {name}_max gauge");
        let _ = writeln!(out, "{name}_max {}", fmt_f64(h.max));
    }
    out.push_str("# EOF\n");
    out
}

#[derive(Default)]
struct PartialSummary {
    p50: f64,
    p95: f64,
    p99: f64,
    sum: f64,
    count: u64,
}

/// Parse a text exposition back into a snapshot. Names stay in their
/// sanitised form (the dot→underscore map is not invertible); `_min` /
/// `_max` gauges that shadow a summary fold back into its digest, and
/// `mean` is recomputed as `sum / count` — exactly how the registry
/// derives it, so a rendered snapshot parses back equal.
pub fn parse(text: &str) -> Result<MetricsSnapshot, ExpoError> {
    let err = |line: usize, message: &str| ExpoError {
        line,
        message: message.to_string(),
    };
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
    let mut partial: BTreeMap<String, PartialSummary> = BTreeMap::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim();
            if comment == "EOF" {
                break;
            }
            if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut it = decl.split_whitespace();
                let name = it
                    .next()
                    .ok_or_else(|| err(lineno, "TYPE line without a metric name"))?;
                let kind = it
                    .next()
                    .ok_or_else(|| err(lineno, "TYPE line without a metric type"))?;
                types.insert(name.to_string(), kind.to_string());
            }
            continue; // HELP and other comments are ignored
        }

        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err(lineno, "sample line without a value"))?;
        let (name, quantile) = match series.split_once('{') {
            Some((n, labels)) => {
                let q = labels
                    .strip_suffix('}')
                    .and_then(|l| l.strip_prefix("quantile=\""))
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| err(lineno, "unsupported label set (only quantile=\"q\")"))?;
                (n, Some(q))
            }
            None => (series, None),
        };

        // A summary's _sum/_count series belong to the base family.
        let (family, suffix) = match types.get(name) {
            Some(_) => (name, None),
            None => {
                if let Some(base) = name.strip_suffix("_sum") {
                    (base, Some("sum"))
                } else if let Some(base) = name.strip_suffix("_count") {
                    (base, Some("count"))
                } else {
                    (name, None)
                }
            }
        };
        let kind = types
            .get(family)
            .ok_or_else(|| err(lineno, "sample for a metric with no TYPE declaration"))?
            .clone();
        match (kind.as_str(), suffix, quantile) {
            ("counter", None, None) => {
                let v = value
                    .parse::<u64>()
                    .map_err(|_| err(lineno, "counter value is not a u64"))?;
                counters.insert(family.to_string(), v);
            }
            ("gauge", None, None) => {
                let v = value
                    .parse::<f64>()
                    .map_err(|_| err(lineno, "gauge value is not an f64"))?;
                gauges.insert(family.to_string(), v);
            }
            ("summary", suffix, quantile) => {
                let entry = partial.entry(family.to_string()).or_default();
                match (suffix, quantile) {
                    (Some("count"), None) => {
                        entry.count = value
                            .parse::<u64>()
                            .map_err(|_| err(lineno, "summary count is not a u64"))?;
                    }
                    (Some("sum"), None) => {
                        entry.sum = value
                            .parse::<f64>()
                            .map_err(|_| err(lineno, "summary sum is not an f64"))?;
                    }
                    (None, Some(q)) => {
                        let v = value
                            .parse::<f64>()
                            .map_err(|_| err(lineno, "quantile value is not an f64"))?;
                        match q {
                            "0.5" => entry.p50 = v,
                            "0.95" => entry.p95 = v,
                            "0.99" => entry.p99 = v,
                            _ => return Err(err(lineno, "unsupported summary quantile")),
                        }
                    }
                    _ => return Err(err(lineno, "malformed summary sample")),
                }
            }
            _ => return Err(err(lineno, "unsupported metric type or label set")),
        }
    }

    let mut histograms: BTreeMap<String, HistogramSummary> = BTreeMap::new();
    for (name, p) in partial {
        let min = gauges.remove(&format!("{name}_min")).unwrap_or(0.0);
        let max = gauges.remove(&format!("{name}_max")).unwrap_or(0.0);
        histograms.insert(
            name,
            HistogramSummary {
                count: p.count,
                sum: p.sum,
                mean: if p.count == 0 { 0.0 } else { p.sum / p.count as f64 },
                min,
                max,
                p50: p.p50,
                p95: p.p95,
                p99: p.p99,
            },
        );
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter_add("serve.admitted", 12);
        r.counter_add("serve.shed", 3);
        r.gauge_set("serve.queue_depth", 4.0);
        r.gauge_set("pool.occupancy", 0.875);
        for v in [0.01, 0.02, 0.02, 0.4] {
            r.histogram_record("serve.ttft_s", v);
        }
        r.snapshot()
    }

    #[test]
    fn renders_typed_families_in_sorted_order() {
        let text = render(&sample_snapshot());
        assert!(text.contains("# TYPE serve_admitted counter\nserve_admitted 12\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 4\n"));
        assert!(text.contains("# TYPE serve_ttft_s summary\n"));
        assert!(text.contains("serve_ttft_s{quantile=\"0.5\"} "));
        assert!(text.contains("serve_ttft_s_count 4\n"));
        assert!(text.ends_with("# EOF\n"));
        let counter_pos = text.find("serve_admitted").unwrap();
        let gauge_pos = text.find("pool_occupancy").unwrap();
        assert!(counter_pos < gauge_pos || text.find("# TYPE pool_occupancy").unwrap() > 0);
    }

    #[test]
    fn parse_recovers_the_snapshot() {
        let snap = sample_snapshot();
        let back = parse(&render(&snap)).unwrap();
        assert_eq!(back.counters["serve_admitted"], 12);
        assert_eq!(back.counters["serve_shed"], 3);
        assert_eq!(back.gauges["serve_queue_depth"], 4.0);
        assert_eq!(back.gauges["pool_occupancy"], 0.875);
        let h = &back.histograms["serve_ttft_s"];
        let orig = &snap.histograms["serve.ttft_s"];
        assert_eq!(h, orig);
    }

    #[test]
    fn render_parse_rerender_is_byte_identical() {
        let text = render(&sample_snapshot());
        let rerendered = render(&parse(&text).unwrap());
        assert_eq!(text, rerendered);
    }

    #[test]
    fn sanitisation_is_idempotent_and_ordering_is_by_sanitised_name() {
        assert_eq!(sanitize_name("serve.ttft_s"), "serve_ttft_s");
        assert_eq!(sanitize_name(sanitize_name("a.b-c").as_str()), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        // "a.b" sorts before "aZb" raw but after it sanitised; render must
        // emit by sanitised order or re-render reorders.
        let r = MetricsRegistry::new();
        r.counter_add("a.b", 1);
        r.counter_add("aZb", 2);
        let text = render(&r.snapshot());
        assert!(text.find("aZb").unwrap() < text.find("a_b").unwrap());
        assert_eq!(text, render(&parse(&text).unwrap()));
    }

    #[test]
    fn empty_single_sample_and_saturating_histograms_round_trip() {
        let r = MetricsRegistry::new();
        r.histogram("empty"); // registered, never recorded
        r.histogram_record("single", 0.25);
        // Saturate both ends of the bucket range.
        r.histogram_record("extreme", 1e300);
        r.histogram_record("extreme", 1e-300);
        r.histogram_record("extreme", f64::NAN);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["empty"].count, 0);
        assert_eq!(snap.histograms["empty"].p99, 0.0);
        assert_eq!(snap.histograms["single"].count, 1);
        assert_eq!(snap.histograms["single"].min, 0.25);
        assert_eq!(snap.histograms["single"].max, 0.25);
        let text = render(&snap);
        let back = parse(&text).unwrap();
        assert_eq!(back.histograms["empty"], snap.histograms["empty"]);
        assert_eq!(back.histograms["single"], snap.histograms["single"]);
        assert_eq!(back.histograms["extreme"], snap.histograms["extreme"]);
        assert_eq!(text, render(&back));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        assert!(parse("no_type_decl 3\n").is_err());
        assert!(parse("# TYPE c counter\nc notanumber\n").is_err());
        assert!(parse("# TYPE s summary\ns{quantile=\"0.7\"} 1\n").is_err());
        assert!(parse("# TYPE g gauge\ng\n").is_err());
        let e = parse("# TYPE c counter\nc 1.5\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn eof_terminates_parsing() {
        let text = "# TYPE c counter\nc 1\n# EOF\ngarbage that would error\n";
        let snap = parse(text).unwrap();
        assert_eq!(snap.counters["c"], 1);
    }
}
