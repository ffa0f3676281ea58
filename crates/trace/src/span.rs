//! Task spans: one record per executed task instance, whether the time
//! base is virtual (the event-driven simulator) or a wall clock (the
//! real engine, via [`crate::Tracer`]). Includes the resource-exclusivity
//! checker and the ASCII Gantt renderer migrated from `lm-sim::timeline`.

use crate::task::{Resource, TaskKind};
use serde::{Deserialize, Serialize};

/// One executed task instance. `start`/`end` are seconds since the run
/// origin — virtual seconds in the simulator, [`crate::TraceClock`]
/// seconds in the engine.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Span {
    pub kind: TaskKind,
    /// Decode step (0-based).
    pub step: u64,
    /// Layer index.
    pub layer: u32,
    /// Batch index within the block (`None` for per-layer tasks).
    pub batch: Option<u32>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The hardware resource this task occupies.
    pub fn resource(&self) -> Resource {
        self.kind.resource()
    }
}

/// Check the physical invariant: spans on the same resource never overlap.
pub fn resource_overlaps(spans: &[Span]) -> Vec<(Span, Span)> {
    let mut by_resource: std::collections::HashMap<Resource, Vec<Span>> = Default::default();
    for &s in spans {
        by_resource.entry(s.resource()).or_default().push(s);
    }
    let mut bad = Vec::new();
    for list in by_resource.values_mut() {
        list.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in list.windows(2) {
            if w[1].start < w[0].end - 1e-12 {
                bad.push((w[0], w[1]));
            }
        }
    }
    bad
}

/// Render an ASCII Gantt chart of the spans: one row per resource, time
/// binned into `width` columns over `[t0, t1]`.
pub fn render_gantt(spans: &[Span], width: usize) -> String {
    assert!(width >= 10, "need at least 10 columns");
    if spans.is_empty() {
        return String::from("(no spans)");
    }
    let t0 = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
    let t1 = spans.iter().map(|s| s.end).fold(0.0f64, f64::max);
    let dt = ((t1 - t0) / width as f64).max(f64::MIN_POSITIVE);

    let mut out = String::new();
    out.push_str(&format!(
        "t0 = {t0:.3}s, t1 = {t1:.3}s, column = {:.3}ms\n",
        dt * 1e3
    ));
    for resource in Resource::ALL {
        let mut row = vec!['.'; width];
        for s in spans.iter().filter(|s| s.resource() == resource) {
            let a = (((s.start - t0) / dt) as usize).min(width - 1);
            let b = (((s.end - t0) / dt).ceil() as usize).clamp(a + 1, width);
            for cell in &mut row[a..b] {
                *cell = s.kind.glyph();
            }
        }
        out.push_str(&format!(
            "{:>4} |{}|\n",
            resource.name(),
            row.iter().collect::<String>()
        ));
    }
    out.push_str(
        "     W=load_weight C=load_cache a=load_act c=store_cache s=store_act #=cpu %=gpu\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: TaskKind, start: f64, end: f64) -> Span {
        Span {
            kind,
            step: 0,
            layer: 0,
            batch: None,
            start,
            end,
        }
    }

    #[test]
    fn resources_map_correctly() {
        assert_eq!(
            span(TaskKind::LoadWeight, 0.0, 1.0).resource(),
            Resource::H2d
        );
        assert_eq!(
            span(TaskKind::StoreCache, 0.0, 1.0).resource(),
            Resource::D2h
        );
        assert_eq!(
            span(TaskKind::ComputeCpu, 0.0, 1.0).resource(),
            Resource::Cpu
        );
        assert_eq!(
            span(TaskKind::ComputeGpu, 0.0, 1.0).resource(),
            Resource::Gpu
        );
    }

    #[test]
    fn overlap_detection() {
        let ok = vec![
            span(TaskKind::LoadWeight, 0.0, 1.0),
            span(TaskKind::LoadCache, 1.0, 2.0),
            span(TaskKind::ComputeGpu, 0.5, 1.5), // different resource: fine
        ];
        assert!(resource_overlaps(&ok).is_empty());
        let bad = vec![
            span(TaskKind::LoadWeight, 0.0, 1.0),
            span(TaskKind::LoadCache, 0.5, 1.5), // same H2D link
        ];
        assert_eq!(resource_overlaps(&bad).len(), 1);
    }

    #[test]
    fn gantt_renders_all_rows() {
        let spans = vec![
            span(TaskKind::LoadWeight, 0.0, 0.5),
            span(TaskKind::ComputeCpu, 0.5, 1.0),
            span(TaskKind::ComputeGpu, 1.0, 1.2),
        ];
        let g = render_gantt(&spans, 40);
        assert!(g.contains("H2D |"));
        assert!(g.contains('W'));
        assert!(g.contains('#'));
        assert!(g.contains('%'));
        assert_eq!(g.lines().count(), 6);
    }

    #[test]
    fn empty_spans_handled() {
        assert_eq!(render_gantt(&[], 40), "(no spans)");
    }

    #[test]
    fn span_serde_round_trip() {
        let s = span(TaskKind::StoreActivation, 1.25, 2.5);
        let v = serde::Serialize::serialize(&s);
        let back: Span = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back.kind, s.kind);
        assert_eq!(back.start, s.start);
        assert_eq!(back.end, s.end);
        assert_eq!(back.batch, None);
    }
}
