//! Harness-side spans: one record around every call the harness makes
//! into a layer, kept in memory and written out once as a Perfetto trace
//! when the traced pass ends. A disabled recorder (the untraced pass)
//! records nothing.

use lm_trace::PerfettoTrace;
use serde::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: String,
    /// The Perfetto row: the layer (crate) called into, or a client row.
    pub track: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one request share its id.
    pub request: Option<u64>,
}

pub struct Recorder {
    origin: Instant,
    /// Where `origin` falls on the time base of the Perfetto document:
    /// 0, or the reading of the program's tracer clock it was aligned to.
    origin_s: f64,
    spans: Option<Mutex<Vec<SpanRec>>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'r> {
    recorder: &'r Recorder,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// The open span, to name as the parent of calls made under it.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(id), Some(spans)) = (self.id, &self.recorder.spans) {
            let now = self.recorder.now_ns();
            spans
                .lock()
                .expect("span recorder poisoned by a panicking pass")[id]
                .end_ns = now;
        }
    }
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            origin_s: 0.0,
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// An enabled recorder whose spans share `tracer`'s time base. The
    /// tracer's clock started first, so every span lands at a
    /// non-negative time.
    pub fn aligned_to(tracer: &lm_trace::Tracer) -> Self {
        Recorder {
            origin_s: tracer.clock().map_or(0.0, |c| c.now_s()),
            ..Recorder::new(true)
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) -> Option<SpanId> {
        let spans = self.spans.as_ref()?;
        let mut spans = spans
            .lock()
            .expect("span recorder poisoned by a panicking pass");
        spans.push(rec);
        Some(spans.len() - 1)
    }

    /// Open a span now; it closes when the guard drops.
    pub fn span(
        &self,
        name: &str,
        track: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) -> SpanGuard<'_> {
        let id = self.is_enabled().then(|| self.now_ns()).and_then(|now| {
            self.push(SpanRec {
                name: name.to_string(),
                track: track.to_string(),
                start_ns: now,
                end_ns: now,
                parent,
                request,
            })
        });
        SpanGuard { recorder: self, id }
    }

    /// Record a span whose ends were timestamped elsewhere (the client
    /// thread's first/last token instants).
    pub fn record(
        &self,
        name: &str,
        track: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
    ) {
        self.push(SpanRec {
            name: name.to_string(),
            track: track.to_string(),
            start_ns: self.ns_of(start),
            end_ns: self.ns_of(end).max(self.ns_of(start)),
            parent,
            request,
        });
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans
            .as_ref()
            .map(|s| {
                s.lock()
                    .expect("span recorder poisoned by a panicking pass")
                    .clone()
            })
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are counted once and
/// a child is clipped to its parent's interval.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Lay the recorder's spans out one Perfetto row per track, each slice
/// carrying its self time, parent and request id.
pub fn add_to_perfetto(trace: &mut PerfettoTrace, recorder: &Recorder) {
    let spans = &recorder.snapshot();
    let origin_s = recorder.origin_s;
    // Rows 1-4 are lm-trace's resource rows and 10+ its scope rows.
    const FIRST_TID: u64 = 100;
    let self_ns = self_times_ns(spans);
    let mut tids: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        let next = FIRST_TID + tids.len() as u64;
        tids.entry(&s.track).or_insert(next);
    }
    for (track, tid) in &tids {
        trace.add_named_track(*tid, track);
    }
    for (i, s) in spans.iter().enumerate() {
        let mut args = vec![("self_us", Value::Float(self_ns[i] as f64 / 1e3))];
        if let Some(p) = s.parent {
            args.push(("parent", Value::String(format!("{}#{p}", spans[p].name))));
        }
        if let Some(r) = s.request {
            args.push(("request", Value::PosInt(r)));
        }
        trace.add_slice(
            &format!("{}#{i}", s.name),
            "harness",
            tids[s.track.as_str()],
            s.start_ns as f64 / 1e9 + origin_s,
            (s.end_ns - s.start_ns) as f64 / 1e9,
            args,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> SpanRec {
        SpanRec {
            name: "s".into(),
            track: "t".into(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 40, Some(0)),  // child
            span(30, 60, Some(0)),  // overlaps the first child by 10
            span(70, 70, Some(0)),  // zero-length child covers nothing
            span(90, 130, Some(0)), // runs past the root: clipped to 10
            span(15, 25, Some(1)),  // grandchild: only reduces span 1
        ];
        // Children cover [10, 60) and [90, 100): 60 of the root's 100.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 0, 40, 10]);
    }

    #[test]
    fn self_time_of_nested_and_contained_children() {
        let spans = vec![
            span(0, 50, None),
            span(5, 45, Some(0)),
            span(10, 20, Some(0)), // wholly inside the previous sibling
            span(0, 0, None),      // zero-length root
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 10, 0]);
    }

    #[test]
    fn recorder_links_parents_and_disabled_recorder_is_silent() {
        let rec = Recorder::new(true);
        {
            let outer = rec.span("outer", "harness", None, None);
            let _inner = rec.span("inner", "lm-engine", outer.id(), Some(4));
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(4));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let off = Recorder::new(false);
        let g = off.span("x", "y", None, None);
        assert_eq!(g.id(), None);
        drop(g);
        off.record("z", "y", Instant::now(), Instant::now(), None, None);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn perfetto_export_has_one_row_per_track() {
        let rec = Recorder::new(true);
        {
            let run = rec.span("run", "harness", None, None);
            let _m = rec.span("materialize", "lm-engine", run.id(), Some(1));
        }
        let mut trace = PerfettoTrace::new("lmbench");
        let before = trace.event_count();
        add_to_perfetto(&mut trace, &rec);
        // Two track names and two slices.
        assert_eq!(trace.event_count() - before, 4);
        assert!(trace.to_json_string().contains("\"request\""));
    }
}
