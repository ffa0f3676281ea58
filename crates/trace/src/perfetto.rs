//! Chrome / Perfetto trace export.
//!
//! Emits the Trace Event JSON format (`{"traceEvents": [...]}`) that
//! both `chrome://tracing` and <https://ui.perfetto.dev> load directly:
//! `ph:"X"` complete events with `ts`/`dur` in microseconds, `ph:"i"`
//! instants, and `ph:"M"` metadata naming the process and threads.
//!
//! Layout conventions:
//! - task spans land on one thread row **per hardware resource**
//!   (H2D / D2H / CPU / GPU), so the resource-exclusivity invariant is
//!   visible as "no stacked blocks on one row";
//! - scopes land on a row per originating thread (`scope:<track>`);
//! - instants (fault injections, retries) land on their thread's row.

use crate::span::Span;
use crate::task::Resource;
use crate::tracer::{InstantEvent, ScopeEvent, TraceReport};
use serde::{Map, Value};

const PID: u64 = 1;
/// Thread ids 1..=4 are the resource rows; scope/instant rows follow.
const SCOPE_TID_BASE: u64 = 10;

fn resource_tid(resource: Resource) -> u64 {
    resource as u64 + 1
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in fields {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

fn us(seconds: f64) -> Value {
    Value::Float(seconds * 1e6)
}

/// Builder for a Trace Event JSON document.
#[derive(Debug, Clone, Default)]
pub struct PerfettoTrace {
    events: Vec<Value>,
}

impl PerfettoTrace {
    pub fn new(process_name: &str) -> Self {
        let mut t = PerfettoTrace { events: Vec::new() };
        t.metadata("process_name", PID, None, process_name);
        for r in Resource::ALL {
            t.metadata("thread_name", PID, Some(resource_tid(r)), r.name());
        }
        t
    }

    fn metadata(&mut self, kind: &str, pid: u64, tid: Option<u64>, name: &str) {
        let mut fields = vec![
            ("name", Value::String(kind.to_string())),
            ("ph", Value::String("M".to_string())),
            ("pid", Value::PosInt(pid)),
            ("args", obj(vec![("name", Value::String(name.to_string()))])),
        ];
        if let Some(tid) = tid {
            fields.push(("tid", Value::PosInt(tid)));
        }
        self.events.push(obj(fields));
    }

    /// Add task spans as complete (`ph:"X"`) events, one row per
    /// hardware resource.
    pub fn add_task_spans(&mut self, spans: &[Span]) {
        for s in spans {
            let mut args = vec![
                ("step", Value::PosInt(s.step)),
                ("layer", Value::PosInt(s.layer as u64)),
                ("task", Value::String(s.kind.name().to_string())),
            ];
            if let Some(b) = s.batch {
                args.push(("batch", Value::PosInt(b as u64)));
            }
            self.events.push(obj(vec![
                ("name", Value::String(s.kind.name().to_string())),
                ("cat", Value::String("task".to_string())),
                ("ph", Value::String("X".to_string())),
                ("pid", Value::PosInt(PID)),
                ("tid", Value::PosInt(resource_tid(s.resource()))),
                ("ts", us(s.start)),
                ("dur", us(s.duration())),
                ("args", obj(args)),
            ]));
        }
    }

    /// Add scopes as complete events, one row per originating thread.
    /// Perfetto stacks same-row events by containment, so nesting depth
    /// renders without explicit depth markers.
    pub fn add_scopes(&mut self, scopes: &[ScopeEvent]) {
        let mut named_tracks = std::collections::BTreeSet::new();
        for sc in scopes {
            let tid = SCOPE_TID_BASE + sc.track as u64;
            if named_tracks.insert(sc.track) {
                self.metadata(
                    "thread_name",
                    PID,
                    Some(tid),
                    &format!("scope:{}", sc.track),
                );
            }
            self.events.push(obj(vec![
                ("name", Value::String(sc.name.clone())),
                ("cat", Value::String("scope".to_string())),
                ("ph", Value::String("X".to_string())),
                ("pid", Value::PosInt(PID)),
                ("tid", Value::PosInt(tid)),
                ("ts", us(sc.start)),
                ("dur", us(sc.end - sc.start)),
                ("args", obj(vec![("depth", Value::PosInt(sc.depth as u64))])),
            ]));
        }
    }

    /// Add point events (`ph:"i"`) on their thread's scope row.
    pub fn add_instants(&mut self, instants: &[InstantEvent]) {
        for ev in instants {
            self.add_instant_at(&ev.name, &ev.category, ev.t, ev.track);
        }
    }

    /// Add a single instant at `t` seconds on scope row `track` — used
    /// for event sources outside the tracer (e.g. fault-injector logs)
    /// that share the tracer's clock.
    pub fn add_instant_at(&mut self, name: &str, category: &str, t: f64, track: u32) {
        self.events.push(obj(vec![
            ("name", Value::String(name.to_string())),
            ("cat", Value::String(category.to_string())),
            ("ph", Value::String("i".to_string())),
            // Thread-scoped instant (renders as a marker, not a line).
            ("s", Value::String("t".to_string())),
            ("pid", Value::PosInt(PID)),
            ("tid", Value::PosInt(SCOPE_TID_BASE + track as u64)),
            ("ts", us(t)),
        ]));
    }

    /// Name an arbitrary thread row — used by callers laying out their
    /// own tracks (e.g. the serve timeline's one-row-per-slot layout).
    /// Emit once per tid; Perfetto keeps the last name it sees.
    pub fn add_named_track(&mut self, tid: u64, name: &str) {
        self.metadata("thread_name", PID, Some(tid), name);
    }

    /// Add one complete (`ph:"X"`) slice on an explicit track, with
    /// start/duration in **seconds** and caller-supplied args.
    pub fn add_slice(
        &mut self,
        name: &str,
        category: &str,
        tid: u64,
        start_s: f64,
        dur_s: f64,
        args: Vec<(&str, Value)>,
    ) {
        self.events.push(obj(vec![
            ("name", Value::String(name.to_string())),
            ("cat", Value::String(category.to_string())),
            ("ph", Value::String("X".to_string())),
            ("pid", Value::PosInt(PID)),
            ("tid", Value::PosInt(tid)),
            ("ts", us(start_s)),
            ("dur", us(dur_s)),
            ("args", obj(args)),
        ]));
    }

    /// Add a counter (`ph:"C"`) sample — Perfetto renders the series
    /// named `name` as a stepped area chart (queue depth, occupancy).
    pub fn add_counter(&mut self, name: &str, t_s: f64, value: f64) {
        self.events.push(obj(vec![
            ("name", Value::String(name.to_string())),
            ("ph", Value::String("C".to_string())),
            ("pid", Value::PosInt(PID)),
            ("ts", us(t_s)),
            ("args", obj(vec![("value", Value::Float(value))])),
        ]));
    }

    /// Convenience: one call ingesting a whole [`TraceReport`].
    pub fn add_report(&mut self, report: &TraceReport) {
        self.add_task_spans(&report.spans);
        self.add_scopes(&report.scopes);
        self.add_instants(&report.instants);
    }

    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The `{"traceEvents": [...]}` document as a [`Value`].
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("traceEvents", Value::Array(self.events.clone())),
            ("displayTimeUnit", Value::String("ms".to_string())),
        ])
    }

    /// Serialise to the JSON text Perfetto loads.
    pub fn to_json_string(&self) -> String {
        // The vendored writer is infallible (always returns `Ok`).
        serde_json::to_string_pretty(&self.to_value()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use crate::tracer::Tracer;

    fn span(kind: TaskKind, start: f64, end: f64) -> Span {
        Span {
            kind,
            step: 2,
            layer: 5,
            batch: Some(1),
            start,
            end,
        }
    }

    #[test]
    fn emits_metadata_and_complete_events() {
        let mut t = PerfettoTrace::new("lm-offload");
        t.add_task_spans(&[span(TaskKind::LoadWeight, 0.001, 0.002)]);
        let v = t.to_value();
        let events = v["traceEvents"].as_array().unwrap();
        // 1 process_name + 4 thread_name + 1 span.
        assert_eq!(events.len(), 6);
        let x = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("X"))
            .unwrap();
        assert_eq!(x["name"].as_str(), Some("load_weight"));
        assert_eq!(x["ts"].as_f64(), Some(1000.0));
        assert_eq!(x["dur"].as_f64(), Some(1000.0));
        assert_eq!(x["args"]["step"].as_u64(), Some(2));
        assert_eq!(x["args"]["layer"].as_u64(), Some(5));
        assert_eq!(x["args"]["batch"].as_u64(), Some(1));
    }

    #[test]
    fn spans_on_same_resource_share_a_tid() {
        let mut t = PerfettoTrace::new("p");
        t.add_task_spans(&[
            span(TaskKind::LoadWeight, 0.0, 1.0),
            span(TaskKind::LoadCache, 1.0, 2.0),
            span(TaskKind::ComputeGpu, 0.0, 1.0),
        ]);
        let v = t.to_value();
        let tids: Vec<u64> = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .map(|e| e["tid"].as_u64().unwrap())
            .collect();
        assert_eq!(tids[0], tids[1], "both H2D loads share a row");
        assert_ne!(tids[0], tids[2], "GPU compute gets its own row");
    }

    #[test]
    fn round_trips_through_serde_json() {
        let tracer = Tracer::new();
        {
            let _p = tracer.scope("decode");
            let _s = tracer.task_span(TaskKind::ComputeGpu, 0, 0, None);
        }
        tracer.instant("fault", "injected");
        let mut t = PerfettoTrace::new("lm-offload");
        t.add_report(&tracer.snapshot());
        let text = t.to_json_string();
        let back: Value = serde_json::from_str(&text).unwrap();
        let events = back["traceEvents"].as_array().unwrap();
        assert!(!events.is_empty());
        // Every event has the mandatory ph + pid fields.
        for e in events {
            assert!(e["ph"].as_str().is_some(), "{e:?}");
            assert!(e["pid"].as_u64().is_some());
        }
        // One instant, phase "i".
        assert_eq!(
            events
                .iter()
                .filter(|e| e["ph"].as_str() == Some("i"))
                .count(),
            1
        );
        // Scope rows got a thread_name metadata entry.
        assert!(events.iter().any(|e| {
            e["ph"].as_str() == Some("M")
                && e["args"]["name"].as_str().map(|n| n.starts_with("scope:")) == Some(true)
        }));
    }

    #[test]
    fn custom_tracks_slices_and_counters() {
        let mut t = PerfettoTrace::new("lm-serve");
        t.add_named_track(101, "slot 0");
        t.add_slice(
            "req 7",
            "serve",
            101,
            0.5,
            0.25,
            vec![("request", Value::PosInt(7))],
        );
        t.add_counter("queue_depth", 0.5, 3.0);
        let v = t.to_value();
        let events = v["traceEvents"].as_array().unwrap();
        let named = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("M") && e["tid"].as_u64() == Some(101))
            .unwrap();
        assert_eq!(named["args"]["name"].as_str(), Some("slot 0"));
        let x = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("X"))
            .unwrap();
        assert_eq!(x["tid"].as_u64(), Some(101));
        assert_eq!(x["ts"].as_f64(), Some(0.5e6));
        assert_eq!(x["dur"].as_f64(), Some(0.25e6));
        assert_eq!(x["args"]["request"].as_u64(), Some(7));
        let c = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("C"))
            .unwrap();
        assert_eq!(c["name"].as_str(), Some("queue_depth"));
        assert_eq!(c["args"]["value"].as_f64(), Some(3.0));
    }

    #[test]
    fn instant_at_lands_on_requested_track() {
        let mut t = PerfettoTrace::new("p");
        t.add_instant_at("retry", "fault", 0.5, 3);
        let v = t.to_value();
        let i = v["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["ph"].as_str() == Some("i"))
            .cloned()
            .unwrap();
        assert_eq!(i["tid"].as_u64(), Some(SCOPE_TID_BASE + 3));
        assert_eq!(i["ts"].as_f64(), Some(0.5e6));
    }
}
