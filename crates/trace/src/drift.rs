//! Model-vs-measured drift: put what a model predicted beside what ran
//! and report, per row, the observed/predicted ratio.
//!
//! One report type serves both comparisons. [`task_drift`] builds the
//! six paper-task rows from the analytic cost model's predicted busy
//! seconds and a measured span timeline; `repro trace` feeds it the real
//! engine's spans and the model the engine is priced by, so a ratio of
//! 1.0 means the performance model (Eq. 2's `max(...)` terms) describes
//! the pipeline that ran. Replayed against the event-driven simulator's
//! own timeline every ratio is 1.0 by construction (the simulator *is*
//! the model), which the golden test in `tests/trace_observability.rs`
//! pins. [`drift_report`] takes arbitrary rows: the serve path's audit
//! (`ServeObs::audit`) feeds it TTFT, occupancy and queue depth.

use crate::span::Span;
use crate::task::{TaskCosts, TaskKind};
use serde::{Deserialize, Serialize};

/// Drift for one row: a paper task's busy seconds, or a serve-path
/// metric (TTFT, queue depth, occupancy …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDrift {
    /// Row name (a paper task such as `load_weight`, or a serve metric
    /// such as `ttft_mean_s`).
    pub metric: String,
    /// Model-predicted value.
    pub predicted: f64,
    /// Measured value.
    pub observed: f64,
    /// `observed / predicted`; `None` when the prediction is zero (ratio
    /// undefined — `abs_error` still carries the miss).
    pub ratio: Option<f64>,
    /// `observed - predicted`, always defined.
    pub abs_error: f64,
}

/// Predicted-vs-observed drift over a list of rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    pub metrics: Vec<MetricDrift>,
    /// Max over rows of `|ratio - 1|` (rows with a defined ratio).
    pub max_ratio_error: f64,
}

impl DriftReport {
    /// True when every row with a defined ratio is within `eps` of 1.0
    /// and no zero-predicted row observed more than `eps`.
    pub fn ok_within(&self, eps: f64) -> bool {
        self.metrics.iter().all(|m| match m.ratio {
            Some(r) => (r - 1.0).abs() <= eps,
            None => m.observed.abs() <= eps,
        })
    }

    /// The row for `metric`, if present.
    pub fn metric(&self, metric: &str) -> Option<&MetricDrift> {
        self.metrics.iter().find(|m| m.metric == metric)
    }
}

/// Build a drift report from `(metric, predicted, observed)` rows. Rows
/// keep their given order; ratios are `observed/predicted` where the
/// prediction is nonzero.
pub fn drift_report(rows: &[(&str, f64, f64)]) -> DriftReport {
    let mut metrics = Vec::with_capacity(rows.len());
    let mut max_ratio_error = 0.0f64;
    for &(name, predicted, observed) in rows {
        let ratio = if predicted != 0.0 {
            let r = observed / predicted;
            max_ratio_error = max_ratio_error.max((r - 1.0).abs());
            Some(r)
        } else {
            None
        };
        metrics.push(MetricDrift {
            metric: name.to_string(),
            predicted,
            observed,
            ratio,
            abs_error: observed - predicted,
        });
    }
    DriftReport {
        metrics,
        max_ratio_error,
    }
}

/// The six paper-task rows, in [`TaskKind::PAPER_TASKS`] order, from
/// per-kind predicted busy seconds and a measured span timeline. Both
/// sides are grouped by [`TaskKind::paper_task`], merging the two
/// compute halves; a task neither side saw gets a zero row.
pub fn task_drift(predicted: &TaskCosts, spans: &[Span]) -> DriftReport {
    let observed = TaskCosts::from_spans(spans);
    let paper_task_total = |costs: &TaskCosts, task: &str| {
        TaskKind::ALL
            .into_iter()
            .filter(|k| k.paper_task() == task)
            .map(|k| costs[k])
            .sum::<f64>()
    };
    let rows = TaskKind::PAPER_TASKS.map(|task| {
        (
            task,
            paper_task_total(predicted, task),
            paper_task_total(&observed, task),
        )
    });
    drift_report(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs(pairs: &[(TaskKind, f64)]) -> TaskCosts {
        let mut t = TaskCosts::default();
        for &(kind, s) in pairs {
            t[kind] = s;
        }
        t
    }

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
    fn perfect_match_gives_unit_ratios() {
        let predicted = costs(&[(TaskKind::LoadWeight, 2.0), (TaskKind::ComputeGpu, 1.0)]);
        let spans = vec![
            span(TaskKind::LoadWeight, 0.0, 1.5),
            span(TaskKind::LoadWeight, 1.5, 2.0),
            span(TaskKind::ComputeGpu, 2.0, 3.0),
        ];
        let r = task_drift(&predicted, &spans);
        assert_eq!(r.metrics.len(), 6, "every paper task gets a row");
        assert_eq!(r.metric("load_weight").unwrap().ratio, Some(1.0));
        assert_eq!(r.metric("compute").unwrap().ratio, Some(1.0));
        assert!(r.ok_within(1e-9));
        assert_eq!(r.max_ratio_error, 0.0);
    }

    #[test]
    fn compute_halves_merge() {
        let predicted = costs(&[(TaskKind::ComputeCpu, 1.0), (TaskKind::ComputeGpu, 3.0)]);
        let spans = vec![
            span(TaskKind::ComputeCpu, 0.0, 1.0),
            span(TaskKind::ComputeGpu, 1.0, 4.0),
        ];
        let r = task_drift(&predicted, &spans);
        let c = r.metric("compute").unwrap();
        assert_eq!(c.predicted, 4.0);
        assert_eq!(c.observed, 4.0);
        assert_eq!(c.ratio, Some(1.0));
    }

    #[test]
    fn drift_is_reported() {
        let predicted = costs(&[(TaskKind::LoadCache, 1.0)]);
        let spans = vec![span(TaskKind::LoadCache, 0.0, 1.3)];
        let r = task_drift(&predicted, &spans);
        let t = r.metric("load_cache").unwrap();
        assert!((t.ratio.unwrap() - 1.3).abs() < 1e-9);
        assert!((t.abs_error - 0.3).abs() < 1e-9);
        assert!((r.max_ratio_error - 0.3).abs() < 1e-9);
        assert!(!r.ok_within(0.1));
        assert!(r.ok_within(0.5));
    }

    #[test]
    fn zero_predicted_with_observation_fails_ok_within() {
        let spans = vec![span(TaskKind::StoreCache, 0.0, 0.5)];
        let r = task_drift(&TaskCosts::default(), &spans);
        let t = r.metric("store_cache").unwrap();
        assert_eq!(t.ratio, None);
        assert_eq!(t.abs_error, 0.5);
        assert!(!r.ok_within(0.1));
        // Tasks absent on both sides stay within any epsilon.
        assert_eq!(r.metric("load_weight").unwrap().observed, 0.0);
    }

    #[test]
    fn report_serde_round_trip() {
        let r = task_drift(
            &costs(&[(TaskKind::LoadWeight, 1.0)]),
            &[span(TaskKind::LoadWeight, 0.0, 1.1)],
        );
        let v = serde::Serialize::serialize(&r);
        let back: DriftReport = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn serve_drift_ratios_and_tolerance() {
        let r = drift_report(&[
            ("ttft_mean_s", 0.5, 0.6),
            ("slot_occupancy_mean", 0.8, 0.8),
            ("queue_depth_mean", 0.0, 0.0),
        ]);
        assert_eq!(r.metrics.len(), 3);
        let t = r.metric("ttft_mean_s").unwrap();
        assert!((t.ratio.unwrap() - 1.2).abs() < 1e-9);
        assert!((t.abs_error - 0.1).abs() < 1e-9);
        assert_eq!(r.metric("slot_occupancy_mean").unwrap().ratio, Some(1.0));
        assert_eq!(r.metric("queue_depth_mean").unwrap().ratio, None);
        assert!((r.max_ratio_error - 0.2).abs() < 1e-9);
        assert!(r.ok_within(0.25));
        assert!(!r.ok_within(0.1));
    }

    #[test]
    fn serve_drift_zero_predicted_with_observation_fails() {
        let r = drift_report(&[("queue_depth_mean", 0.0, 2.0)]);
        assert!(!r.ok_within(0.5));
        assert!(r.ok_within(2.5), "abs slack covers the miss");
        let v = serde::Serialize::serialize(&r);
        let back: DriftReport = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, r);
    }
}
