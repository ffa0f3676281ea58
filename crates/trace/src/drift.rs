//! Model-vs-measured drift: replay the analytic cost model's predicted
//! per-task busy time against a measured span timeline and report, per
//! paper task, the observed/predicted ratio.
//!
//! A ratio of 1.0 means the performance model (Eq. 2's `max(...)` terms)
//! matches what actually ran; against the event-driven simulator it must
//! be exactly 1.0 (the simulator *is* the model), which the golden test
//! in `tests/trace_observability.rs` pins. Against the real engine the
//! ratio quantifies model error per task — the quantity Fig. 6 of the
//! paper argues stays small.

use crate::span::Span;
use crate::task::{TaskCosts, TaskKind};
use serde::{Deserialize, Serialize};

/// Drift for one of the paper's six decode tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDrift {
    /// Paper task name (one of [`TaskKind::PAPER_TASKS`]).
    pub task: String,
    /// Model-predicted busy seconds.
    pub predicted_s: f64,
    /// Busy seconds summed from measured spans.
    pub observed_s: f64,
    /// `observed / predicted`; `None` when the model predicts zero
    /// (ratio undefined — `abs_error_s` still carries the miss).
    pub ratio: Option<f64>,
    /// `observed - predicted`, always defined.
    pub abs_error_s: f64,
}

/// Predicted-vs-observed drift across all six paper tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftReport {
    pub tasks: Vec<TaskDrift>,
    /// Max over tasks of `|ratio - 1|` (tasks with a defined ratio).
    pub max_ratio_error: f64,
}

impl DriftReport {
    /// True when every task with a defined ratio is within `eps` of 1.0
    /// and no zero-predicted task observed more than `eps` seconds.
    pub fn ok_within(&self, eps: f64) -> bool {
        self.tasks.iter().all(|t| match t.ratio {
            Some(r) => (r - 1.0).abs() <= eps,
            None => t.observed_s.abs() <= eps,
        })
    }

    /// The row for `task`, if present.
    pub fn task(&self, task: &str) -> Option<&TaskDrift> {
        self.tasks.iter().find(|t| t.task == task)
    }
}

/// Build a drift report from per-kind predicted busy seconds and a
/// measured span timeline. Both sides are grouped by
/// [`TaskKind::paper_task`], merging the two compute halves, and every
/// paper task gets a row (zeros when neither side saw it).
pub fn drift_report(predicted: &TaskCosts, spans: &[Span]) -> DriftReport {
    let observed = TaskCosts::from_spans(spans);
    let by_paper_task = |costs: &TaskCosts| {
        TaskKind::PAPER_TASKS.map(|task| {
            TaskKind::ALL
                .into_iter()
                .filter(|k| k.paper_task() == task)
                .map(|k| costs[k])
                .sum::<f64>()
        })
    };
    let (pred, obs) = (by_paper_task(predicted), by_paper_task(&observed));

    let mut tasks = Vec::with_capacity(6);
    let mut max_ratio_error = 0.0f64;
    for (i, name) in TaskKind::PAPER_TASKS.iter().enumerate() {
        let ratio = if pred[i] > 0.0 {
            let r = obs[i] / pred[i];
            max_ratio_error = max_ratio_error.max((r - 1.0).abs());
            Some(r)
        } else {
            None
        };
        tasks.push(TaskDrift {
            task: (*name).to_string(),
            predicted_s: pred[i],
            observed_s: obs[i],
            ratio,
            abs_error_s: obs[i] - pred[i],
        });
    }
    DriftReport {
        tasks,
        max_ratio_error,
    }
}

/// Drift for one serve-path metric (TTFT, queue depth, occupancy …) —
/// the serving analogue of [`TaskDrift`], keyed by metric name instead
/// of paper task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDrift {
    /// Metric name (e.g. `ttft_mean_s`, `slot_occupancy_mean`).
    pub metric: String,
    /// Model-predicted value (TtftModel / the admission plan).
    pub predicted: f64,
    /// Value observed by the scheduler's boundary instrumentation.
    pub observed: f64,
    /// `observed / predicted`; `None` when the prediction is zero.
    pub ratio: Option<f64>,
    /// `observed - predicted`, always defined.
    pub abs_error: f64,
}

/// Predicted-vs-observed drift across the serve path's audited metrics
/// (DESIGN.md §8). Unlike [`DriftReport`] the tolerance is per-run and
/// documented, not exactly 1.0: the TTFT predictor is a queueing
/// estimate, not a replay of the scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeDriftReport {
    pub metrics: Vec<MetricDrift>,
    /// Max over metrics of `|ratio - 1|` (metrics with a defined ratio).
    pub max_ratio_error: f64,
}

impl ServeDriftReport {
    /// True when every metric with a defined ratio is within `eps` of
    /// 1.0 and no zero-predicted metric observed more than `eps`.
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

/// Build a serve drift report from `(metric, predicted, observed)`
/// rows. Rows keep their given order; ratios are `observed/predicted`
/// where the prediction is nonzero.
pub fn serve_drift_report(rows: &[(&str, f64, f64)]) -> ServeDriftReport {
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
    ServeDriftReport {
        metrics,
        max_ratio_error,
    }
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
        let r = drift_report(&predicted, &spans);
        assert_eq!(r.tasks.len(), 6, "every paper task gets a row");
        assert_eq!(r.task("load_weight").unwrap().ratio, Some(1.0));
        assert_eq!(r.task("compute").unwrap().ratio, Some(1.0));
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
        let r = drift_report(&predicted, &spans);
        let c = r.task("compute").unwrap();
        assert_eq!(c.predicted_s, 4.0);
        assert_eq!(c.observed_s, 4.0);
        assert_eq!(c.ratio, Some(1.0));
    }

    #[test]
    fn drift_is_reported() {
        let predicted = costs(&[(TaskKind::LoadCache, 1.0)]);
        let spans = vec![span(TaskKind::LoadCache, 0.0, 1.3)];
        let r = drift_report(&predicted, &spans);
        let t = r.task("load_cache").unwrap();
        assert!((t.ratio.unwrap() - 1.3).abs() < 1e-9);
        assert!((t.abs_error_s - 0.3).abs() < 1e-9);
        assert!((r.max_ratio_error - 0.3).abs() < 1e-9);
        assert!(!r.ok_within(0.1));
        assert!(r.ok_within(0.5));
    }

    #[test]
    fn zero_predicted_with_observation_fails_ok_within() {
        let spans = vec![span(TaskKind::StoreCache, 0.0, 0.5)];
        let r = drift_report(&TaskCosts::default(), &spans);
        let t = r.task("store_cache").unwrap();
        assert_eq!(t.ratio, None);
        assert_eq!(t.abs_error_s, 0.5);
        assert!(!r.ok_within(0.1));
        // Tasks absent on both sides stay within any epsilon.
        assert_eq!(r.task("load_weight").unwrap().observed_s, 0.0);
    }

    #[test]
    fn report_serde_round_trip() {
        let r = drift_report(
            &costs(&[(TaskKind::LoadWeight, 1.0)]),
            &[span(TaskKind::LoadWeight, 0.0, 1.1)],
        );
        let v = serde::Serialize::serialize(&r);
        let back: DriftReport = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn serve_drift_ratios_and_tolerance() {
        let r = serve_drift_report(&[
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
        let r = serve_drift_report(&[("queue_depth_mean", 0.0, 2.0)]);
        assert!(!r.ok_within(0.5));
        assert!(r.ok_within(2.5), "abs slack covers the miss");
        let v = serde::Serialize::serialize(&r);
        let back: ServeDriftReport = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, r);
    }
}
