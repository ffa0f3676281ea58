//! The six decode-phase tasks of Algorithm 1 — the shared vocabulary of
//! the analytic model, the simulator, the real engine and the tracer —
//! and the one shape their costs travel in: a [`TaskCosts`] vector
//! indexed by [`TaskKind`], reduced per [`Resource`] by [`StepLoad`]
//! (Eq. 2). `lm-sim` re-exports all four unchanged.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::ops::{Index, IndexMut};

/// The hardware a task occupies: tasks on one resource serialise, tasks
/// on different resources overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Resource {
    H2d,
    D2h,
    Cpu,
    Gpu,
}

impl Resource {
    /// All resources, in timeline-row order.
    pub const ALL: [Resource; 4] = [Resource::H2d, Resource::D2h, Resource::Cpu, Resource::Gpu];

    pub fn name(self) -> &'static str {
        match self {
            Resource::H2d => "H2D",
            Resource::D2h => "D2H",
            Resource::Cpu => "CPU",
            Resource::Gpu => "GPU",
        }
    }
}

/// Declares the task kinds once: one row per kind, in reporting order
/// (Fig. 8's x-axis plus the compute split).
macro_rules! task_kinds {
    ($($variant:ident = $name:literal, $resource:ident, $paper:literal, $glyph:literal;)+) => {
        /// The decode-phase task kinds. `ComputeCpu`/`ComputeGpu` split the
        /// paper's `compute` task by device: offloaded attention runs on the
        /// CPU while projections/MLP (and attention, when not offloaded) run
        /// on GPU.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub enum TaskKind {
            $($variant,)+
        }

        impl TaskKind {
            /// All kinds, in declaration order.
            pub const ALL: [TaskKind; [$($name),+].len()] = [$(TaskKind::$variant,)+];

            pub fn name(self) -> &'static str {
                match self {
                    $(TaskKind::$variant => $name,)+
                }
            }

            /// The hardware resource this task occupies.
            pub fn resource(self) -> Resource {
                match self {
                    $(TaskKind::$variant => Resource::$resource,)+
                }
            }

            /// The paper task this kind reports under in drift reports:
            /// itself, except the compute halves, which merge into
            /// `compute`.
            pub fn paper_task(self) -> &'static str {
                match self {
                    $(TaskKind::$variant => $paper,)+
                }
            }

            /// The cell this kind paints in the ASCII Gantt chart.
            pub fn glyph(self) -> char {
                match self {
                    $(TaskKind::$variant => $glyph,)+
                }
            }

            /// Name of the histogram the tracer files this kind's span
            /// durations under.
            pub(crate) fn hist_name(self) -> &'static str {
                match self {
                    $(TaskKind::$variant => concat!("task.", $name, ".seconds"),)+
                }
            }
        }
    };
}

task_kinds! {
    LoadWeight      = "load_weight",      H2d, "load_weight",      'W';
    LoadCache       = "load_cache",       H2d, "load_cache",       'C';
    LoadActivation  = "load_activation",  H2d, "load_activation",  'a';
    StoreCache      = "store_cache",      D2h, "store_cache",      'c';
    StoreActivation = "store_activation", D2h, "store_activation", 's';
    ComputeCpu      = "compute_cpu",      Cpu, "compute",          '#';
    ComputeGpu      = "compute_gpu",      Gpu, "compute",          '%';
}

impl TaskKind {
    /// The paper's six canonical decode tasks (Eq. 2's `max(...)` terms):
    /// both compute halves report under `compute`.
    pub const PAPER_TASKS: [&'static str; 6] = [
        "load_weight",
        "load_cache",
        "load_activation",
        "store_cache",
        "store_activation",
        "compute",
    ];

    /// Position in [`TaskKind::ALL`] — the discriminant.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Seconds per task kind: the six-task vector of Eq. 2 (compute split by
/// device). As a cost, `LoadWeight` is per *layer* (weights are shared by
/// every batch of the zig-zag block) and the other kinds per
/// *(layer, batch)*; as an accumulator it holds busy seconds per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskCosts {
    secs: [f64; TaskKind::ALL.len()],
}

impl Index<TaskKind> for TaskCosts {
    type Output = f64;
    fn index(&self, kind: TaskKind) -> &f64 {
        &self.secs[kind.index()]
    }
}

impl IndexMut<TaskKind> for TaskCosts {
    fn index_mut(&mut self, kind: TaskKind) -> &mut f64 {
        &mut self.secs[kind.index()]
    }
}

impl TaskCosts {
    /// Busy seconds per kind summed over a span timeline.
    pub fn from_spans(spans: &[Span]) -> TaskCosts {
        let mut totals = TaskCosts::default();
        for s in spans {
            totals[s.kind] += s.duration();
        }
        totals
    }

    /// The same tasks over degraded links: every load takes `h2d` times
    /// as long, every store `d2h` times; compute is untouched.
    pub fn stretched(mut self, h2d: f64, d2h: f64) -> TaskCosts {
        for kind in TaskKind::ALL {
            match kind.resource() {
                Resource::H2d => self[kind] *= h2d,
                Resource::D2h => self[kind] *= d2h,
                Resource::Cpu | Resource::Gpu => {}
            }
        }
        self
    }

    /// Sum across all kinds (as busy time: the serial-execution time the
    /// §5.4 study reports per task).
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Busy seconds per [`Resource`] for one layer of one decode step — Eq. 2
/// `T_gen = max(load_weight, load_cache, load_activation, store_cache,
/// store_activation, compute)`, refined so that tasks sharing a physical
/// resource *sum* before the max: all three load tasks occupy the H2D
/// link, both stores the D2H link, and the compute halves their
/// processors. (The paper's per-task max is the limit where each task has
/// its own channel; a single PCIe link serialises the loads, which is
/// also how the event-driven simulator behaves.)
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepLoad([f64; Resource::ALL.len()]);

impl Index<Resource> for StepLoad {
    type Output = f64;
    fn index(&self, resource: Resource) -> &f64 {
        &self.0[resource as usize]
    }
}

impl StepLoad {
    /// The layer's weight stream, paid once however many batches follow.
    pub fn weights(tasks: &TaskCosts) -> StepLoad {
        let mut load = StepLoad::default();
        load.0[Resource::H2d as usize] = tasks[TaskKind::LoadWeight];
        load
    }

    /// Add `n` batches' worth of the per-batch tasks (every kind but
    /// `LoadWeight`), each on the resource its table row names.
    // `#[inline]` so a caller's loop over slots keeps the vector in
    // registers and folds the table lookups (crate-external otherwise).
    #[inline]
    pub fn add_batches(&mut self, tasks: &TaskCosts, n: f64) {
        for r in Resource::ALL {
            let per_batch: f64 = TaskKind::ALL
                .into_iter()
                .filter(|&k| k != TaskKind::LoadWeight && k.resource() == r)
                .map(|k| tasks[k])
                .sum();
            self.0[r as usize] += n * per_batch;
        }
    }

    /// The step time under perfect overlap: the busiest resource.
    pub fn time(&self) -> f64 {
        let [h2d, d2h, cpu, gpu] = self.0;
        h2d.max(d2h).max(cpu).max(gpu)
    }

    /// The resource [`StepLoad::time`] is the load of (the earliest in
    /// [`Resource::ALL`] order on a tie).
    pub fn binding(&self) -> Resource {
        let mut binding = Resource::H2d;
        for r in Resource::ALL {
            if self[r] > self[binding] {
                binding = r;
            }
        }
        binding
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_unique() {
        let names: std::collections::HashSet<_> = TaskKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), TaskKind::ALL.len());
    }

    #[test]
    fn index_matches_all_order() {
        for (i, k) in TaskKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn kind_table_agrees_row_by_row() {
        use Resource::*;
        use TaskKind::*;
        let rows = [
            (LoadWeight, "load_weight", H2d, 0, 'W'),
            (LoadCache, "load_cache", H2d, 1, 'C'),
            (LoadActivation, "load_activation", H2d, 2, 'a'),
            (StoreCache, "store_cache", D2h, 3, 'c'),
            (StoreActivation, "store_activation", D2h, 4, 's'),
            (ComputeCpu, "compute_cpu", Cpu, 5, '#'),
            (ComputeGpu, "compute_gpu", Gpu, 5, '%'),
        ];
        assert_eq!(rows.len(), TaskKind::ALL.len());
        for (i, (kind, name, resource, paper, glyph)) in rows.into_iter().enumerate() {
            assert_eq!(TaskKind::ALL[i], kind);
            assert_eq!(kind.index(), i);
            assert_eq!(kind.name(), name);
            assert_eq!(kind.resource(), resource);
            assert_eq!(kind.paper_task(), TaskKind::PAPER_TASKS[paper]);
            assert_eq!(kind.glyph(), glyph);
            assert_eq!(kind.hist_name(), format!("task.{name}.seconds"));
        }
        for (i, r) in Resource::ALL.into_iter().enumerate() {
            assert_eq!(r as usize, i);
        }
    }

    #[test]
    fn paper_tasks_cover_every_kind() {
        for k in TaskKind::ALL {
            assert!(
                TaskKind::PAPER_TASKS.contains(&k.paper_task()),
                "{} not a paper task",
                k.paper_task()
            );
        }
        assert_eq!(TaskKind::ComputeCpu.paper_task(), "compute");
        assert_eq!(TaskKind::ComputeGpu.paper_task(), "compute");
        assert_eq!(TaskKind::LoadWeight.paper_task(), "load_weight");
    }

    #[test]
    fn serde_round_trip() {
        for k in TaskKind::ALL {
            let v = serde::Serialize::serialize(&k);
            let back: TaskKind = serde::Deserialize::deserialize(&v).unwrap();
            assert_eq!(back, k);
        }
    }

    /// Distinct powers of two per kind, so every sum below is exact.
    fn costs() -> TaskCosts {
        let mut t = TaskCosts::default();
        for k in TaskKind::ALL {
            t[k] = (1u32 << k.index()) as f64;
        }
        t
    }

    #[test]
    fn task_costs_stretch_moves_transfers_only() {
        let t = costs();
        let s = t.stretched(2.0, 4.0);
        for k in TaskKind::ALL {
            let factor = match k.resource() {
                Resource::H2d => 2.0,
                Resource::D2h => 4.0,
                Resource::Cpu | Resource::Gpu => 1.0,
            };
            assert_eq!(s[k], t[k] * factor, "{}", k.name());
        }
        // Identity factors pass everything through untouched.
        assert_eq!(t.stretched(1.0, 1.0), t);
        assert_eq!(t.total(), 127.0);
    }

    #[test]
    fn step_load_sums_per_resource_then_takes_the_max() {
        let t = costs();
        let mut load = StepLoad::weights(&t);
        assert_eq!((load.time(), load.binding()), (1.0, Resource::H2d));
        load.add_batches(&t, 3.0);
        // H2D 1 + 3·(2+4) = 19, D2H 3·(8+16) = 72, CPU 3·32 = 96,
        // GPU 3·64 = 192.
        assert_eq!(load, StepLoad([19.0, 72.0, 96.0, 192.0]));
        assert_eq!((load.time(), load.binding()), (192.0, Resource::Gpu));
        // A tie binds the earliest resource.
        assert_eq!(StepLoad([5.0, 5.0, 1.0, 5.0]).binding(), Resource::H2d);
    }

    #[test]
    fn from_spans_sums_durations_by_kind() {
        let span = |kind, start, end| Span {
            kind,
            step: 0,
            layer: 0,
            batch: None,
            start,
            end,
        };
        let t = TaskCosts::from_spans(&[
            span(TaskKind::LoadWeight, 0.0, 1.5),
            span(TaskKind::ComputeGpu, 1.0, 2.0),
            span(TaskKind::LoadWeight, 2.0, 2.5),
        ]);
        assert_eq!(t[TaskKind::LoadWeight], 2.0);
        assert_eq!(t[TaskKind::ComputeGpu], 1.0);
        assert_eq!(t[TaskKind::StoreCache], 0.0);
    }
}
