//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a fixed, seed-derived description of everything
//! that will go wrong during one run: which tasks overrun their WCET
//! (and by how much), whether a processor fail-stops (and when), and
//! which processors have a misbehaving DVS regulator. The plan is data,
//! not behaviour — the same plan fed to the runner twice produces
//! bit-identical traces, which is what lets the fuzzer shrink failing
//! scenarios and the corpus pin them forever.
//!
//! The runner ([`crate::recovery::run_with_faults`]) consumes the plan
//! and records every fault that actually fired as an [`InjectedEvent`]
//! in the trace; a fault that never fires (a fail-stop scheduled after
//! the run already completed, a stuck regulator on a processor that
//! never tried to switch) leaves no event.

use crate::actuals::Actuals;
use crate::error::{bad_plan, check_proc, SimError};
use lamps_sched::ProcId;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{TaskGraph, TaskId};

/// A processor fail-stop: at `at_s` the processor halts permanently,
/// losing whatever it was executing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailStop {
    /// The processor that dies.
    pub proc: ProcId,
    /// When it dies \[s\].
    pub at_s: f64,
}

/// How a faulty DVS regulator misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvsFaultKind {
    /// The regulator ignores level requests: the processor is pinned at
    /// whatever level it booted with (the plan level).
    StuckAtLevel,
    /// Every switch takes `extra_s` longer than the nominal latency.
    ExtraLatency {
        /// Additional settle time per switch \[s\].
        extra_s: f64,
    },
}

/// A DVS regulator fault on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsFault {
    /// The afflicted processor.
    pub proc: ProcId,
    /// What its regulator does wrong.
    pub kind: DvsFaultKind,
}

/// One task's WCET overrun: it executes `round(wcet × factor)` cycles,
/// `factor ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overrun {
    /// The overrunning task.
    pub task: TaskId,
    /// Multiplicative factor on the WCET (≥ 1).
    pub factor: f64,
}

/// Everything that will go wrong during one run, owned; code reads it
/// through [`FaultPlan::view`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-task WCET overruns (at most one entry per task).
    pub overruns: Vec<Overrun>,
    /// At most one processor fail-stop.
    pub fail_stop: Option<FailStop>,
    /// DVS regulator faults (at most one entry per processor).
    pub dvs: Vec<DvsFault>,
}

/// Knobs for [`FaultPlan::random`]: how hostile the drawn plan is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultIntensity {
    /// Probability that each task overruns.
    pub overrun_prob: f64,
    /// Maximum overrun factor; actual factors draw uniformly from
    /// `[1, max_overrun_factor]`.
    pub max_overrun_factor: f64,
    /// Whether one processor fail-stops at a random time.
    pub fail_stop: bool,
    /// Probability that each processor's DVS regulator is faulty.
    pub dvs_fault_prob: f64,
}

impl FaultIntensity {
    /// Rare, mild overruns; the machine itself is healthy.
    pub fn mild() -> Self {
        FaultIntensity {
            overrun_prob: 0.1,
            max_overrun_factor: 1.2,
            fail_stop: false,
            dvs_fault_prob: 0.0,
        }
    }

    /// Frequent overruns, one fail-stop, occasional regulator faults.
    pub fn moderate() -> Self {
        FaultIntensity {
            overrun_prob: 0.3,
            max_overrun_factor: 1.5,
            fail_stop: true,
            dvs_fault_prob: 0.25,
        }
    }

    /// Most tasks overrun badly, one fail-stop, regulators unreliable.
    pub fn severe() -> Self {
        FaultIntensity {
            overrun_prob: 0.6,
            max_overrun_factor: 2.5,
            fail_stop: true,
            dvs_fault_prob: 0.5,
        }
    }
}

impl FaultPlan {
    /// A plan with no faults: the runner behaves like the plain
    /// simulator.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.view().is_empty()
    }

    /// The plan as the borrowed view every reader takes.
    pub fn view(&self) -> FaultView<'_> {
        FaultView {
            overruns: Overruns::from(self.overruns.as_slice()),
            fail_stop: self.fail_stop,
            dvs: &self.dvs,
        }
    }

    /// Draw a plan from a seed. Deterministic: the same
    /// `(graph, n_procs, deadline_s, intensity, seed)` always yields the
    /// same plan. Zero-weight tasks never overrun.
    pub fn random(
        graph: &TaskGraph,
        n_procs: usize,
        deadline_s: f64,
        intensity: &FaultIntensity,
        seed: u64,
    ) -> Self {
        let mut plan = FaultPlan::none();
        plan.fail_stop = draw_faults(
            graph,
            n_procs,
            deadline_s,
            intensity,
            seed,
            &mut plan.overruns,
            &mut plan.dvs,
        );
        plan
    }
}

/// The one fault draw behind [`FaultPlan::random`] and the fault
/// streams of [`crate::OnlineStream::synthesize`]: appends the drawn
/// overruns and DVS faults to `overruns` (a plan's list or a stream's
/// columns) and `dvs` and returns the fail-stop, so both callers
/// consume the same RNG sequence.
pub(crate) fn draw_faults(
    graph: &TaskGraph,
    n_procs: usize,
    deadline_s: f64,
    intensity: &FaultIntensity,
    seed: u64,
    overruns: &mut impl Extend<Overrun>,
    dvs: &mut Vec<DvsFault>,
) -> Option<FailStop> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xFA_07_5E_ED);
    for t in graph.tasks() {
        if graph.weight(t) > 0 && rng.gen_bool(intensity.overrun_prob) {
            let factor = rng.gen_range(1.0..=intensity.max_overrun_factor.max(1.0));
            overruns.extend([Overrun { task: t, factor }]);
        }
    }
    let fail_stop = if intensity.fail_stop && n_procs > 0 {
        Some(FailStop {
            proc: ProcId(rng.gen_range(0u32..n_procs as u32)),
            at_s: rng.gen_range(0.0..=deadline_s.max(0.0)),
        })
    } else {
        None
    };
    for p in 0..n_procs as u32 {
        if rng.gen_bool(intensity.dvs_fault_prob) {
            let kind = if rng.gen_bool(0.5) {
                DvsFaultKind::StuckAtLevel
            } else {
                DvsFaultKind::ExtraLatency {
                    extra_s: rng.gen_range(1.0e-5..=1.0e-3),
                }
            };
            dvs.push(DvsFault {
                proc: ProcId(p),
                kind,
            });
        }
    }
    fail_stop
}

/// A borrowed, `Copy` view of one run's faults — the only way the
/// runners and checkers read them. It owns no heap memory: borrowed
/// slices and a copied fail-stop.
///
/// A [`FaultPlan`] lends one through [`FaultPlan::view`]. Frame `i` of
/// an online stream lends one into the stream's flat fault arrays (see
/// [`crate::FrameTable`]): `overruns` and `dvs` are frame `i`'s runs of
/// the stream-wide overrun columns (task, factor) and DVS array,
/// between the previous frame's end offsets and its own, and
/// `fail_stop` is rebuilt from its slot of the packed fail-stop columns
/// (a presence bit, a `u32` processor and an `f64` time). Those arrays
/// cost a stream of `F` frames with `O` overruns and `D` DVS faults
/// exactly `8·F + 12·F + 8·⌈F/64⌉ + 12·O + 24·D` heap bytes, and
/// nothing when no frame has a fault.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultView<'a> {
    /// Per-task WCET overruns (at most one entry per task).
    pub overruns: Overruns<'a>,
    /// At most one processor fail-stop.
    pub fail_stop: Option<FailStop>,
    /// DVS regulator faults (at most one entry per processor).
    pub dvs: &'a [DvsFault],
}

impl FaultView<'_> {
    /// Whether the view injects nothing.
    pub fn is_empty(&self) -> bool {
        self.overruns.is_empty() && self.fail_stop.is_none() && self.dvs.is_empty()
    }

    /// An owned copy of the faults.
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            overruns: self.overruns.iter().collect(),
            fail_stop: self.fail_stop,
            dvs: self.dvs.to_vec(),
        }
    }

    /// Check the faults against a graph and machine size: overrun
    /// factors finite and ≥ 1 on tasks of the graph (one entry per
    /// task), fault times finite and ≥ 0, processors in range (one DVS
    /// entry per processor), extra latencies finite and ≥ 0.
    pub fn validate(&self, graph: &TaskGraph, n_procs: usize) -> Result<(), SimError> {
        FaultChecker::new(graph, n_procs).check(self)
    }

    /// Fill `out` with the cycle counts tasks will *actually* execute:
    /// `actual` everywhere, except overrunning tasks run
    /// `round(wcet × factor)` (at least 1) regardless of their drawn
    /// actuals — a mis-characterized WCET dwarfs normal variation. The
    /// caller owns `out`, so one buffer serves every frame of a stream.
    pub fn effective_cycles(&self, graph: &TaskGraph, actual: Actuals<'_>, out: &mut Vec<u64>) {
        out.clear();
        out.extend(actual.iter());
        for o in self.overruns.iter() {
            let w = graph.weight(o.task);
            if w > 0 {
                out[o.task.index()] = ((w as f64 * o.factor).round() as u64).max(1);
            }
        }
    }
}

/// A borrowed run of overruns: a plan's own list, or one frame's run of
/// a stream's two overrun columns (a `u32` task and an `f64` factor, 12
/// bytes an overrun where a padded [`Overrun`] takes 16). Read as
/// [`Overrun`] values either way; two views are equal when they hold
/// the same overruns in the same order.
#[derive(Debug, Clone, Copy)]
pub struct Overruns<'a>(OverrunSlice<'a>);

#[derive(Debug, Clone, Copy)]
enum OverrunSlice<'a> {
    Rows(&'a [Overrun]),
    Columns {
        task: &'a [TaskId],
        factor: &'a [f64],
    },
}

impl<'a> Overruns<'a> {
    /// A view of two columns of equal length.
    pub(crate) fn columns(task: &'a [TaskId], factor: &'a [f64]) -> Self {
        debug_assert_eq!(task.len(), factor.len());
        Overruns(OverrunSlice::Columns { task, factor })
    }

    /// Number of overruns.
    pub fn len(&self) -> usize {
        match self.0 {
            OverrunSlice::Rows(rows) => rows.len(),
            OverrunSlice::Columns { task, .. } => task.len(),
        }
    }

    /// Whether the view holds no overrun.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The overruns in order.
    pub fn iter(&self) -> OverrunsIter<'a> {
        match self.0 {
            OverrunSlice::Rows(rows) => OverrunsIter {
                rows: rows.iter(),
                columns: [].iter().zip([].iter()),
            },
            OverrunSlice::Columns { task, factor } => OverrunsIter {
                rows: [].iter(),
                columns: task.iter().zip(factor.iter()),
            },
        }
    }
}

impl Default for Overruns<'_> {
    fn default() -> Self {
        Overruns(OverrunSlice::Rows(&[]))
    }
}

impl<'a> From<&'a [Overrun]> for Overruns<'a> {
    fn from(rows: &'a [Overrun]) -> Self {
        Overruns(OverrunSlice::Rows(rows))
    }
}

impl PartialEq for Overruns<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for Overruns<'a> {
    type Item = Overrun;
    type IntoIter = OverrunsIter<'a>;

    fn into_iter(self) -> OverrunsIter<'a> {
        self.iter()
    }
}

/// The overruns of an [`Overruns`] view. One of the two sources is
/// always empty.
#[derive(Debug, Clone)]
pub struct OverrunsIter<'a> {
    rows: std::slice::Iter<'a, Overrun>,
    columns: std::iter::Zip<std::slice::Iter<'a, TaskId>, std::slice::Iter<'a, f64>>,
}

impl Iterator for OverrunsIter<'_> {
    type Item = Overrun;

    fn next(&mut self) -> Option<Overrun> {
        match self.rows.next() {
            Some(&o) => Some(o),
            None => self
                .columns
                .next()
                .map(|(&task, &factor)| Overrun { task, factor }),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.rows.len() + self.columns.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for OverrunsIter<'_> {}

/// Validates any number of [`FaultView`]s against one graph and machine
/// with a single pair of duplicate markers: a marker holds the stamp of
/// the last check that set it, so no check clears or reallocates them.
pub(crate) struct FaultChecker<'g> {
    graph: &'g TaskGraph,
    n_procs: usize,
    seen_task: Vec<u64>,
    seen_proc: Vec<u64>,
    stamp: u64,
}

impl<'g> FaultChecker<'g> {
    pub(crate) fn new(graph: &'g TaskGraph, n_procs: usize) -> Self {
        FaultChecker {
            graph,
            n_procs,
            seen_task: vec![0; graph.len()],
            seen_proc: vec![0; n_procs],
            stamp: 0,
        }
    }

    /// Validate one view; see [`FaultView::validate`].
    pub(crate) fn check(&mut self, faults: &FaultView<'_>) -> Result<(), SimError> {
        self.stamp += 1;
        let (graph, n_procs, stamp) = (self.graph, self.n_procs, self.stamp);
        for o in faults.overruns.iter() {
            if o.task.index() >= graph.len() {
                return Err(bad_plan(format!("{} not in the graph", o.task)));
            }
            if !o.factor.is_finite() || o.factor < 1.0 {
                return Err(bad_plan(format!(
                    "{}: overrun factor {} must be finite and ≥ 1",
                    o.task, o.factor
                )));
            }
            let seen = &mut self.seen_task[o.task.index()];
            if *seen == stamp {
                return Err(bad_plan(format!("{} overruns twice", o.task)));
            }
            *seen = stamp;
        }
        if let Some(fs) = faults.fail_stop {
            check_proc(fs.proc, n_procs)?;
            if !fs.at_s.is_finite() || fs.at_s < 0.0 {
                return Err(bad_plan(format!(
                    "fail-stop time {} must be finite and ≥ 0",
                    fs.at_s
                )));
            }
        }
        for d in faults.dvs {
            check_proc(d.proc, n_procs)?;
            if let DvsFaultKind::ExtraLatency { extra_s } = d.kind {
                if !extra_s.is_finite() || extra_s < 0.0 {
                    return Err(bad_plan(format!(
                        "{}: extra switch latency {} must be finite and ≥ 0",
                        d.proc, extra_s
                    )));
                }
            }
            let seen = &mut self.seen_proc[d.proc.index()];
            if *seen == stamp {
                return Err(bad_plan(format!("{} has two DVS faults", d.proc)));
            }
            *seen = stamp;
        }
        Ok(())
    }
}

/// A fault the runner actually applied, recorded in trace order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedEvent {
    /// A task executed more cycles than its WCET.
    Overrun {
        /// The overrunning task.
        task: TaskId,
        /// The factor from the plan.
        factor: f64,
        /// Cycles it actually executed.
        cycles: u64,
    },
    /// A processor fail-stopped.
    ProcFailed {
        /// The dead processor.
        proc: ProcId,
        /// When it died \[s\].
        at_s: f64,
    },
    /// A level switch was requested on a stuck regulator and ignored.
    DvsStuck {
        /// The afflicted processor.
        proc: ProcId,
        /// The supply voltage that was requested \[V\].
        requested_vdd: f64,
    },
    /// A level switch took extra settle time.
    DvsDelayed {
        /// The afflicted processor.
        proc: ProcId,
        /// The additional latency beyond nominal \[s\].
        extra_s: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    fn graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        for _ in 0..20 {
            b.add_task(1_000_000);
        }
        b.build().unwrap()
    }

    #[test]
    fn random_plans_are_deterministic() {
        let g = graph();
        let i = FaultIntensity::moderate();
        let a = FaultPlan::random(&g, 4, 0.01, &i, 7);
        let b = FaultPlan::random(&g, 4, 0.01, &i, 7);
        assert_eq!(a, b);
        let c = FaultPlan::random(&g, 4, 0.01, &i, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_plans_validate() {
        let g = graph();
        for intensity in [
            FaultIntensity::mild(),
            FaultIntensity::moderate(),
            FaultIntensity::severe(),
        ] {
            for seed in 0..50 {
                let p = FaultPlan::random(&g, 3, 0.02, &intensity, seed);
                p.view().validate(&g, 3).unwrap();
            }
        }
    }

    #[test]
    fn zero_weight_tasks_never_overrun() {
        let g = graph();
        for seed in 0..100 {
            let p = FaultPlan::random(&g, 2, 0.01, &FaultIntensity::severe(), seed);
            assert!(p.overruns.iter().all(|o| o.task != TaskId(0)));
        }
    }

    #[test]
    fn effective_cycles_apply_factors() {
        let g = graph();
        let actual: Vec<u64> = g.weights().iter().map(|&w| w / 2).collect();
        let plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(3),
                factor: 1.5,
            }],
            ..FaultPlan::none()
        };
        let mut eff = Vec::new();
        plan.view()
            .effective_cycles(&g, actual.as_slice().into(), &mut eff);
        assert_eq!(eff[3], 1_500_000);
        assert_eq!(eff[1], 500_000);
    }

    #[test]
    fn empty_plan_is_identity() {
        let g = graph();
        let actual: Vec<u64> = g.weights().to_vec();
        assert!(FaultPlan::none().is_empty());
        let mut eff = vec![7; 3];
        FaultPlan::none()
            .view()
            .effective_cycles(&g, actual.as_slice().into(), &mut eff);
        assert_eq!(eff, actual);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let g = graph();
        let bad = [
            FaultPlan {
                overruns: vec![Overrun {
                    task: TaskId(1),
                    factor: 0.5,
                }],
                ..FaultPlan::none()
            },
            FaultPlan {
                overruns: vec![Overrun {
                    task: TaskId(1),
                    factor: f64::NAN,
                }],
                ..FaultPlan::none()
            },
            FaultPlan {
                overruns: vec![
                    Overrun {
                        task: TaskId(1),
                        factor: 1.2,
                    },
                    Overrun {
                        task: TaskId(1),
                        factor: 1.3,
                    },
                ],
                ..FaultPlan::none()
            },
            FaultPlan {
                fail_stop: Some(FailStop {
                    proc: ProcId(9),
                    at_s: 0.0,
                }),
                ..FaultPlan::none()
            },
            FaultPlan {
                fail_stop: Some(FailStop {
                    proc: ProcId(0),
                    at_s: -1.0,
                }),
                ..FaultPlan::none()
            },
            FaultPlan {
                dvs: vec![DvsFault {
                    proc: ProcId(0),
                    kind: DvsFaultKind::ExtraLatency {
                        extra_s: f64::INFINITY,
                    },
                }],
                ..FaultPlan::none()
            },
        ];
        for plan in bad {
            assert!(
                matches!(plan.view().validate(&g, 2), Err(SimError::BadFaultPlan(_))),
                "{plan:?} must be rejected"
            );
        }
        FaultPlan::none().view().validate(&g, 2).unwrap();
    }
}
