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
            dvs: DvsFaults::from(self.dvs.as_slice()),
        }
    }

    /// Draw a plan from a seed. Deterministic: the same
    /// `(graph, n_procs, deadline_s, intensity, seed)` always yields the
    /// same plan. Zero-weight tasks never overrun.
    ///
    /// # Panics
    ///
    /// Unless the intensity's `overrun_prob` and `dvs_fault_prob` lie in
    /// `[0, 1]`, checked before any draw, so also when no draw reads
    /// them.
    pub fn random(
        graph: &TaskGraph,
        n_procs: usize,
        deadline_s: f64,
        intensity: &FaultIntensity,
        seed: u64,
    ) -> Self {
        let spec = FaultSpec {
            intensity: *intensity,
            n_procs,
            deadline_s,
        };
        spec.check();
        let mut draw = DrawnFaults::new(&spec, graph.weights(), seed).walk();
        let overruns = std::iter::from_fn(|| draw.overrun()).collect();
        let fail_stop = draw.fail_stop();
        FaultPlan {
            overruns,
            fail_stop,
            dvs: std::iter::from_fn(|| draw.dvs()).collect(),
        }
    }
}

/// Everything a fault draw takes apart from its seed and the WCETs:
/// how hostile it is, the machine size, and the span fail-stop times
/// fall in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSpec {
    pub(crate) intensity: FaultIntensity,
    pub(crate) n_procs: usize,
    pub(crate) deadline_s: f64,
}

impl FaultSpec {
    /// Panic unless both probabilities of the intensity lie in
    /// `[0, 1]`, as every draw requires.
    pub(crate) fn check(&self) {
        for p in [self.intensity.overrun_prob, self.intensity.dvs_fault_prob] {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        }
    }
}

/// One run's faults as a recipe, not yet drawn: the spec, the job
/// WCETs and the run's seed. `Copy`, and owns nothing, so a view can
/// carry it and redraw on every read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DrawnFaults<'a> {
    spec: &'a FaultSpec,
    wcet: &'a [u64],
    seed: u64,
}

impl<'a> DrawnFaults<'a> {
    pub(crate) fn new(spec: &'a FaultSpec, wcet: &'a [u64], seed: u64) -> Self {
        DrawnFaults { spec, wcet, seed }
    }

    /// A fresh walk of the draw, from its first overrun on.
    fn walk(self) -> FaultDraw<'a> {
        FaultDraw {
            from: self,
            rng: Rng::seed_from_u64(self.seed ^ 0xFA_07_5E_ED),
            task: 0,
            proc: 0,
        }
    }
}

/// The one fault draw behind [`FaultPlan::random`] and every read of a
/// synthesized stream's faults, so both consume the same RNG sequence:
/// per task of positive WCET whether it overruns and by what factor,
/// then the fail-stop, then per processor whether its regulator is
/// faulty and how. Readers take the three parts in that order.
#[derive(Debug, Clone)]
struct FaultDraw<'a> {
    from: DrawnFaults<'a>,
    rng: Rng,
    /// The next task to draw an overrun for.
    task: usize,
    /// The next processor to draw a DVS fault for.
    proc: u32,
}

impl FaultDraw<'_> {
    /// The next overrun, or `None` once every task has drawn.
    fn overrun(&mut self) -> Option<Overrun> {
        let fi = &self.from.spec.intensity;
        while let Some(&w) = self.from.wcet.get(self.task) {
            let task = TaskId(self.task as u32);
            self.task += 1;
            if w > 0 && self.rng.gen_bool(fi.overrun_prob) {
                let factor = self.rng.gen_range(1.0..=fi.max_overrun_factor.max(1.0));
                return Some(Overrun { task, factor });
            }
        }
        None
    }

    /// The fail-stop, drawn after whatever overruns are left.
    fn fail_stop(&mut self) -> Option<FailStop> {
        while self.overrun().is_some() {}
        let spec = self.from.spec;
        (spec.intensity.fail_stop && spec.n_procs > 0).then(|| FailStop {
            proc: ProcId(self.rng.gen_range(0u32..spec.n_procs as u32)),
            at_s: self.rng.gen_range(0.0..=spec.deadline_s.max(0.0)),
        })
    }

    /// The next DVS fault, or `None` once every processor has drawn.
    /// Call after [`FaultDraw::fail_stop`].
    fn dvs(&mut self) -> Option<DvsFault> {
        let spec = self.from.spec;
        while self.proc < spec.n_procs as u32 {
            let proc = ProcId(self.proc);
            self.proc += 1;
            if self.rng.gen_bool(spec.intensity.dvs_fault_prob) {
                let kind = if self.rng.gen_bool(0.5) {
                    DvsFaultKind::StuckAtLevel
                } else {
                    DvsFaultKind::ExtraLatency {
                        extra_s: self.rng.gen_range(1.0e-5..=1.0e-3),
                    }
                };
                return Some(DvsFault { proc, kind });
            }
        }
        None
    }
}

/// A `Copy` view of one run's faults — the only way the runners and
/// checkers read them. It owns no heap memory.
///
/// A [`FaultPlan`] lends one through [`FaultPlan::view`], of its own
/// lists. Frame `i` of an online stream lends one through
/// [`crate::FrameTable::get`], in one of two forms:
///
/// * stored, in a table assembled by [`crate::FrameTable::from_parts`]:
///   the view of frame `i`'s plan, as [`FaultPlan::view`] lends it;
/// * derived, in a stream built by [`crate::OnlineStream::synthesize`]:
///   the view carries the stream's fault recipe and the frame's seed.
///   `fail_stop` is drawn when the view is made; `overruns` and `dvs`
///   redraw the frame's plan from its seed on every read, through the
///   generator behind [`FaultPlan::random`], so each read gives the same
///   bits and costs O(N + P) draws for `N` jobs and `P` processors.
///
/// Two views are equal when they hold the same faults, whatever their
/// forms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultView<'a> {
    /// Per-task WCET overruns (at most one entry per task).
    pub overruns: Overruns<'a>,
    /// At most one processor fail-stop.
    pub fail_stop: Option<FailStop>,
    /// DVS regulator faults (at most one entry per processor).
    pub dvs: DvsFaults<'a>,
}

impl<'a> FaultView<'a> {
    /// The view of a derived frame: its fail-stop drawn now, its
    /// overruns and DVS faults on every read.
    pub(crate) fn drawn(draw: DrawnFaults<'a>) -> Self {
        FaultView {
            overruns: Overruns(OverrunSlice::Drawn(draw)),
            fail_stop: draw.walk().fail_stop(),
            dvs: DvsFaults(DvsSlice::Drawn(draw)),
        }
    }

    /// Whether the view injects nothing.
    pub fn is_empty(&self) -> bool {
        self.overruns.is_empty() && self.fail_stop.is_none() && self.dvs.is_empty()
    }

    /// An owned copy of the faults.
    pub fn to_plan(&self) -> FaultPlan {
        FaultPlan {
            overruns: self.overruns.iter().collect(),
            fail_stop: self.fail_stop,
            dvs: self.dvs.iter().collect(),
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

/// A run of overruns: a plan's own list or a derived frame's draw. Read
/// as [`Overrun`] values either way; two views are equal when they hold
/// the same overruns in the same order.
#[derive(Debug, Clone, Copy)]
pub struct Overruns<'a>(OverrunSlice<'a>);

#[derive(Debug, Clone, Copy)]
enum OverrunSlice<'a> {
    Rows(&'a [Overrun]),
    Drawn(DrawnFaults<'a>),
}

impl<'a> Overruns<'a> {
    /// Number of overruns. On a derived view this redraws them.
    pub fn len(&self) -> usize {
        match self.0 {
            OverrunSlice::Rows(rows) => rows.len(),
            OverrunSlice::Drawn(_) => self.iter().count(),
        }
    }

    /// Whether the view holds no overrun.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// The overruns in order.
    pub fn iter(&self) -> OverrunsIter<'a> {
        OverrunsIter(match self.0 {
            OverrunSlice::Rows(rows) => OverrunsForm::Rows(rows.iter()),
            OverrunSlice::Drawn(draw) => OverrunsForm::Drawn(draw.walk()),
        })
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
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for Overruns<'a> {
    type Item = Overrun;
    type IntoIter = OverrunsIter<'a>;

    fn into_iter(self) -> OverrunsIter<'a> {
        self.iter()
    }
}

/// The overruns of an [`Overruns`] view.
#[derive(Debug, Clone)]
pub struct OverrunsIter<'a>(OverrunsForm<'a>);

#[derive(Debug, Clone)]
enum OverrunsForm<'a> {
    Rows(std::slice::Iter<'a, Overrun>),
    Drawn(FaultDraw<'a>),
}

impl Iterator for OverrunsIter<'_> {
    type Item = Overrun;

    fn next(&mut self) -> Option<Overrun> {
        match &mut self.0 {
            OverrunsForm::Rows(rows) => rows.next().copied(),
            OverrunsForm::Drawn(draw) => draw.overrun(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            OverrunsForm::Rows(rows) => rows.size_hint(),
            OverrunsForm::Drawn(_) => (0, None),
        }
    }
}

/// A run of DVS faults: a plan's own list or a derived frame's draw.
/// Read as [`DvsFault`] values either way; two views are equal when they
/// hold the same faults in the same order.
#[derive(Debug, Clone, Copy)]
pub struct DvsFaults<'a>(DvsSlice<'a>);

#[derive(Debug, Clone, Copy)]
enum DvsSlice<'a> {
    Stored(&'a [DvsFault]),
    Drawn(DrawnFaults<'a>),
}

impl<'a> DvsFaults<'a> {
    /// Number of DVS faults. On a derived view this redraws the frame.
    pub fn len(&self) -> usize {
        match self.0 {
            DvsSlice::Stored(v) => v.len(),
            DvsSlice::Drawn(_) => self.iter().count(),
        }
    }

    /// Whether the view holds no DVS fault.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// The DVS faults in order.
    pub fn iter(&self) -> DvsFaultsIter<'a> {
        DvsFaultsIter(match self.0 {
            DvsSlice::Stored(v) => DvsForm::Stored(v.iter()),
            DvsSlice::Drawn(draw) => {
                let mut draw = draw.walk();
                draw.fail_stop();
                DvsForm::Drawn(draw)
            }
        })
    }
}

impl Default for DvsFaults<'_> {
    fn default() -> Self {
        DvsFaults(DvsSlice::Stored(&[]))
    }
}

impl<'a> From<&'a [DvsFault]> for DvsFaults<'a> {
    fn from(faults: &'a [DvsFault]) -> Self {
        DvsFaults(DvsSlice::Stored(faults))
    }
}

impl PartialEq for DvsFaults<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for DvsFaults<'a> {
    type Item = DvsFault;
    type IntoIter = DvsFaultsIter<'a>;

    fn into_iter(self) -> DvsFaultsIter<'a> {
        self.iter()
    }
}

/// The faults of a [`DvsFaults`] view.
#[derive(Debug, Clone)]
pub struct DvsFaultsIter<'a>(DvsForm<'a>);

#[derive(Debug, Clone)]
enum DvsForm<'a> {
    Stored(std::slice::Iter<'a, DvsFault>),
    Drawn(FaultDraw<'a>),
}

impl Iterator for DvsFaultsIter<'_> {
    type Item = DvsFault;

    fn next(&mut self) -> Option<DvsFault> {
        match &mut self.0 {
            DvsForm::Stored(v) => v.next().copied(),
            DvsForm::Drawn(draw) => draw.dvs(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            DvsForm::Stored(v) => v.size_hint(),
            DvsForm::Drawn(_) => (0, None),
        }
    }
}

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

    /// No draw reads `overrun_prob` on zero-weight tasks with no
    /// processors, so only the up-front check rejects it.
    #[test]
    #[should_panic(expected = "probability 2 outside [0, 1]")]
    fn random_plans_check_probabilities_before_drawing() {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        let g = b.build().unwrap();
        let intensity = FaultIntensity {
            overrun_prob: 2.0,
            ..FaultIntensity::mild()
        };
        FaultPlan::random(&g, 0, 0.01, &intensity, 1);
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
