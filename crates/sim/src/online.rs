//! The frame-granular online periodic runtime.
//!
//! [`run_online`] executes a [`lamps_kpn::PeriodicDag`] frame stream the
//! way a deployed scheduler would: the hyperperiod frame is solved
//! *once* offline and then replayed for every arriving frame. The plan
//! solve is [`lamps_core::multi::solve_with_deadlines`], a thin wrapper
//! that keys a schedule cache by the jobs' latest finish times and runs
//! the solver's one §4.2 search under its per-task deadline model (every
//! job by its own deadline, energy billed to the hyperperiod). The runtime
//!
//! * **admits** each frame against the current backlog — on time
//!   ([`AdmissionVerdict::Admitted`]), late but queued
//!   ([`AdmissionVerdict::Deferred`]), or dropped with an explicit
//!   verdict ([`AdmissionVerdict::Shed`]) when the backlog cap is hit;
//!   overload never silently corrupts the trace;
//! * **executes** each admitted frame on the crate's frame executor, the
//!   same event loop as [`crate::run_with_faults`]: the fault ladder
//!   (absorb, boost, fail-stop migration via suffix re-solve, structured
//!   [`RunOutcome::DeadlineMiss`]) plus, with reclamation on, the stretch
//!   rung below the plan level and an *incremental* suffix re-solve
//!   ([`lamps_core::SuffixSolver`]) on every early completion — arenas
//!   and EDF keys are recycled across frames, so a periodic stream pays
//!   the key traversal once;
//! * **degrades gracefully**: per-frame reclamation work is metered by a
//!   [`SolveBudget`] (steps, cancellation token, wall-clock deadline);
//!   once exhausted the frame falls back to window-stretch dispatch only
//!   and is flagged `degraded`. Fail-stop re-plans bypass the budget
//!   (migrating off a dead processor is correctness, not optimization)
//!   but count toward the step metrics. Each frame carries its own
//!   faults (a [`FaultView`], times relative to the frame start); a
//!   dead processor recovers at the next frame boundary.
//!
//! Deadlines are anchored at **arrival**: job `j` of a frame arriving at
//! `a` is due at `a + d_j / f_max` regardless of when the frame actually
//! started, so deferral under overload surfaces as honest lateness.
//!
//! Billing: admitted frame `i` owns the window `[start_i, start_{i+1})`
//! (the next executed frame's start; the last window runs to
//! `max(completion, arrival + span)`). Executed cycles are billed at the
//! level they ran at, intra-window gaps per employed processor at the
//! static plan level's idle power (slept through past break-even), level
//! switches into the transition bucket, and a processor dead from a
//! fail-stop is billed only to its fail time. Outside every window the
//! platform is powered off and draws nothing. Windows never overlap:
//! `start_{i+1} ≥` frame `i`'s completion by construction.
//!
//! With `actual == WCET`, no faults, and on-time arrivals, the runtime
//! reproduces the static plan exactly: every window equals the planned
//! execution window, so the stretch rung re-derives the plan level and
//! no re-solve ever fires. The differential fuzzer in `lamps-verify`
//! holds this invariant, and `lamps_verify::runtime::check_online` — run
//! on every fuzz case and bench run — validates full traces (admission
//! ordering, window disjointness, precedence, processor exclusivity,
//! dead-processor silence, arrival-anchored verdicts, energy re-bill).

use crate::actuals::{frame_seed, Actuals, Column};
use crate::arrivals::{ArrivalColumn, Arrivals};
use crate::error::SimError;
use crate::exec::{bill_idle, run_frame, Frame, Resolver};
use crate::faults::{
    DrawnFaults, FaultChecker, FaultIntensity, FaultPlan, FaultSpec, FaultView, InjectedEvent,
};
use crate::recovery::{ExecRecord, RecoveryAction, RecoveryPolicy, RunOutcome};
use crate::runner::DvsSwitchCost;
use crate::workload::check_fractions;
use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{SchedulerConfig, SolveBudget, Strategy};
use lamps_energy::EnergyBreakdown;
use lamps_kpn::PeriodicDag;
use lamps_obs::flight;
use std::collections::VecDeque;

/// How the online runtime behaves.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Strategy for the one-time offline frame plan.
    pub strategy: Strategy,
    /// Fault escalation policy (see [`RecoveryPolicy`]).
    pub policy: RecoveryPolicy,
    /// Reclaim dynamic slack: stretch dispatches below the plan level
    /// into their windows and re-solve the pending suffix on early
    /// completions. `false` runs the fault ladder alone, as
    /// [`crate::run_with_faults`] does (levels never drop below the base).
    pub reclaim: bool,
    /// Frames allowed to wait behind the one in execution before new
    /// arrivals are shed. `0` sheds every arrival that finds the
    /// platform busy.
    pub max_backlog: usize,
    /// Per-frame budget on *reclaim* re-solve work: `max_steps` caps
    /// candidate-level evaluations, the token and wall-clock deadline
    /// cut the frame over to window-stretch-only dispatch. Fail-stop
    /// re-plans ignore exhaustion (correctness) but count steps.
    pub frame_budget: SolveBudget,
    /// DVS switch cost model.
    pub switch: DvsSwitchCost,
}

impl OnlineConfig {
    /// The full runtime: LAMPS+PS plan, boost ladder, reclamation on,
    /// a small backlog, unlimited budget, free switches.
    pub fn reclaiming() -> Self {
        OnlineConfig {
            strategy: Strategy::LampsPs,
            policy: RecoveryPolicy::Boost,
            reclaim: true,
            max_backlog: 2,
            frame_budget: SolveBudget::unlimited(),
            switch: DvsSwitchCost::free(),
        }
    }

    /// The static baseline: same plan, same ladder, no reclamation.
    pub fn static_plan() -> Self {
        OnlineConfig {
            reclaim: false,
            ..OnlineConfig::reclaiming()
        }
    }
}

/// One arriving frame, borrowed from its [`FrameTable`]: a full
/// instantiation of the hyperperiod DAG.
#[derive(Debug, Clone, Copy)]
pub struct FrameInput<'a> {
    /// Absolute arrival time \[s\]. Arrivals must be non-decreasing.
    pub arrival_s: f64,
    /// Actual cycles per job (≤ WCET; overruns go in `faults`).
    pub actual: Actuals<'a>,
    /// Faults scoped to this frame; times are relative to the frame's
    /// *start* (a dead processor recovers at the next frame).
    pub faults: FaultView<'a>,
}

/// The frames of an [`OnlineStream`], stored as stream-level arrays
/// rather than one heap object per frame, each holding only what cannot
/// be derived:
///
/// * `arrival_s` — the progression `i · arrival_factor · span` of a
///   built stream, three numbers for the whole stream, or one explicit
///   arrival per frame for a table assembled from its arrays (read
///   through [`Arrivals`] views);
/// * `actual` — every frame's actual cycles, frame-major at a stride of
///   [`FrameTable::jobs`] entries per frame: for a built stream, the
///   recipe they derive from (a copy of the job WCETs, and the draw's
///   fraction bounds and seed), every frame redrawn on read; for a table
///   assembled from its arrays, the values back to back in one `u64`
///   column (read through [`Actuals`] views either way);
/// * the faults (read through [`FaultView`]s either way) — for a
///   stream built by [`OnlineStream::synthesize`] with an intensity,
///   the recipe they derive from (the intensity, the processor count,
///   the frame span and the stream seed, drawn over the actuals' WCET
///   copy), every frame's plan redrawn on read; for a table assembled
///   from its arrays, the [`FaultPlan`]s it was given, one per frame, or
///   none when no frame has a fault.
///
/// A table is built by [`FrameTable::from_parts`],
/// [`OnlineStream::periodic`] or [`OnlineStream::synthesize`] and never
/// edited after. The constructors keep every per-frame array the same
/// length in frames, so a frame's actuals always span exactly one
/// stride, and the checks [`run_online`] makes once per stream (the
/// stride against the graph, the actuals against the WCETs, the fault
/// plans against the platform) hold for the table's whole life. A
/// stream of `N` jobs built by [`OnlineStream::periodic`] or
/// [`OnlineStream::synthesize`] owns exactly `8·N` heap bytes, its WCET
/// copy, however many frames `F` it holds and whether or not it has
/// faults. A table built by [`FrameTable::from_parts`] owns the vectors
/// it was given: its actuals in `8·F·N` bytes, its arrivals in `8·F`,
/// and, when some frame has a fault, the plans as they came.
///
/// The stored layout is canonical: a table assembled from frames that
/// carry no fault holds no plans. Arrivals, actuals and faults compare
/// by value, whether derived or stored. So two tables compare equal
/// exactly when every frame reads the same.
#[derive(Debug, Clone, Default)]
pub struct FrameTable {
    arrival_s: ArrivalColumn,
    actual: Column,
    jobs: usize,
    faults: Faults,
}

impl PartialEq for FrameTable {
    fn eq(&self, other: &Self) -> bool {
        self.arrival_s == other.arrival_s
            && self.jobs == other.jobs
            && self.actual == other.actual
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.faults == b.faults)
    }
}

/// The fault half of a [`FrameTable`]: stored per frame, or derived
/// from a recipe.
#[derive(Debug, Clone)]
enum Faults {
    /// One plan per frame, or none when no frame has a fault.
    Stored(Box<[FaultPlan]>),
    Derived(FaultRecipe),
}

/// How a synthesized stream's faults read: frame `i` holds the plan
/// [`FaultPlan::random`] draws under `spec` from
/// `frame_seed(seed, i) ^ 0x5EED`, over the WCETs its actuals derive
/// from.
#[derive(Debug, Clone)]
struct FaultRecipe {
    spec: FaultSpec,
    seed: u64,
}

impl Default for Faults {
    fn default() -> Self {
        Faults::Stored(Box::default())
    }
}

impl Faults {
    /// Frame `i`'s faults (`i` below the frame count), in a table whose
    /// actuals are `actual`.
    fn view<'a>(&'a self, i: usize, actual: &'a Column) -> FaultView<'a> {
        match self {
            Faults::Stored(plans) => plans
                .get(i)
                .map_or_else(FaultView::default, FaultPlan::view),
            Faults::Derived(recipe) => {
                let wcet = actual
                    .wcet_bound()
                    .expect("derived faults draw over derived actuals");
                let seed = frame_seed(recipe.seed, i) ^ 0x5EED;
                FaultView::drawn(DrawnFaults::new(&recipe.spec, wcet, seed))
            }
        }
    }
}

impl FrameTable {
    /// Assemble a table from its arrays: `actual` must hold `jobs`
    /// entries per arrival, `faults` none or one plan per arrival. All
    /// three are kept as given (the vectors boxed), except that plans
    /// which are all empty are dropped.
    pub fn from_parts(
        arrival_s: Vec<f64>,
        jobs: usize,
        actual: Vec<u64>,
        faults: Vec<FaultPlan>,
    ) -> Result<Self, SimError> {
        let n_frames = arrival_s.len();
        if Some(actual.len()) != n_frames.checked_mul(jobs) {
            return Err(SimError::BadStream(format!(
                "{} actual cycle counts are not {n_frames} frames of {jobs} jobs",
                actual.len()
            )));
        }
        if !faults.is_empty() && faults.len() != n_frames {
            return Err(SimError::BadStream(format!(
                "{} fault plans for {n_frames} frames",
                faults.len()
            )));
        }
        let faults = if faults.iter().all(FaultPlan::is_empty) {
            Box::default()
        } else {
            faults.into_boxed_slice()
        };
        Ok(FrameTable {
            arrival_s: ArrivalColumn::Explicit(arrival_s),
            actual: Column::from_values(actual),
            jobs,
            faults: Faults::Stored(faults),
        })
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.arrival_s().len()
    }

    /// Whether the stream has no frames.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Actual cycle counts per frame: the stride of [`FrameTable::actual`].
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Frame `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<FrameInput<'_>> {
        if i >= self.len() {
            return None;
        }
        Some(FrameInput {
            arrival_s: self.arrival_s().get(i),
            actual: self.actual.view(i * self.jobs..(i + 1) * self.jobs),
            faults: self.faults.view(i, &self.actual),
        })
    }

    /// The frames, in arrival order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = FrameInput<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index below len"))
    }

    /// Every frame's arrival \[s\].
    pub fn arrival_s(&self) -> Arrivals<'_> {
        self.arrival_s.view()
    }

    /// Every frame's actual cycles, frame-major at stride
    /// [`FrameTable::jobs`].
    pub fn actual(&self) -> Actuals<'_> {
        self.actual.all()
    }
}

/// A stream of frames for [`run_online`]: arrivals, actual cycles and
/// faults held as the stream-level arrays of a [`FrameTable`] (the
/// arrival progression or one arrival per frame, the actuals' recipe or
/// one flat stride-`jobs` column of them, and the fault recipe or one
/// plan per frame, none for a fault-free stream), read frame by frame
/// through borrowed [`FrameInput`] views.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStream {
    /// The frames, in arrival order.
    pub frames: FrameTable,
}

impl OnlineStream {
    /// An exactly-periodic fault-free worst-case stream: frame `i`
    /// arrives at `i · arrival_factor · span`, every job runs its WCET.
    /// `arrival_factor < 1` models overload (frames arrive faster than
    /// the hyperperiod). The arrivals are stored as that progression,
    /// not one per frame, and the actuals as one copy of the WCETs, not
    /// one per frame.
    pub fn periodic(dag: &PeriodicDag, n_frames: usize, arrival_factor: f64, f_max: f64) -> Self {
        let span = dag.hyperperiod_cycles as f64 / f_max;
        let weights = dag.graph.weights();
        OnlineStream {
            frames: FrameTable {
                arrival_s: ArrivalColumn::Progression {
                    n: n_frames,
                    factor: arrival_factor,
                    span,
                },
                actual: Column::wcet(weights, n_frames),
                jobs: weights.len(),
                faults: Faults::default(),
            },
        }
    }

    /// A randomized stream: per-frame actual cycles drawn uniformly in
    /// `[lo, hi] × WCET` and, when `intensity` is given, independent
    /// random faults per frame — the plan [`FaultPlan::random`] draws
    /// from the frame's seed (times within the frame span).
    /// `n_procs` must match the plan the stream will run against.
    /// Frame `i` arrives at `i · arrival_factor · span`, stored as that
    /// progression, as in [`OnlineStream::periodic`].
    ///
    /// Neither actuals nor faults are stored. The stream keeps a copy of
    /// the WCETs, `lo`, `hi` and `seed`, and, with faults, the
    /// intensity, `n_procs` and the span: every read of frame `i` draws
    /// its actuals afresh, as [`crate::actual_cycles`] does with frame
    /// `i`'s seed, and its faults as [`FaultPlan::random`] does, so each
    /// read gives the same bits. The stream owns `8·N` heap bytes for
    /// `N` jobs, with or without faults, however many frames it holds.
    ///
    /// # Panics
    ///
    /// Unless `0 < lo ≤ hi ≤ 1` and, when `intensity` is given, its
    /// `overrun_prob` and `dvs_fault_prob` lie in `[0, 1]`; checked
    /// when the stream is built, for any number of frames.
    #[allow(clippy::too_many_arguments)]
    pub fn synthesize(
        dag: &PeriodicDag,
        n_procs: usize,
        n_frames: usize,
        arrival_factor: f64,
        lo: f64,
        hi: f64,
        intensity: Option<&FaultIntensity>,
        f_max: f64,
        seed: u64,
    ) -> Self {
        check_fractions(lo, hi);
        let span = dag.hyperperiod_cycles as f64 / f_max;
        let faults = intensity.map_or_else(Faults::default, |fi| {
            let spec = FaultSpec {
                intensity: *fi,
                n_procs,
                deadline_s: span,
            };
            spec.check();
            Faults::Derived(FaultRecipe { spec, seed })
        });
        let weights = dag.graph.weights();
        OnlineStream {
            frames: FrameTable {
                arrival_s: ArrivalColumn::Progression {
                    n: n_frames,
                    factor: arrival_factor,
                    span,
                },
                actual: Column::drawn(weights, n_frames, lo, hi, seed),
                jobs: weights.len(),
                faults,
            },
        }
    }
}

/// What admission control decided for one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionVerdict {
    /// The platform was free: the frame started at its arrival.
    Admitted {
        /// Absolute start \[s\] (== arrival).
        start_s: f64,
    },
    /// The platform was busy but the backlog had room: the frame
    /// started late. Its deadlines stay anchored at arrival.
    Deferred {
        /// Absolute start \[s\].
        start_s: f64,
        /// How long it waited \[s\].
        delay_s: f64,
    },
    /// The backlog was full: the frame was dropped, executing nothing
    /// and consuming nothing.
    Shed {
        /// Frames in flight or waiting at the arrival.
        backlog: usize,
    },
}

impl AdmissionVerdict {
    /// The absolute start time, `None` for a shed frame.
    pub fn start_s(&self) -> Option<f64> {
        match self {
            AdmissionVerdict::Admitted { start_s } | AdmissionVerdict::Deferred { start_s, .. } => {
                Some(*start_s)
            }
            AdmissionVerdict::Shed { .. } => None,
        }
    }
}

/// The full account of one frame.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Index in the input stream.
    pub frame: usize,
    /// What admission decided.
    pub verdict: AdmissionVerdict,
    /// End of this frame's billing window \[s\], absolute (`0` for a
    /// shed frame).
    pub window_end_s: f64,
    /// Deadline verdict (`None` for a shed frame — its jobs never ran;
    /// shedding is the *explicit* loss, not a silent one).
    pub outcome: Option<RunOutcome>,
    /// Completed execution per job, times relative to the frame start.
    pub tasks: Vec<Option<ExecRecord>>,
    /// Partial executions lost to a fail-stop, frame-relative.
    pub aborted: Vec<ExecRecord>,
    /// Faults that fired, in trace order.
    pub injected: Vec<InjectedEvent>,
    /// Recovery actions taken, in trace order.
    pub recoveries: Vec<RecoveryAction>,
    /// Energy billed to this frame's window \[J\].
    pub energy_j: f64,
    /// Completion of the last finished job, relative to the frame
    /// start \[s\].
    pub makespan_s: f64,
    /// Suffix re-solves this frame performed (reclaim + fail-stop).
    pub resolves: u64,
    /// Candidate levels those re-solves evaluated.
    pub resolve_steps: u64,
    /// Dispatches stretched *below* the plan base level (reclamation).
    pub stretched: usize,
    /// The frame budget ran out: reclamation fell back to
    /// window-stretch dispatch only.
    pub degraded: bool,
    /// Runtime level switches taken.
    pub dvs_switches: usize,
}

/// The full account of an online run.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Energy over every billing window (outside them the platform is
    /// off).
    pub energy: EnergyBreakdown,
    /// One record per input frame, in arrival order.
    pub frames: Vec<FrameRecord>,
    /// Frames started at their arrival.
    pub admitted: usize,
    /// Frames started late.
    pub deferred: usize,
    /// Frames dropped by admission control.
    pub shed: usize,
    /// Executed frames whose outcome is a [`RunOutcome::DeadlineMiss`].
    pub frame_misses: usize,
    /// Late (or never-finished) jobs across all executed frames.
    pub jobs_late: usize,
    /// Total suffix re-solves.
    pub resolves: u64,
    /// Total candidate levels evaluated by re-solves.
    pub resolve_steps: u64,
    /// EDF-key memo hits inside the shared
    /// [`SuffixSolver`](lamps_core::suffix::SuffixSolver).
    pub key_cache_hits: u64,
    /// EDF-key memo misses (fresh traversals).
    pub key_cache_misses: u64,
    /// Total runtime level switches.
    pub dvs_switches: usize,
    /// Frames whose budget ran out.
    pub degraded_frames: usize,
    /// The static plan's operating voltage \[V\].
    pub plan_vdd: f64,
    /// The static plan's frequency \[Hz\].
    pub plan_freq: f64,
    /// Processors the plan employs.
    pub n_procs: usize,
    /// One frame span: hyperperiod at `f_max` \[s\].
    pub span_s: f64,
    /// End of the last billing window \[s\] (`0` when nothing ran).
    pub horizon_s: f64,
}

impl OnlineReport {
    /// Total energy \[J\].
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }

    /// Deadline-missing fraction of *executed* frames (shed frames are
    /// an admission loss, reported separately).
    pub fn miss_rate(&self) -> f64 {
        let executed = self.admitted + self.deferred;
        if executed == 0 {
            0.0
        } else {
            self.frame_misses as f64 / executed as f64
        }
    }

    /// Fraction of all frames dropped by admission control.
    pub fn shed_rate(&self) -> f64 {
        if self.frames.is_empty() {
            0.0
        } else {
            self.shed as f64 / self.frames.len() as f64
        }
    }
}

/// Execute a periodic frame stream online. See the module docs for the
/// admission, reclamation, degradation, and billing semantics.
///
/// Rejects malformed inputs with a typed [`SimError`]; once the run
/// starts, no overload/fault/budget combination panics — every frame
/// comes back with a structured record.
pub fn run_online(
    dag: &PeriodicDag,
    stream: &OnlineStream,
    ocfg: &OnlineConfig,
    cfg: &SchedulerConfig,
) -> Result<OnlineReport, SimError> {
    let _span = lamps_obs::span("sim", "run_online");
    let graph = &dag.graph;
    let n = graph.len();
    let f_max = cfg.max_frequency();
    let span_s = dag.hyperperiod_cycles as f64 / f_max;

    // Stream validation: the actuals' stride, arrival order, WCET
    // ceiling.
    let table = &stream.frames;
    if !table.is_empty() && table.jobs() != n {
        return Err(SimError::WrongActualLength {
            expected: n,
            got: table.jobs(),
        });
    }
    // Derived actuals never exceed the WCETs they were derived from, so
    // when those are the graph's, one comparison covers every frame.
    let wcet_bounded = table.actual.wcet_bound() == Some(graph.weights());
    let mut prev_arrival = 0.0f64;
    for (i, fr) in table.iter().enumerate() {
        if !fr.arrival_s.is_finite() || fr.arrival_s < 0.0 {
            return Err(SimError::BadStream(format!(
                "frame {i}: arrival {} must be finite and non-negative",
                fr.arrival_s
            )));
        }
        if fr.arrival_s < prev_arrival {
            return Err(SimError::BadStream(format!(
                "frame {i}: arrival {} before frame {}'s {}",
                fr.arrival_s,
                i - 1,
                prev_arrival
            )));
        }
        prev_arrival = fr.arrival_s;
        if wcet_bounded {
            continue;
        }
        for (t, actual) in graph.tasks().zip(fr.actual) {
            if actual > graph.weight(t) {
                return Err(SimError::ActualExceedsWcet {
                    task: t,
                    actual,
                    wcet: graph.weight(t),
                });
            }
        }
    }

    // The one-time offline frame plan.
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    let sol = solve_with_deadlines(ocfg.strategy, graph, &dv, cfg)
        .map_err(|e| SimError::PlanFailed(e.to_string()))?;
    let n_procs = sol.n_procs;
    let mut checker = FaultChecker::new(graph, n_procs);
    for fr in table.iter() {
        checker.check(&fr.faults)?;
    }

    // Arrival-relative due time per job [s].
    let due_rel: Vec<f64> = (0..n)
        .map(|j| dag.deadlines[j].unwrap_or(dag.hyperperiod_cycles) as f64 / f_max)
        .collect();

    // Start-relative due time per job [s] and the cycles each job
    // executes (actuals widened, overruns applied), refilled for every
    // executed frame.
    let mut due_s = vec![0.0f64; n];
    let mut cycles = Vec::with_capacity(n);

    let mut resolver = Resolver::default();
    let mut frames: Vec<FrameRecord> = Vec::with_capacity(table.len());
    let mut energy = EnergyBreakdown::default();
    // Completion times of in-flight/waiting frames, for the backlog.
    let mut pending_ends: VecDeque<f64> = VecDeque::new();
    let mut busy_until = 0.0f64;

    for (i, fr) in table.iter().enumerate() {
        while pending_ends.front().is_some_and(|&e| e <= fr.arrival_s) {
            pending_ends.pop_front();
        }
        let backlog = pending_ends.len();
        let verdict = if backlog == 0 {
            AdmissionVerdict::Admitted {
                start_s: fr.arrival_s,
            }
        } else if backlog <= ocfg.max_backlog {
            AdmissionVerdict::Deferred {
                start_s: busy_until,
                delay_s: busy_until - fr.arrival_s,
            }
        } else {
            AdmissionVerdict::Shed { backlog }
        };
        match verdict {
            AdmissionVerdict::Admitted { .. } => {
                flight::record(flight::ONLINE_ADMIT, i as u64, backlog as u64, 0);
            }
            AdmissionVerdict::Deferred { delay_s, .. } => {
                let delay_us = (delay_s.max(0.0) * 1e6) as u64;
                flight::record(flight::ONLINE_DEFER, i as u64, backlog as u64, delay_us);
            }
            AdmissionVerdict::Shed { .. } => {
                flight::record(flight::ONLINE_SHED, i as u64, backlog as u64, 0);
            }
        }
        let Some(start_s) = verdict.start_s() else {
            frames.push(shed_record(i, verdict, n));
            continue;
        };

        let arrival_offset_s = fr.arrival_s - start_s;
        for (due, d) in due_s.iter_mut().zip(&due_rel) {
            *due = arrival_offset_s + d;
        }
        fr.faults.effective_cycles(graph, fr.actual, &mut cycles);
        let run = run_frame(
            &Frame {
                graph,
                schedule: &sol.schedule,
                plan_level: sol.level,
                n_procs,
                cycles: &cycles,
                faults: fr.faults,
                due_s: &due_s,
                own_due: true,
                horizon_s: arrival_offset_s + span_s,
                policy: ocfg.policy,
                reclaim: ocfg.reclaim,
                budget: &ocfg.frame_budget,
                switch: &ocfg.switch,
                key: i as u64,
            },
            cfg,
            &mut resolver,
        );
        let trace = run.trace;
        busy_until = start_s + trace.makespan_s.max(0.0);
        pending_ends.push_back(busy_until);
        frames.push(FrameRecord {
            frame: i,
            verdict,
            window_end_s: 0.0, // chained below once the next start is known
            outcome: Some(trace.outcome),
            tasks: trace.tasks,
            aborted: trace.aborted,
            injected: trace.injected,
            recoveries: trace.recoveries,
            // Active + switch energy is window-independent; the window's
            // idle bill is added below.
            energy_j: trace.energy.total(),
            makespan_s: trace.makespan_s,
            resolves: run.resolves,
            resolve_steps: run.resolve_steps,
            stretched: run.stretched,
            degraded: run.degraded,
            dvs_switches: trace.dvs_switches,
        });
        energy.add(&trace.energy);
    }

    // Chain the billing windows over executed frames and bill the gaps.
    let executed: Vec<usize> = frames
        .iter()
        .filter(|f| f.verdict.start_s().is_some())
        .map(|f| f.frame)
        .collect();
    for (k, &fi) in executed.iter().enumerate() {
        let input = table.get(fi).expect("executed frames are in the stream");
        let start = frames[fi].verdict.start_s().expect("executed");
        let end = match executed.get(k + 1) {
            Some(&next) => frames[next].verdict.start_s().expect("executed"),
            None => (start + frames[fi].makespan_s).max(input.arrival_s + span_s),
        };
        frames[fi].window_end_s = end;
        let mut idle = EnergyBreakdown::default();
        bill_idle(
            &frames[fi].tasks,
            &frames[fi].aborted,
            input.faults.fail_stop,
            start,
            end,
            n_procs,
            sol.level,
            cfg,
            &mut idle,
        );
        energy.add(&idle);
        frames[fi].energy_j += idle.total();
    }

    let count = |p: fn(&FrameRecord) -> bool| frames.iter().filter(|f| p(f)).count();
    let late_jobs = || {
        frames.iter().filter_map(|f| match &f.outcome {
            Some(RunOutcome::DeadlineMiss { lateness }) => Some(lateness.len()),
            _ => None,
        })
    };
    let report = OnlineReport {
        energy,
        admitted: count(|f| matches!(f.verdict, AdmissionVerdict::Admitted { .. })),
        deferred: count(|f| matches!(f.verdict, AdmissionVerdict::Deferred { .. })),
        shed: count(|f| matches!(f.verdict, AdmissionVerdict::Shed { .. })),
        frame_misses: late_jobs().count(),
        jobs_late: late_jobs().sum(),
        resolves: frames.iter().map(|f| f.resolves).sum(),
        resolve_steps: frames.iter().map(|f| f.resolve_steps).sum(),
        key_cache_hits: resolver.solver.key_cache_hits(),
        key_cache_misses: resolver.solver.key_cache_misses(),
        dvs_switches: frames.iter().map(|f| f.dvs_switches).sum(),
        degraded_frames: count(|f| f.degraded),
        plan_vdd: sol.level.vdd,
        plan_freq: sol.level.freq,
        n_procs,
        span_s,
        horizon_s: frames.iter().map(|f| f.window_end_s).fold(0.0f64, f64::max),
        frames,
    };

    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("sim.online.runs").inc();
        lamps_obs::counter("sim.online.frames").add(report.frames.len() as u64);
        lamps_obs::counter("sim.online.shed").add(report.shed as u64);
        lamps_obs::counter("sim.online.resolves").add(report.resolves);
        lamps_obs::counter("sim.online.frame_misses").add(report.frame_misses as u64);
        lamps_obs::counter("sim.online.degraded_frames").add(report.degraded_frames as u64);
    }
    Ok(report)
}

fn shed_record(i: usize, verdict: AdmissionVerdict, n: usize) -> FrameRecord {
    FrameRecord {
        frame: i,
        verdict,
        window_end_s: 0.0,
        outcome: None,
        tasks: vec![None; n],
        aborted: Vec::new(),
        injected: Vec::new(),
        recoveries: Vec::new(),
        energy_j: 0.0,
        makespan_s: 0.0,
        resolves: 0,
        resolve_steps: 0,
        stretched: 0,
        degraded: false,
        dvs_switches: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{DvsFault, FailStop, FaultIntensity, Overrun};
    use lamps_kpn::PeriodicSet;
    use lamps_sched::ProcId;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    /// A harmonic three-process pipeline over a 62 M-cycle hyperperiod:
    /// ctl runs twice per frame, est and log once. Utilization is high
    /// enough (~0.8) that the plan runs well above the critical level,
    /// leaving DVS headroom for slack reclamation.
    fn demo_dag() -> PeriodicDag {
        let mut s = PeriodicSet::new();
        let ctl = s.add("ctl", 13_000_000, 31_000_000);
        let est = s.add("est", 18_000_000, 62_000_000);
        let log = s.add("log", 6_000_000, 62_000_000);
        s.depends(ctl, est).unwrap();
        s.depends(est, log).unwrap();
        s.to_frame_dag()
    }

    /// A wider frame with parallelism, to exercise multiprocessor plans.
    fn wide_dag() -> PeriodicDag {
        let mut s = PeriodicSet::new();
        let src = s.add("src", 8_000_000, 31_000_000);
        for i in 0..4 {
            let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
            s.depends(src, w).unwrap();
        }
        s.to_frame_dag()
    }

    fn met(f: &FrameRecord) -> bool {
        matches!(f.outcome, Some(RunOutcome::MetDeadline))
    }

    #[test]
    fn no_slack_stream_reproduces_the_static_plan() {
        let dag = demo_dag();
        let cfg = cfg();
        let stream = OnlineStream::periodic(&dag, 4, 1.0, cfg.max_frequency());
        for ocfg in [OnlineConfig::reclaiming(), OnlineConfig::static_plan()] {
            let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
            assert_eq!(r.admitted, 4, "worst-case on-time stream admits all");
            assert_eq!(r.deferred + r.shed, 0);
            assert_eq!(r.resolves, 0, "WCET execution leaves no slack to reclaim");
            assert_eq!(r.dvs_switches, 0);
            for f in &r.frames {
                assert!(met(f), "frame {} missed", f.frame);
                assert_eq!(f.stretched, 0);
                assert!(f.recoveries.is_empty() && f.injected.is_empty());
                for rec in f.tasks.iter().flatten() {
                    assert_eq!(
                        rec.vdd.to_bits(),
                        r.plan_vdd.to_bits(),
                        "job {} must run at the plan level",
                        rec.task
                    );
                }
            }
            // Identical frames bill identically (up to window-chain fp).
            let e0 = r.frames[0].energy_j;
            for f in &r.frames {
                assert!(
                    (f.energy_j - e0).abs() <= e0 * 1e-9,
                    "{} vs {e0}",
                    f.energy_j
                );
            }
        }
        // Reclaim on vs off is byte-identical with zero slack.
        let on = run_online(&dag, &stream, &OnlineConfig::reclaiming(), &cfg).unwrap();
        let off = run_online(&dag, &stream, &OnlineConfig::static_plan(), &cfg).unwrap();
        assert_eq!(on.total_energy().to_bits(), off.total_energy().to_bits());
        for (a, b) in on.frames.iter().zip(&off.frames) {
            assert_eq!(a.tasks, b.tasks);
        }
    }

    #[test]
    fn under_wcet_stream_reclaims_energy() {
        for dag in [demo_dag(), wide_dag()] {
            let cfg = cfg();
            let stream =
                OnlineStream::synthesize(&dag, 1, 6, 1.0, 0.45, 0.7, None, cfg.max_frequency(), 17);
            let on = run_online(&dag, &stream, &OnlineConfig::reclaiming(), &cfg).unwrap();
            let off = run_online(&dag, &stream, &OnlineConfig::static_plan(), &cfg).unwrap();
            assert!(on.resolves > 0, "early completions must trigger re-solves");
            assert!(
                on.total_energy() < off.total_energy(),
                "reclamation must save energy: {} vs {}",
                on.total_energy(),
                off.total_energy()
            );
            assert!(
                on.frames.iter().all(met),
                "reclamation never breaks deadlines"
            );
            assert!(off.frames.iter().all(met));
            assert!(
                on.key_cache_hits > 0,
                "identical frame shapes must hit the key memo"
            );
        }
    }

    #[test]
    fn overload_defers_then_sheds_with_arrival_anchored_misses() {
        let dag = demo_dag();
        let cfg = cfg();
        // Frames arrive at 40% of the hyperperiod: the platform cannot
        // keep up, the backlog fills, and admission starts shedding.
        let stream = OnlineStream::periodic(&dag, 8, 0.4, cfg.max_frequency());
        let ocfg = OnlineConfig {
            max_backlog: 1,
            reclaim: false,
            policy: RecoveryPolicy::Absorb,
            ..OnlineConfig::static_plan()
        };
        let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        assert_eq!(r.admitted + r.deferred + r.shed, 8);
        assert!(r.deferred > 0, "overload must defer: {r:?}");
        assert!(r.shed > 0, "a full backlog must shed: {r:?}");
        assert!(
            r.frame_misses > 0,
            "arrival-anchored deadlines must surface deferral as lateness"
        );
        // Executed frames start in order and windows never overlap.
        let starts: Vec<f64> = r
            .frames
            .iter()
            .filter_map(|f| f.verdict.start_s())
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        let mut prev_end = 0.0f64;
        for f in &r.frames {
            if let Some(s) = f.verdict.start_s() {
                assert!(s >= prev_end - 1e-12, "window overlap at frame {}", f.frame);
                assert!(f.window_end_s >= s);
                prev_end = f.window_end_s;
            } else {
                assert!(f.outcome.is_none());
                assert!(f.tasks.iter().all(|t| t.is_none()));
                assert_eq!(f.energy_j, 0.0, "a shed frame consumes nothing");
            }
        }
        // Misses carry sorted, positive lateness.
        for f in &r.frames {
            if let Some(RunOutcome::DeadlineMiss { lateness }) = &f.outcome {
                assert!(!lateness.is_empty());
                assert!(lateness.windows(2).all(|w| w[0].task.0 < w[1].task.0));
                assert!(lateness.iter().all(|l| l.lateness_s > 0.0));
            }
        }
    }

    #[test]
    fn frame_budget_degrades_to_stretch_only_dispatch() {
        let dag = demo_dag();
        let cfg = cfg();
        let stream =
            OnlineStream::synthesize(&dag, 1, 5, 1.0, 0.45, 0.7, None, cfg.max_frequency(), 23);
        let unlimited = run_online(&dag, &stream, &OnlineConfig::reclaiming(), &cfg).unwrap();
        assert!(unlimited.resolves > 0);

        // A zero budget forbids reclaim re-solves entirely.
        let zero = OnlineConfig {
            frame_budget: SolveBudget::steps(0),
            ..OnlineConfig::reclaiming()
        };
        let rz = run_online(&dag, &stream, &zero, &cfg).unwrap();
        assert_eq!(rz.resolves, 0);
        assert!(
            rz.degraded_frames > 0,
            "an exhausted budget must be flagged"
        );
        assert!(rz.frames.iter().all(met), "degradation must stay safe");

        // A one-step budget caps each frame's sweep at one candidate.
        let one = OnlineConfig {
            frame_budget: SolveBudget::steps(1),
            ..OnlineConfig::reclaiming()
        };
        let r1 = run_online(&dag, &stream, &one, &cfg).unwrap();
        for f in &r1.frames {
            assert!(f.resolve_steps <= 1, "frame {} overspent", f.frame);
        }
        assert!(r1.frames.iter().all(met));

        // A cancelled token cuts reclamation over immediately.
        let token = lamps_core::CancelToken::new();
        token.cancel();
        let cancelled = OnlineConfig {
            frame_budget: SolveBudget::unlimited().with_token(token),
            ..OnlineConfig::reclaiming()
        };
        let rc = run_online(&dag, &stream, &cancelled, &cfg).unwrap();
        assert_eq!(rc.resolves, 0);
        assert!(rc.degraded_frames > 0);
    }

    #[test]
    fn faulty_frames_never_panic_and_reports_are_deterministic() {
        let cfg = cfg();
        for (seed, dag) in [(3u64, demo_dag()), (7, wide_dag())] {
            for intensity in [
                FaultIntensity::mild(),
                FaultIntensity::moderate(),
                FaultIntensity::severe(),
            ] {
                for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
                    for reclaim in [false, true] {
                        let ocfg = OnlineConfig {
                            policy,
                            reclaim,
                            switch: DvsSwitchCost::typical(),
                            ..OnlineConfig::reclaiming()
                        };
                        // n_procs for fault drawing: solve the plan once.
                        let dv =
                            DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
                        let sol =
                            solve_with_deadlines(ocfg.strategy, &dag.graph, &dv, &cfg).unwrap();
                        let stream = OnlineStream::synthesize(
                            &dag,
                            sol.n_procs,
                            4,
                            0.8,
                            0.5,
                            0.9,
                            Some(&intensity),
                            cfg.max_frequency(),
                            seed,
                        );
                        let run = || run_online(&dag, &stream, &ocfg, &cfg).unwrap();
                        let (a, b) = (run(), run());
                        assert!(a.total_energy().is_finite() && a.total_energy() > 0.0);
                        assert_eq!(a.frames.len(), 4);
                        for f in &a.frames {
                            if f.verdict.start_s().is_some() {
                                assert!(f.outcome.is_some());
                                assert!(f.makespan_s.is_finite());
                            }
                        }
                        assert_eq!(a.total_energy().to_bits(), b.total_energy().to_bits());
                        for (fa, fb) in a.frames.iter().zip(&b.frames) {
                            assert_eq!(fa.tasks, fb.tasks);
                            assert_eq!(fa.injected, fb.injected);
                            assert_eq!(fa.recoveries, fb.recoveries);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bad_inputs_rejected_with_typed_errors() {
        let dag = demo_dag();
        let cfg = cfg();
        let ocfg = OnlineConfig::reclaiming();
        let good = OnlineStream::periodic(&dag, 2, 1.0, cfg.max_frequency());
        let arrivals = good.frames.arrival_s().to_vec();
        let actual = good.frames.actual().to_vec();
        let n = dag.graph.len();
        let stream =
            |arrivals: &[f64], jobs: usize, actual: &[u64], faults: Vec<FaultPlan>| OnlineStream {
                frames: FrameTable::from_parts(arrivals.to_vec(), jobs, actual.to_vec(), faults)
                    .unwrap(),
            };
        assert_eq!(stream(&arrivals, n, &actual, vec![]), good);

        let unsorted = stream(&[arrivals[0], -1.0], n, &actual, vec![]);
        assert!(matches!(
            run_online(&dag, &unsorted, &ocfg, &cfg),
            Err(SimError::BadStream(_))
        ));
        let backwards = stream(&[1.0, 0.5], n, &actual, vec![]);
        assert!(matches!(
            run_online(&dag, &backwards, &ocfg, &cfg),
            Err(SimError::BadStream(_))
        ));
        // A short frame is a stream built at the wrong stride.
        let short = stream(&arrivals, n - 1, &actual[..2 * (n - 1)], vec![]);
        assert_eq!(
            run_online(&dag, &short, &ocfg, &cfg).unwrap_err(),
            SimError::WrongActualLength {
                expected: n,
                got: n - 1
            }
        );
        let mut over = actual.clone();
        over[0] += 1;
        let over = stream(&arrivals, n, &over, vec![]);
        assert!(matches!(
            run_online(&dag, &over, &ocfg, &cfg),
            Err(SimError::ActualExceedsWcet { .. })
        ));
        let fail_99 = FaultPlan {
            fail_stop: Some(FailStop {
                proc: lamps_sched::ProcId(99),
                at_s: 0.001,
            }),
            ..FaultPlan::none()
        };
        let bad_fault = stream(&arrivals, n, &actual, vec![fail_99, FaultPlan::none()]);
        assert!(matches!(
            run_online(&dag, &bad_fault, &ocfg, &cfg),
            Err(SimError::BadFaultPlan(_))
        ));
    }

    #[test]
    fn frame_tables_hold_one_stride_per_frame() {
        let dag = wide_dag();
        let f_max = cfg().max_frequency();
        let n = dag.graph.len();
        let clean = OnlineStream::synthesize(&dag, 2, 5, 0.8, 0.5, 0.9, None, f_max, 4);
        let faulty = OnlineStream::synthesize(
            &dag,
            2,
            5,
            0.8,
            0.5,
            0.9,
            Some(&FaultIntensity::severe()),
            f_max,
            4,
        );
        assert_eq!((clean.frames.len(), clean.frames.jobs()), (5, n));
        // Fault plans draw from their own seeds: the actuals match.
        assert_eq!(clean.frames.actual(), faulty.frames.actual());
        let span = dag.hyperperiod_cycles as f64 / f_max;
        for (i, fr) in clean.frames.iter().enumerate() {
            assert_eq!(
                fr.actual.to_vec(),
                clean.frames.actual().to_vec()[i * n..(i + 1) * n]
            );
            assert_eq!(fr.arrival_s, clean.frames.arrival_s().get(i));
            assert!(fr.faults.is_empty());
            // Each frame holds exactly the plan `FaultPlan::random` draws
            // from the frame's seed.
            let fseed = 4u64.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let plan = FaultPlan::random(
                &dag.graph,
                2,
                span,
                &FaultIntensity::severe(),
                fseed ^ 0x5EED,
            );
            assert_eq!(faulty.frames.get(i).unwrap().faults, plan.view());
        }
        assert!(faulty.frames.iter().any(|fr| !fr.faults.is_empty()));
        assert!(clean.frames.get(5).is_none());

        // Shape errors are caught when the table is assembled.
        let arrivals = clean.frames.arrival_s().to_vec();
        let actual = clean.frames.actual().to_vec();
        for (jobs, faults) in [(n + 1, vec![]), (n, vec![FaultPlan::none(); 2])] {
            assert!(matches!(
                FrameTable::from_parts(arrivals.clone(), jobs, actual.clone(), faults),
                Err(SimError::BadStream(_))
            ));
        }
        let rebuilt = FrameTable::from_parts(arrivals, n, actual, vec![]).unwrap();
        assert_eq!(rebuilt, clean.frames);

        // An empty stream runs whatever its stride.
        let cfg = cfg();
        let empty = OnlineStream::default();
        let r = run_online(&dag, &empty, &OnlineConfig::reclaiming(), &cfg).unwrap();
        assert!(r.frames.is_empty());
    }

    /// A varied plan per frame: empty plans between non-empty ones, a
    /// frame whose only fault is a fail-stop, and a frame with every
    /// kind of fault.
    fn mixed_plans() -> Vec<FaultPlan> {
        use crate::faults::DvsFaultKind;
        use lamps_taskgraph::TaskId;
        let overrun = |t: u32, factor: f64| Overrun {
            task: TaskId(t),
            factor,
        };
        vec![
            FaultPlan::none(),
            FaultPlan {
                overruns: vec![overrun(1, 1.25), overrun(4, 1.5)],
                ..FaultPlan::none()
            },
            FaultPlan::none(),
            FaultPlan {
                fail_stop: Some(FailStop {
                    proc: ProcId(1),
                    at_s: 0.01,
                }),
                ..FaultPlan::none()
            },
            FaultPlan {
                overruns: vec![overrun(2, 1.1)],
                fail_stop: Some(FailStop {
                    proc: ProcId(0),
                    at_s: 0.02,
                }),
                dvs: vec![
                    DvsFault {
                        proc: ProcId(0),
                        kind: DvsFaultKind::StuckAtLevel,
                    },
                    DvsFault {
                        proc: ProcId(1),
                        kind: DvsFaultKind::ExtraLatency { extra_s: 2.0e-4 },
                    },
                ],
            },
            FaultPlan::none(),
        ]
    }

    fn assert_frames_read(table: &FrameTable, plans: &[FaultPlan]) {
        assert_eq!(table.len(), plans.len());
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(table.get(i).unwrap().faults, plan.view(), "frame {i}");
        }
    }

    #[test]
    fn fault_tables_round_trip_through_from_parts() {
        let dag = wide_dag();
        let n = dag.graph.len();
        let plans = mixed_plans();
        let f = plans.len();
        let arrivals: Vec<f64> = (0..f).map(|i| i as f64).collect();
        let actual = vec![1u64; f * n];
        let build = |plans: Vec<FaultPlan>| {
            FrameTable::from_parts(arrivals.clone(), n, actual.clone(), plans)
        };
        let table = build(plans.clone()).unwrap();
        assert_frames_read(&table, &plans);

        // A wrong plan count is a shape error.
        for count in [1, f - 1, f + 1] {
            let plans = plans.iter().cycle().take(count).cloned().collect();
            assert!(matches!(build(plans), Err(SimError::BadStream(_))));
        }
    }

    /// A built stream derives its arrivals; a table assembled from the
    /// same values stores them. The two read the same bits and compare
    /// equal, and a differing arrival breaks the equality either way.
    #[test]
    fn derived_arrivals_equal_explicit_ones() {
        let dag = wide_dag();
        let f_max = cfg().max_frequency();
        let n = dag.graph.len();
        let span = dag.hyperperiod_cycles as f64 / f_max;
        for built in [
            OnlineStream::synthesize(&dag, 2, 7, 0.85, 0.5, 0.9, None, f_max, 4).frames,
            OnlineStream::periodic(&dag, 7, 0.85, f_max).frames,
        ] {
            assert!(matches!(built.arrival_s, ArrivalColumn::Progression { .. }));
            let arrivals = built.arrival_s().to_vec();
            for (i, (a, fr)) in arrivals.iter().zip(built.iter()).enumerate() {
                let want = i as f64 * 0.85 * span;
                assert_eq!(a.to_bits(), want.to_bits(), "arrival {i}");
                assert_eq!(fr.arrival_s.to_bits(), want.to_bits(), "frame {i}");
            }
            let explicit =
                FrameTable::from_parts(arrivals.clone(), n, built.actual().to_vec(), vec![])
                    .unwrap();
            assert!(matches!(explicit.arrival_s, ArrivalColumn::Explicit(_)));
            assert_eq!(explicit.arrival_s(), built.arrival_s());
            assert_eq!(explicit, built);
            let mut off = arrivals;
            off[3] += 1e-9;
            let off = FrameTable::from_parts(off, n, built.actual().to_vec(), vec![]).unwrap();
            assert_ne!(off, built);
            assert_ne!(built, off);
        }
    }

    /// No processor value is reserved: a fail-stop on `ProcId(u32::MAX)`
    /// reads back from a table built by `from_parts`.
    #[test]
    fn every_proc_id_round_trips_through_the_fail_stop_column() {
        let dag = wide_dag();
        let n = dag.graph.len();
        let f = 70;
        let arrivals: Vec<f64> = (0..f).map(|i| i as f64).collect();
        let actual = vec![1u64; f * n];
        let fail = |proc: u32, at_s: f64| FaultPlan {
            fail_stop: Some(FailStop {
                proc: ProcId(proc),
                at_s,
            }),
            ..FaultPlan::none()
        };
        let mut plans = vec![FaultPlan::none(); f];
        plans[0] = fail(u32::MAX, 0.25);
        plans[64] = fail(0, 0.0);
        plans[69] = fail(u32::MAX - 1, f64::MAX);
        let parts = FrameTable::from_parts(arrivals, n, actual, plans.clone()).unwrap();
        assert_frames_read(&parts, &plans);
    }

    /// One above `u32::MAX`: the smallest actual that needs 64 bits.
    const BIG: u64 = u32::MAX as u64 + 1;

    #[test]
    fn wide_actuals_round_trip_through_from_parts() {
        let dag = wide_dag();
        let n = dag.graph.len();
        let f_max = cfg().max_frequency();
        let clean = OnlineStream::synthesize(&dag, 2, 4, 0.8, 0.5, 0.9, None, f_max, 4).frames;
        assert!(matches!(clean.actual, Column::Derived(_)));
        let mut actual = clean.actual().to_vec();
        actual[n + 2] = BIG + 12_345;
        let wide =
            FrameTable::from_parts(clean.arrival_s().to_vec(), n, actual.clone(), vec![]).unwrap();
        assert!(matches!(wide.actual, Column::Stored(_)));
        assert_eq!(wide.actual().to_vec(), actual);
        for (i, fr) in wide.iter().enumerate() {
            assert_eq!(fr.actual.len(), n);
            for j in 0..n {
                assert_eq!(fr.actual.get(j), actual[i * n + j], "frame {i} job {j}");
            }
        }
        assert_ne!(wide, clean);
    }

    /// A built stream's derived actuals read the same through `get` as
    /// through iteration, on the whole table and on every frame.
    #[test]
    fn derived_actuals_get_what_iteration_reads() {
        let dag = wide_dag();
        let f_max = cfg().max_frequency();
        for built in [
            OnlineStream::synthesize(&dag, 2, 4, 0.8, 0.5, 0.9, None, f_max, 4).frames,
            OnlineStream::periodic(&dag, 4, 0.8, f_max).frames,
        ] {
            let mut views = vec![built.actual()];
            views.extend(built.iter().map(|fr| fr.actual));
            for v in views {
                for j in 0..v.len() {
                    assert_eq!(Some(v.get(j)), v.iter().nth(j), "value {j}");
                }
            }
        }
    }

    /// A derived table equals its own `from_parts` copy, whether or not
    /// its values fit in `u32`, and a copy with one value changed does
    /// not.
    #[test]
    fn derived_tables_equal_their_stored_copies() {
        let f_max = cfg().max_frequency();
        let mut big = PeriodicSet::new();
        let src = big.add("src", 1_000_000_000, 8_000_000_000);
        let job = big.add("big", 5_000_000_000, 8_000_000_000);
        big.depends(src, job).unwrap();
        let (narrow, wide) = (wide_dag(), big.to_frame_dag());
        let rebuild = |t: &FrameTable, actual: Vec<u64>| {
            FrameTable::from_parts(t.arrival_s().to_vec(), t.jobs(), actual, vec![]).unwrap()
        };
        for (dag, above_u32) in [(&narrow, false), (&wide, true)] {
            for built in [
                OnlineStream::synthesize(dag, 2, 5, 0.8, 0.9, 1.0, None, f_max, 4).frames,
                OnlineStream::periodic(dag, 5, 0.8, f_max).frames,
            ] {
                assert!(matches!(built.actual, Column::Derived(_)));
                let mut actual = built.actual().to_vec();
                assert_eq!(actual.iter().any(|&a| a > u64::from(u32::MAX)), above_u32);
                let copy = rebuild(&built, actual.clone());
                assert!(matches!(copy.actual, Column::Stored(_)));
                assert_eq!(copy, built);
                assert_eq!(built, copy);

                actual[4 * built.jobs()] = 1;
                let edited = rebuild(&built, actual);
                assert_ne!(edited, built);
                assert_ne!(built, edited);
                assert_eq!(edited.get(4).unwrap().actual.get(0), 1);
            }
        }
    }

    /// A derived fault table equals its `from_parts` copy frame by
    /// frame, and `run_online` rejects both alike; a copy with one
    /// overrun factor changed, one DVS fault dropped or one fail-stop
    /// moved does not equal it.
    #[test]
    fn derived_faults_equal_their_stored_copies() {
        let dag = wide_dag();
        let cfg = cfg();
        let f_max = cfg.max_frequency();
        let severe = FaultIntensity::severe();
        let built =
            OnlineStream::synthesize(&dag, 3, 9, 0.8, 0.6, 1.0, Some(&severe), f_max, 7).frames;
        assert!(matches!(built.faults, Faults::Derived(_)));
        let plans: Vec<FaultPlan> = built.iter().map(|fr| fr.faults.to_plan()).collect();
        let copy_of = |plans: Vec<FaultPlan>| {
            let (arrivals, actual) = (built.arrival_s().to_vec(), built.actual().to_vec());
            FrameTable::from_parts(arrivals, built.jobs(), actual, plans).unwrap()
        };
        let copy = copy_of(plans.clone());
        assert!(matches!(copy.faults, Faults::Stored(_)));
        assert_eq!(copy, built);
        assert_eq!(built, copy);
        for (i, (a, b)) in built.iter().zip(copy.iter()).enumerate() {
            assert_eq!(a.faults, b.faults, "frame {i}");
            assert_eq!(b.faults, a.faults, "frame {i}");
            assert_eq!(a.faults.overruns.len(), plans[i].overruns.len());
            assert_eq!(a.faults.dvs.len(), plans[i].dvs.len());
        }

        let first = |has: fn(&FaultPlan) -> bool| plans.iter().position(has).unwrap();
        let mut factor = plans.clone();
        factor[first(|p| !p.overruns.is_empty())].overruns[0].factor += 0.125;
        let mut dropped = plans.clone();
        dropped[first(|p| !p.dvs.is_empty())].dvs.remove(0);
        let mut moved = plans.clone();
        let fs = moved[first(|p| p.fail_stop.is_some())]
            .fail_stop
            .as_mut()
            .unwrap();
        fs.at_s *= 0.5;
        for (what, edited) in [("factor", factor), ("dropped", dropped), ("moved", moved)] {
            let edited = copy_of(edited);
            assert_ne!(edited, built, "{what}");
            assert_ne!(built, edited, "{what}");
        }

        // Built for more processors than the plan employs, a fail-stop
        // or DVS fault names a processor the run does not have: both
        // forms are rejected with the same error.
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        let plan_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
            .unwrap()
            .n_procs;
        let wide = OnlineStream::synthesize(
            &dag,
            plan_procs + 4,
            9,
            0.8,
            0.6,
            1.0,
            Some(&severe),
            f_max,
            7,
        );
        let stored = OnlineStream {
            frames: copy_of(wide.frames.iter().map(|fr| fr.faults.to_plan()).collect()),
        };
        assert_eq!(stored, wide);
        let ocfg = OnlineConfig::reclaiming();
        let (a, b) = (
            run_online(&dag, &wide, &ocfg, &cfg).unwrap_err(),
            run_online(&dag, &stored, &ocfg, &cfg).unwrap_err(),
        );
        assert!(matches!(a, SimError::BadFaultPlan(_)), "{a:?}");
        assert_eq!(a.to_string(), b.to_string());
    }

    /// The draws happen on read, so `synthesize` checks the intensity's
    /// probabilities when it builds the stream, for any frame count.
    #[test]
    fn probabilities_outside_the_unit_interval_panic_in_synthesize() {
        let dag = wide_dag();
        let f_max = cfg().max_frequency();
        let moderate = FaultIntensity::moderate();
        let bad = [
            FaultIntensity {
                overrun_prob: 1.5,
                ..moderate
            },
            FaultIntensity {
                overrun_prob: f64::NAN,
                ..moderate
            },
            FaultIntensity {
                dvs_fault_prob: -0.25,
                ..moderate
            },
        ];
        for frames in [0, 3] {
            for intensity in &bad {
                let built = std::panic::catch_unwind(|| {
                    OnlineStream::synthesize(
                        &dag,
                        2,
                        frames,
                        1.0,
                        0.5,
                        0.9,
                        Some(intensity),
                        f_max,
                        1,
                    )
                });
                let message = built.expect_err("an out-of-range probability must panic");
                let message = message.downcast_ref::<String>().unwrap();
                assert!(message.contains("outside [0, 1]"), "{message}");
            }
            let edges = FaultIntensity {
                overrun_prob: 1.0,
                dvs_fault_prob: 0.0,
                ..moderate
            };
            OnlineStream::synthesize(&dag, 2, frames, 1.0, 0.5, 0.9, Some(&edges), f_max, 1);
        }
    }

    /// A derived stream built for one graph still meets the per-frame
    /// WCET check on a graph with a smaller WCET.
    #[test]
    fn derived_actuals_above_a_smaller_wcet_are_rejected() {
        let cfg = cfg();
        let f_max = cfg.max_frequency();
        let mut small = PeriodicSet::new();
        let ctl = small.add("ctl", 13_000_000, 31_000_000);
        let est = small.add("est", 9_000_000, 62_000_000);
        let log = small.add("log", 6_000_000, 62_000_000);
        small.depends(ctl, est).unwrap();
        small.depends(est, log).unwrap();
        let small = small.to_frame_dag();
        let dag = demo_dag();
        assert_eq!(small.graph.len(), dag.graph.len());
        for stream in [
            OnlineStream::synthesize(&dag, 1, 3, 1.0, 0.9, 1.0, None, f_max, 5),
            OnlineStream::periodic(&dag, 3, 1.0, f_max),
        ] {
            for ocfg in [OnlineConfig::reclaiming(), OnlineConfig::static_plan()] {
                assert!(run_online(&dag, &stream, &ocfg, &cfg).is_ok());
                assert!(matches!(
                    run_online(&small, &stream, &ocfg, &cfg),
                    Err(SimError::ActualExceedsWcet {
                        wcet: 9_000_000,
                        ..
                    })
                ));
            }
        }
    }

    /// A table whose frames carry no fault stores no plans, and reads
    /// like the fault-free table whichever way it was built, so it
    /// equals it.
    #[test]
    fn fault_free_tables_are_canonical() {
        let dag = wide_dag();
        let f_max = cfg().max_frequency();
        let clean = OnlineStream::synthesize(&dag, 2, 5, 0.8, 0.5, 0.9, None, f_max, 4).frames;
        let arrivals = clean.arrival_s().to_vec();
        let actual = clean.actual().to_vec();
        let parts = |faults| {
            FrameTable::from_parts(arrivals.clone(), clean.jobs(), actual.clone(), faults).unwrap()
        };
        let empty_plans = parts(vec![FaultPlan::none(); 5]);
        assert!(matches!(&empty_plans.faults, Faults::Stored(p) if p.is_empty()));
        assert_eq!(empty_plans, clean);
        assert_eq!(parts(vec![]), clean);
        assert_ne!(parts(mixed_plans()[..5].to_vec()), clean);

        // An intensity that draws nothing reads as the fault-free
        // table: equality is by value.
        let mild = FaultIntensity {
            overrun_prob: 0.0,
            ..FaultIntensity::mild()
        };
        let drawn = OnlineStream::synthesize(&dag, 2, 5, 0.8, 0.5, 0.9, Some(&mild), f_max, 4);
        assert_eq!(drawn.frames, clean);
    }

    /// Serializes the tests that toggle the process-wide flight recorder.
    static FLIGHT_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Run `f` with the flight recorder on; return its result and the
    /// events this thread journaled meanwhile.
    fn journaled<T>(f: impl FnOnce() -> T) -> (T, Vec<flight::FlightEvent>) {
        const MARKER: &str = "test.marker";
        lamps_obs::enable_flight();
        flight::record(MARKER, 0, 0, 0);
        let out = f();
        lamps_obs::disable_flight();
        let events = flight::snapshot().events;
        let at = events
            .iter()
            .rposition(|e| e.kind == MARKER)
            .expect("marker journaled");
        let tid = events[at].tid;
        let mine = events[at + 1..]
            .iter()
            .filter(|e| e.tid == tid)
            .copied()
            .collect();
        (out, mine)
    }

    fn payloads(events: &[flight::FlightEvent], kind: &str) -> Vec<(u64, u64, u64)> {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.key, e.a, e.b))
            .collect()
    }

    /// The flight recorder is pure observation: a run with the journal
    /// enabled must produce a bitwise-identical report (Debug output
    /// round-trips every f64 to a unique shortest string, so string
    /// equality here is bit equality) for a reclaiming stream, a faulty
    /// stream and a fault run, while actually journaling the admission
    /// and reclamation events.
    #[test]
    fn flight_recorder_never_perturbs_the_report() {
        let _lock = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let cfg = cfg();
        let f_max = cfg.max_frequency();
        let both = |run: &dyn Fn() -> String| {
            lamps_obs::disable_flight();
            let off = run();
            let (on, events) = journaled(run);
            assert_eq!(off, on);
            events
        };

        // Under-WCET actuals so the reclaim/re-solve paths really run.
        let dag = demo_dag();
        let stream = OnlineStream::synthesize(&dag, 1, 6, 1.0, 0.45, 0.7, None, f_max, 17);
        let ocfg = OnlineConfig::reclaiming();
        let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        assert!(r.resolves > 0, "stream must exercise the re-solve path");
        let events = both(&|| format!("{:?}", run_online(&dag, &stream, &ocfg, &cfg)));
        assert!(!payloads(&events, flight::ONLINE_ADMIT).is_empty());
        // Reclaim: a = candidate levels evaluated, b = feasible.
        let reclaims = payloads(&events, flight::ONLINE_RECLAIM);
        assert_eq!(reclaims.len() as u64, r.resolves);
        assert_eq!(reclaims.iter().map(|e| e.1).sum::<u64>(), r.resolve_steps);
        assert!(reclaims.iter().all(|e| e.2 <= 1));

        let wide = wide_dag();
        let dv = DeadlineVector::from_kpn(wide.deadlines.clone(), wide.hyperperiod_cycles);
        let sol = solve_with_deadlines(Strategy::LampsPs, &wide.graph, &dv, &cfg).unwrap();
        let severe = FaultIntensity::severe();
        let faulty = OnlineStream::synthesize(
            &wide,
            sol.n_procs,
            4,
            0.8,
            0.5,
            0.9,
            Some(&severe),
            f_max,
            7,
        );
        let events = both(&|| format!("{:?}", run_online(&wide, &faulty, &ocfg, &cfg)));
        assert!(!payloads(&events, flight::ONLINE_FAULT).is_empty());

        let g = wide.graph.clone();
        let d = wide.hyperperiod_cycles as f64 / f_max;
        let sol = lamps_core::solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
        let plan = FaultPlan::random(&g, sol.n_procs, d, &severe, 11);
        let run = || {
            let r = crate::recovery::run_with_faults(
                &g,
                &sol,
                g.weights(),
                &plan,
                d,
                RecoveryPolicy::Boost,
                &cfg,
                &DvsSwitchCost::typical(),
            );
            format!("{r:?}")
        };
        let events = both(&run);
        assert!(!events.is_empty(), "a severe fault run journals its ladder");
    }

    /// One frame with a fail-stop and an overrun takes every ladder rung;
    /// its events carry the payloads `lamps_obs::flight` documents.
    #[test]
    fn flight_events_carry_the_documented_payloads() {
        let _lock = FLIGHT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dag = wide_dag();
        let cfg = cfg();
        let f_max = cfg.max_frequency();
        let span = dag.hyperperiod_cycles as f64 / f_max;
        let drawn = OnlineStream::synthesize(&dag, 2, 3, 1.0, 0.8, 1.0, None, f_max, 3).frames;
        let faults = FaultPlan {
            fail_stop: Some(FailStop {
                proc: lamps_sched::ProcId(0),
                at_s: 0.25 * span,
            }),
            overruns: dag
                .graph
                .tasks()
                .filter(|t| t.index() % 3 == 0)
                .map(|task| Overrun { task, factor: 1.2 })
                .collect(),
            ..FaultPlan::none()
        };
        let stream = OnlineStream {
            frames: FrameTable::from_parts(
                drawn.arrival_s().to_vec(),
                drawn.jobs(),
                drawn.actual().to_vec(),
                vec![FaultPlan::none(), faults, FaultPlan::none()],
            )
            .unwrap(),
        };
        let ocfg = OnlineConfig {
            reclaim: false,
            ..OnlineConfig::reclaiming()
        };
        let (r, events) = journaled(|| run_online(&dag, &stream, &ocfg, &cfg).unwrap());
        assert_eq!(r.n_procs, 2);
        let rungs: Vec<u64> = r.frames[1]
            .recoveries
            .iter()
            .map(|a| match a {
                RecoveryAction::Rescheduled { .. } => 0,
                RecoveryAction::BaseLevelRaised { .. } => 1,
                RecoveryAction::TaskBoosted { .. } => 2,
            })
            .collect();
        assert_eq!(rungs, [2, 0, 1], "the frame must take every rung");

        // Admission: key = frame, a = backlog, b = delay µs (defer only).
        for (key, a, b) in payloads(&events, flight::ONLINE_ADMIT) {
            assert!(matches!(
                r.frames[key as usize].verdict,
                AdmissionVerdict::Admitted { .. }
            ));
            assert_eq!((a, b), (0, 0));
        }
        for (key, a, b) in payloads(&events, flight::ONLINE_DEFER) {
            let AdmissionVerdict::Deferred { delay_s, .. } = r.frames[key as usize].verdict else {
                panic!("frame {key} journaled a deferral");
            };
            assert!(a >= 1);
            assert_eq!(b, (delay_s * 1e6) as u64);
        }
        // Fail-stop re-plan: a = candidate levels, b = feasible.
        let resolves = payloads(&events, flight::ONLINE_RESOLVE);
        assert_eq!(resolves.len(), 1);
        assert_eq!(resolves[0].0, 1);
        assert_eq!(resolves[0].1, r.frames[1].resolve_steps);
        assert!(resolves[0].2 <= 1);
        // Ladder: a = rung; b = tasks migrated, failed processor, or
        // boosted task.
        let want: Vec<(u64, u64, u64)> = r
            .frames
            .iter()
            .flat_map(|f| {
                let failed = stream.frames.get(f.frame).unwrap().faults.fail_stop;
                let failed = failed.map(|fs| fs.proc.0);
                f.recoveries.iter().map(move |a| match a {
                    RecoveryAction::Rescheduled { migrated, .. } => {
                        (f.frame as u64, 0, *migrated as u64)
                    }
                    RecoveryAction::BaseLevelRaised { .. } => {
                        (f.frame as u64, 1, u64::from(failed.expect("a fail-stop")))
                    }
                    RecoveryAction::TaskBoosted { task, .. } => (f.frame as u64, 2, task.0 as u64),
                })
            })
            .collect();
        assert_eq!(payloads(&events, flight::ONLINE_FAULT), want);
        // Miss: a = late jobs.
        let misses: Vec<(u64, u64, u64)> = r
            .frames
            .iter()
            .filter_map(|f| match &f.outcome {
                Some(RunOutcome::DeadlineMiss { lateness }) => {
                    Some((f.frame as u64, lateness.len() as u64, 0))
                }
                _ => None,
            })
            .collect();
        assert!(!misses.is_empty());
        assert_eq!(payloads(&events, flight::ONLINE_MISS), misses);
    }
}
