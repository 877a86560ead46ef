//! Independent re-checking of fault-tolerant runtime traces.
//!
//! [`check_run`] plays the same role for [`lamps_sim::FaultyRunReport`]
//! that [`crate::validator::check_solution`] plays for static
//! solutions: it trusts nothing but the per-task execution records, the
//! graph, the fault plan, and the raw platform parameters, and
//! re-derives everything else — precedence, per-processor exclusivity,
//! fail-stop containment, level legality, the deadline verdict, and a
//! full energy re-bill under the runner's documented conventions
//! (executed cycles at the level they ran at, gaps at the *plan* level
//! with the float break-even predicate, a dead processor billed only to
//! its fail time, survivors to `max(deadline, makespan)`).
//!
//! [`check_online`] does the same for [`lamps_sim::OnlineReport`] and
//! adds the cross-frame invariants (admission, window chaining, shed
//! frames, counters). Both runtimes execute frames on one executor, so
//! both checkers share one structural frame check and one window
//! re-biller: a fault run is a single frame starting at 0 whose tasks
//! are all due at the deadline.

use crate::validator::{RebilledEnergy, DEADLINE_REL_EPS, ENERGY_REL_TOL};
use lamps_core::{SchedulerConfig, Solution};
use lamps_energy::EnergyBreakdown;
use lamps_kpn::PeriodicDag;
use lamps_power::OperatingPoint;
use lamps_sched::ProcId;
use lamps_sim::{
    AdmissionVerdict, DvsSwitchCost, ExecRecord, FaultPlan, FaultyRunReport, FrameInput,
    OnlineConfig, OnlineReport, OnlineStream, RunOutcome,
};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::collections::VecDeque;

/// Absolute tolerance for comparing trace timestamps \[s\]. Timestamps
/// come out of exact `cycles / freq` arithmetic, so real divergence is
/// a bug, not rounding.
const TIME_ABS_TOL: f64 = 1e-9;

/// One independently detected runtime-trace violation.
#[derive(Debug, Clone, PartialEq)]
pub enum RunViolation {
    /// The report's task table is not graph-sized.
    WrongTaskCount {
        /// Entries in the report.
        reported: usize,
        /// Tasks in the graph.
        graph: usize,
    },
    /// A record finishes before it starts, or carries a non-finite time.
    BadInterval {
        /// The offending task.
        task: TaskId,
        /// Recorded start \[s\].
        start_s: f64,
        /// Recorded finish \[s\].
        finish_s: f64,
    },
    /// A completed task executed a different cycle count than the fault
    /// plan mandates.
    WrongCycles {
        /// The task.
        task: TaskId,
        /// Cycles the record claims.
        recorded: u64,
        /// Cycles the plan's effective workload mandates.
        expected: u64,
    },
    /// A task started before a predecessor finished (or ran although a
    /// predecessor never completed).
    Precedence {
        /// The dependent task.
        task: TaskId,
        /// The predecessor.
        pred: TaskId,
    },
    /// Two executions overlap on one processor.
    Overlap {
        /// The processor.
        proc: ProcId,
        /// The earlier-starting task.
        first: TaskId,
        /// The overlapping task.
        second: TaskId,
    },
    /// Execution recorded on a failed processor after its fail time.
    DeadProcExecution {
        /// The dead processor.
        proc: ProcId,
        /// The task that ran on it.
        task: TaskId,
        /// When the execution ended \[s\].
        finish_s: f64,
        /// When the processor failed \[s\].
        fail_at_s: f64,
    },
    /// A record's voltage is not a platform level.
    IllegalLevel {
        /// The task that ran at it.
        task: TaskId,
        /// The off-grid voltage \[V\].
        vdd: f64,
    },
    /// The reported outcome disagrees with the records.
    OutcomeMismatch {
        /// What disagrees.
        detail: String,
    },
    /// The reported makespan is not the latest recorded finish.
    MakespanMismatch {
        /// Reported \[s\].
        reported: f64,
        /// Recomputed from the records \[s\].
        recomputed: f64,
    },
    /// The reported switch count disagrees with the per-processor
    /// voltage walk of the records.
    SwitchCountMismatch {
        /// Switches the report claims.
        reported: usize,
        /// Switches reconstructed from the trace.
        recomputed: usize,
    },
    /// A re-billed energy component diverges beyond
    /// [`ENERGY_REL_TOL`].
    EnergyMismatch {
        /// Which component.
        field: &'static str,
        /// The report's figure \[J\].
        reported: f64,
        /// The independent re-bill \[J\].
        recomputed: f64,
    },
    /// The number of sleep episodes disagrees with the break-even rule.
    SleepEpisodeMismatch {
        /// Episodes the report claims.
        reported: usize,
        /// Episodes the break-even rule mandates.
        recomputed: usize,
    },
    /// An energy component is NaN or infinite.
    NonFiniteEnergy {
        /// Which component.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// A frame or online-trace invariant failed: a record on an
    /// unemployed processor, an aborted record without a fail-stop,
    /// admission ordering, window chaining, shed-frame emptiness,
    /// counter consistency… (a fault run is frame 0).
    Online {
        /// The offending frame (or the first involved one).
        frame: usize,
        /// What went wrong.
        detail: String,
    },
}

impl std::fmt::Display for RunViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunViolation::WrongTaskCount { reported, graph } => {
                write!(f, "report covers {reported} tasks, graph has {graph}")
            }
            RunViolation::BadInterval {
                task,
                start_s,
                finish_s,
            } => write!(f, "{task}: bad interval [{start_s}, {finish_s}]"),
            RunViolation::WrongCycles {
                task,
                recorded,
                expected,
            } => write!(
                f,
                "{task}: executed {recorded} cycles, fault plan mandates {expected}"
            ),
            RunViolation::Precedence { task, pred } => {
                write!(f, "{task} ran before its predecessor {pred} finished")
            }
            RunViolation::Overlap {
                proc,
                first,
                second,
            } => write!(f, "{first} and {second} overlap on {proc}"),
            RunViolation::DeadProcExecution {
                proc,
                task,
                finish_s,
                fail_at_s,
            } => write!(
                f,
                "{task} ran on {proc} until {finish_s} s, after its failure at {fail_at_s} s"
            ),
            RunViolation::IllegalLevel { task, vdd } => {
                write!(f, "{task} ran at off-grid voltage {vdd} V")
            }
            RunViolation::OutcomeMismatch { detail } => {
                write!(f, "outcome disagrees with the records: {detail}")
            }
            RunViolation::MakespanMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "reported makespan {reported} s, records end at {recomputed} s"
            ),
            RunViolation::SwitchCountMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "{reported} DVS switches reported, trace shows {recomputed}"
            ),
            RunViolation::EnergyMismatch {
                field,
                reported,
                recomputed,
            } => write!(
                f,
                "{field}: reported {reported} J, independent re-bill {recomputed} J"
            ),
            RunViolation::SleepEpisodeMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "{reported} sleep episodes reported, break-even rule mandates {recomputed}"
            ),
            RunViolation::NonFiniteEnergy { field, value } => {
                write!(f, "{field} is not finite: {value}")
            }
            RunViolation::Online { frame, detail } => {
                write!(f, "frame {frame}: {detail}")
            }
        }
    }
}

fn rel_close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-30);
    (a - b).abs() <= tol * scale
}

/// Map a recorded voltage back to its platform level's energy per
/// cycle; `None` when the voltage is off-grid.
fn energy_per_cycle(cfg: &SchedulerConfig, vdd: f64) -> Option<f64> {
    cfg.levels
        .points()
        .iter()
        .find(|p| rel_close(p.vdd, vdd, 1e-9))
        .map(|p| p.energy_per_cycle)
}

/// One executed frame: its trace (record times relative to the frame
/// start) and the inputs the trace must conform to.
struct FrameCheck<'a> {
    /// Frame index, for violation messages (0 for a fault run).
    frame: usize,
    tasks: &'a [Option<ExecRecord>],
    aborted: &'a [ExecRecord],
    makespan_s: f64,
    outcome: Option<&'a RunOutcome>,
    dvs_switches: usize,
    actual: &'a [u64],
    faults: &'a FaultPlan,
    /// Due time per task, frame-relative \[s\].
    due_s: &'a [f64],
    n_procs: usize,
    /// Every regulator starts the frame at this voltage \[V\].
    plan_vdd: f64,
}

/// Structural checks of one executed frame: record sanity, fault-mandated
/// cycle counts, level legality, employed processors, precedence,
/// per-processor exclusivity, dead-processor silence, the voltage walk,
/// the makespan, and the deadline verdict. `eff` is scratch space for
/// the fault-mandated cycle counts, so a caller checking many frames
/// reuses one buffer.
fn check_trace(
    graph: &TaskGraph,
    tr: &FrameCheck<'_>,
    eff: &mut Vec<u64>,
    cfg: &SchedulerConfig,
    v: &mut Vec<RunViolation>,
) {
    let n = graph.len();
    let frame = tr.frame;
    if tr.tasks.len() != n {
        v.push(RunViolation::WrongTaskCount {
            reported: tr.tasks.len(),
            graph: n,
        });
        return;
    }
    tr.faults.effective_cycles(graph, tr.actual, eff);
    let eff = &*eff;
    let fail_stop = tr.faults.fail_stop;

    // Per-record sanity. A completed record executed exactly the
    // fault-mandated cycles, an aborted one at most that many, and only
    // on the processor that fail-stopped.
    let completed = tr.tasks.iter().flatten().map(|r| (r, true));
    for (r, done) in completed.chain(tr.aborted.iter().map(|r| (r, false))) {
        let expected = eff[r.task.index()];
        if (done && r.cycles != expected) || r.cycles > expected {
            v.push(RunViolation::WrongCycles {
                task: r.task,
                recorded: r.cycles,
                expected,
            });
        }
        if r.cycles > 0 && energy_per_cycle(cfg, r.vdd).is_none() {
            v.push(RunViolation::IllegalLevel {
                task: r.task,
                vdd: r.vdd,
            });
        }
        if !done && fail_stop.is_none_or(|fs| fs.proc != r.proc) {
            v.push(RunViolation::Online {
                frame,
                detail: format!(
                    "aborted record for {} on {} without a fail-stop there",
                    r.task, r.proc
                ),
            });
        }
    }
    for t in graph.tasks() {
        let Some(r) = &tr.tasks[t.index()] else {
            continue;
        };
        if !r.start_s.is_finite()
            || !r.finish_s.is_finite()
            || r.finish_s < r.start_s
            || r.start_s < -TIME_ABS_TOL
        {
            v.push(RunViolation::BadInterval {
                task: t,
                start_s: r.start_s,
                finish_s: r.finish_s,
            });
        }
        if r.proc.index() >= tr.n_procs {
            v.push(RunViolation::Online {
                frame,
                detail: format!("{} ran on unemployed {}", r.task, r.proc),
            });
        }
        for &p in graph.predecessors(t) {
            match &tr.tasks[p.index()] {
                Some(pr) if r.start_s >= pr.finish_s - TIME_ABS_TOL => {}
                _ => v.push(RunViolation::Precedence { task: t, pred: p }),
            }
        }
    }

    let mut switches = 0usize;
    for pi in 0..tr.n_procs {
        let pid = ProcId(pi as u32);
        let mut on_proc: Vec<&ExecRecord> = tr
            .tasks
            .iter()
            .flatten()
            .chain(tr.aborted)
            .filter(|r| r.proc == pid)
            .collect();
        // Zero-width records (instant zero-weight tasks) sort before the
        // execution that starts at the same instant.
        on_proc.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then(a.finish_s.total_cmp(&b.finish_s))
                .then(a.task.0.cmp(&b.task.0))
        });
        for w in on_proc.windows(2) {
            if w[0].finish_s > w[1].start_s + TIME_ABS_TOL {
                v.push(RunViolation::Overlap {
                    proc: pid,
                    first: w[0].task,
                    second: w[1].task,
                });
            }
        }
        // Fail-stop containment: nothing executes on a dead processor
        // past its fail time.
        if let Some(fs) = fail_stop.filter(|fs| fs.proc == pid) {
            for r in &on_proc {
                if r.finish_s > fs.at_s + TIME_ABS_TOL {
                    v.push(RunViolation::DeadProcExecution {
                        proc: pid,
                        task: r.task,
                        finish_s: r.finish_s,
                        fail_at_s: fs.at_s,
                    });
                }
            }
        }
        // Replay the regulator from the plan level through every
        // execution in start order. Zero-cycle records matter here: an
        // execution aborted inside the settle window still switched.
        let mut current = tr.plan_vdd;
        for r in &on_proc {
            if (r.vdd - current).abs() > 1e-12 {
                switches += 1;
                current = r.vdd;
            }
        }
    }
    if switches != tr.dvs_switches {
        v.push(RunViolation::SwitchCountMismatch {
            reported: tr.dvs_switches,
            recomputed: switches,
        });
    }

    let makespan = tr
        .tasks
        .iter()
        .flatten()
        .map(|r| r.finish_s)
        .fold(0.0f64, f64::max);
    if (makespan - tr.makespan_s).abs() > TIME_ABS_TOL {
        v.push(RunViolation::MakespanMismatch {
            reported: tr.makespan_s,
            recomputed: makespan,
        });
    }

    let Some(outcome) = tr.outcome else {
        v.push(RunViolation::Online {
            frame,
            detail: "an executed frame must carry an outcome".into(),
        });
        return;
    };
    let lateness_of = |t: TaskId| match &tr.tasks[t.index()] {
        Some(r) => r.finish_s - tr.due_s[t.index()],
        None => f64::INFINITY,
    };
    let late: Vec<TaskId> = graph
        .tasks()
        .filter(|&t| match &tr.tasks[t.index()] {
            Some(r) => {
                let due = tr.due_s[t.index()];
                r.finish_s > due + due.abs() * DEADLINE_REL_EPS
            }
            None => true,
        })
        .collect();
    match outcome {
        RunOutcome::MetDeadline if !late.is_empty() => {
            v.push(RunViolation::OutcomeMismatch {
                detail: format!(
                    "frame {frame} claims MetDeadline but {} tasks are late",
                    late.len()
                ),
            });
        }
        RunOutcome::DeadlineMiss { lateness } => {
            let reported: Vec<TaskId> = lateness.iter().map(|l| l.task).collect();
            if reported != late {
                v.push(RunViolation::OutcomeMismatch {
                    detail: format!("frame {frame}: late set {reported:?} vs recomputed {late:?}"),
                });
            }
            for l in lateness {
                let want = lateness_of(l.task);
                let agree = (l.lateness_s.is_infinite() && want.is_infinite())
                    || (l.lateness_s - want).abs() <= TIME_ABS_TOL;
                if !agree {
                    v.push(RunViolation::OutcomeMismatch {
                        detail: format!(
                            "frame {frame}, {}: lateness {} s vs recomputed {} s",
                            l.task, l.lateness_s, want
                        ),
                    });
                }
            }
        }
        _ => {}
    }
}

/// From-scratch re-bill of one frame's window `[start_s, end_s)` into
/// `out`, under the documented conventions and independent of the
/// runtime's code: executed cycles at their recorded levels, gaps per
/// employed processor at the plan level with the float break-even
/// predicate, a processor dead from a fail-stop billed to its fail time.
/// Switch energy is the caller's.
fn rebill_window(
    tr: &FrameCheck<'_>,
    start_s: f64,
    end_s: f64,
    plan: OperatingPoint,
    cfg: &SchedulerConfig,
    out: &mut RebilledEnergy,
) {
    for r in tr.tasks.iter().flatten().chain(tr.aborted) {
        if r.cycles > 0 {
            let epc = energy_per_cycle(cfg, r.vdd).unwrap_or(plan.energy_per_cycle);
            out.active_j += r.cycles as f64 * epc;
        }
    }
    for pi in 0..tr.n_procs {
        let pid = ProcId(pi as u32);
        let mut intervals: Vec<(f64, f64)> = tr
            .tasks
            .iter()
            .flatten()
            .chain(tr.aborted)
            .filter(|r| r.proc == pid)
            .map(|r| (start_s + r.start_s, start_s + r.finish_s))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let p_end = match tr.faults.fail_stop {
            Some(fs) if fs.proc == pid => (start_s + fs.at_s).min(end_s),
            _ => end_s,
        };
        let mut cursor = start_s;
        let mut gaps: Vec<f64> = Vec::new();
        for (s, f) in intervals {
            gaps.push(s - cursor);
            cursor = cursor.max(f);
        }
        gaps.push(p_end - cursor);
        for gap in gaps.into_iter().filter(|&g| g > 0.0) {
            if cfg.sleep.worth_sleeping(plan.idle_power, gap) {
                out.sleep_j += cfg.sleep.sleep_power * gap;
                out.transition_j += cfg.sleep.transition_energy;
                out.sleep_episodes += 1;
            } else {
                out.idle_j += plan.idle_power * gap;
            }
        }
    }
}

/// Flag non-finite components of a reported bill.
fn check_finite(energy: &EnergyBreakdown, v: &mut Vec<RunViolation>) {
    for (field, value) in [
        ("active_j", energy.active_j),
        ("idle_j", energy.idle_j),
        ("sleep_j", energy.sleep_j),
        ("transition_j", energy.transition_j),
    ] {
        if !value.is_finite() {
            v.push(RunViolation::NonFiniteEnergy { field, value });
        }
    }
}

/// Compare a reported bill against the independent re-bill.
fn check_bill(reported: &EnergyBreakdown, re: &RebilledEnergy, v: &mut Vec<RunViolation>) {
    for (field, reported, recomputed) in [
        ("active_j", reported.active_j, re.active_j),
        ("idle_j", reported.idle_j, re.idle_j),
        ("sleep_j", reported.sleep_j, re.sleep_j),
        ("transition_j", reported.transition_j, re.transition_j),
        ("total_j", reported.total(), re.total()),
    ] {
        if !rel_close(reported, recomputed, ENERGY_REL_TOL) {
            v.push(RunViolation::EnergyMismatch {
                field,
                reported,
                recomputed,
            });
        }
    }
    if reported.sleep_episodes != re.sleep_episodes {
        v.push(RunViolation::SleepEpisodeMismatch {
            reported: reported.sleep_episodes,
            recomputed: re.sleep_episodes,
        });
    }
}

/// Independently validate a fault-tolerant run's trace and re-bill its
/// energy. The run is one frame starting at 0 whose every task is due
/// at `deadline_s` and whose bill runs to `max(deadline, makespan)`.
/// Returns every violation found (empty = the trace is sound).
#[allow(clippy::too_many_arguments)]
pub fn check_run(
    graph: &TaskGraph,
    solution: &Solution,
    actual: &[u64],
    faults: &FaultPlan,
    report: &FaultyRunReport,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    switch: &DvsSwitchCost,
) -> Vec<RunViolation> {
    let mut v = Vec::new();
    let frame = FrameCheck {
        frame: 0,
        tasks: &report.tasks,
        aborted: &report.aborted,
        makespan_s: report.makespan_s,
        outcome: Some(&report.outcome),
        dvs_switches: report.dvs_switches,
        actual,
        faults,
        due_s: &vec![deadline_s; graph.len()],
        n_procs: solution.schedule.n_procs(),
        plan_vdd: solution.level.vdd,
    };
    check_trace(graph, &frame, &mut Vec::new(), cfg, &mut v);
    check_finite(&report.energy, &mut v);

    // Only re-bill structurally sound traces; a broken structure already
    // fails and its billing is meaningless.
    if v.is_empty() {
        let mut re = RebilledEnergy::default();
        let end = deadline_s.max(report.makespan_s);
        rebill_window(&frame, 0.0, end, solution.level, cfg, &mut re);
        re.transition_j += report.dvs_switches as f64 * switch.energy_j;
        check_bill(&report.energy, &re, &mut v);
    }
    v
}

/// Independently validate a full online trace against the inputs that
/// produced it.
///
/// Trusting nothing but the per-frame records, the periodic set, the
/// stream, and the raw platform parameters, this re-derives:
///
/// * the **admission chain** — verdicts are replayed from the arrivals
///   and the recorded frame completions (an `Admitted` frame must have
///   found an empty backlog and started at its arrival, a `Deferred` one
///   must start exactly when the platform drained within the backlog
///   cap, a `Shed` one must have found the cap exceeded);
/// * **window chaining** — each executed frame's billing window must end
///   at the next executed frame's start (the last at
///   `max(completion, arrival + span)`), and no execution may spill past
///   its window;
/// * **shed-frame emptiness** — a dropped frame executes nothing and
///   consumes nothing;
/// * **per-frame structure** — intervals, fault-mandated cycle counts,
///   precedence, per-processor exclusivity, dead-processor silence,
///   level legality, and the per-frame voltage walk (each frame's
///   regulators start at the plan level);
/// * **arrival-anchored outcomes** — job `j` of the frame arriving at
///   `a` is due `a + d_j / f_max` regardless of deferral;
/// * the **cross-frame counters** and a full **energy re-bill** under
///   the documented window conventions (executed cycles at their
///   recorded levels, gaps at the plan level with the break-even
///   predicate, a dead processor billed to its fail time, switches into
///   the transition bucket).
///
/// Returns every violation found (empty = the trace is sound).
pub fn check_online(
    dag: &PeriodicDag,
    stream: &OnlineStream,
    ocfg: &OnlineConfig,
    cfg: &SchedulerConfig,
    report: &OnlineReport,
) -> Vec<RunViolation> {
    let mut v = Vec::new();
    let graph = &dag.graph;
    let n = graph.len();
    let f_max = cfg.max_frequency();

    if report.frames.len() != stream.frames.len() {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "report covers {} frames, stream has {}",
                report.frames.len(),
                stream.frames.len()
            ),
        });
        return v;
    }
    if !stream.frames.is_empty() && stream.frames.jobs() != n {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "stream carries {} actuals per frame, the frame DAG has {n} jobs",
                stream.frames.jobs()
            ),
        });
        return v;
    }
    let Some(plan) = cfg
        .levels
        .points()
        .iter()
        .find(|p| rel_close(p.vdd, report.plan_vdd, 1e-9))
        .copied()
    else {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!("plan voltage {} V is off-grid", report.plan_vdd),
        });
        return v;
    };
    if !rel_close(report.plan_freq, plan.freq, 1e-9) {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "plan frequency {} Hz is not the {} V level's {} Hz",
                report.plan_freq, plan.vdd, plan.freq
            ),
        });
    }
    let span = dag.hyperperiod_cycles as f64 / f_max;
    if !rel_close(report.span_s, span, 1e-9) {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "span {} s is not the hyperperiod at f_max ({} s)",
                report.span_s, span
            ),
        });
    }
    let due_rel: Vec<f64> = (0..n)
        .map(|j| dag.deadlines[j].unwrap_or(dag.hyperperiod_cycles) as f64 / f_max)
        .collect();

    // Replay the admission chain from the arrivals and the recorded
    // frame completions.
    let mut pending: VecDeque<f64> = VecDeque::new();
    let mut busy_until = 0.0f64;
    let (mut admitted, mut deferred, mut shed) = (0usize, 0usize, 0usize);
    // The one buffer every pass reads the stream's frames into.
    let mut input = FrameInput::default();
    for (i, fr) in report.frames.iter().enumerate() {
        stream.frames.read(i, &mut input);
        if fr.frame != i {
            v.push(RunViolation::Online {
                frame: i,
                detail: format!("record claims frame index {}", fr.frame),
            });
        }
        while pending.front().is_some_and(|&e| e <= input.arrival_s) {
            pending.pop_front();
        }
        let backlog = pending.len();
        match fr.verdict {
            AdmissionVerdict::Admitted { start_s } => {
                admitted += 1;
                if backlog != 0 {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!("admitted against a backlog of {backlog}"),
                    });
                }
                if (start_s - input.arrival_s).abs() > TIME_ABS_TOL {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!(
                            "admitted start {} s is not the arrival {} s",
                            start_s, input.arrival_s
                        ),
                    });
                }
            }
            AdmissionVerdict::Deferred { start_s, delay_s } => {
                deferred += 1;
                if backlog == 0 || backlog > ocfg.max_backlog {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!("deferred at backlog {backlog} (cap {})", ocfg.max_backlog),
                    });
                }
                if (start_s - busy_until).abs() > TIME_ABS_TOL {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!(
                            "deferred start {start_s} s is not the drain time {busy_until} s"
                        ),
                    });
                }
                if (delay_s - (start_s - input.arrival_s)).abs() > TIME_ABS_TOL {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!(
                            "deferral delay {delay_s} s disagrees with start − arrival"
                        ),
                    });
                }
            }
            AdmissionVerdict::Shed { backlog: b } => {
                shed += 1;
                if backlog <= ocfg.max_backlog {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!(
                            "shed with backlog {backlog} within the cap {}",
                            ocfg.max_backlog
                        ),
                    });
                }
                if b != backlog {
                    v.push(RunViolation::Online {
                        frame: i,
                        detail: format!("shed verdict claims backlog {b}, replay finds {backlog}"),
                    });
                }
            }
        }
        if let Some(start) = fr.verdict.start_s() {
            busy_until = start + fr.makespan_s.max(0.0);
            pending.push_back(busy_until);
        }
    }
    if (admitted, deferred, shed) != (report.admitted, report.deferred, report.shed) {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "admission counters ({}, {}, {}) disagree with the verdicts \
                 ({admitted}, {deferred}, {shed})",
                report.admitted, report.deferred, report.shed
            ),
        });
    }

    // Window chaining and per-frame structure over executed frames.
    let executed: Vec<usize> = report
        .frames
        .iter()
        .enumerate()
        .filter(|(_, f)| f.verdict.start_s().is_some())
        .map(|(i, _)| i)
        .collect();
    // Each window is re-billed as its frame is checked, while the trace
    // is still sound; the bill is compared only if it stays sound.
    let mut re = RebilledEnergy::default();
    let mut eff = Vec::with_capacity(n);
    // Each executed frame's due times, refilled in place.
    let mut due_s = vec![0.0f64; n];
    for (k, &fi) in executed.iter().enumerate() {
        let fr = &report.frames[fi];
        stream.frames.read(fi, &mut input);
        let start = fr.verdict.start_s().expect("executed");
        let expected_end = match executed.get(k + 1) {
            Some(&nx) => report.frames[nx].verdict.start_s().expect("executed"),
            None => (start + fr.makespan_s).max(input.arrival_s + span),
        };
        if (fr.window_end_s - expected_end).abs() > TIME_ABS_TOL {
            v.push(RunViolation::Online {
                frame: fi,
                detail: format!(
                    "window ends at {} s, chaining mandates {} s",
                    fr.window_end_s, expected_end
                ),
            });
        }
        if start + fr.makespan_s > fr.window_end_s + TIME_ABS_TOL {
            v.push(RunViolation::Online {
                frame: fi,
                detail: format!(
                    "execution runs to {} s, past its window end {} s",
                    start + fr.makespan_s,
                    fr.window_end_s
                ),
            });
        }
        if !fr.energy_j.is_finite() || fr.energy_j < 0.0 {
            v.push(RunViolation::Online {
                frame: fi,
                detail: format!(
                    "frame energy {} J must be finite and non-negative",
                    fr.energy_j
                ),
            });
        }
        let offset = input.arrival_s - start;
        for (due, d) in due_s.iter_mut().zip(&due_rel) {
            *due = offset + d;
        }
        let frame = FrameCheck {
            frame: fi,
            tasks: &fr.tasks,
            aborted: &fr.aborted,
            makespan_s: fr.makespan_s,
            outcome: fr.outcome.as_ref(),
            dvs_switches: fr.dvs_switches,
            actual: &input.actual,
            faults: &input.faults,
            due_s: &due_s,
            n_procs: report.n_procs,
            plan_vdd: report.plan_vdd,
        };
        check_trace(graph, &frame, &mut eff, cfg, &mut v);
        if v.is_empty() {
            rebill_window(&frame, start, fr.window_end_s, plan, cfg, &mut re);
        }
    }

    // Shed frames execute nothing and consume nothing.
    for fr in &report.frames {
        if fr.verdict.start_s().is_none() {
            let empty = fr.outcome.is_none()
                && fr.tasks.iter().all(Option::is_none)
                && fr.aborted.is_empty()
                && fr.injected.is_empty()
                && fr.recoveries.is_empty()
                && fr.energy_j == 0.0
                && fr.window_end_s == 0.0
                && fr.makespan_s == 0.0
                && fr.resolves == 0
                && fr.dvs_switches == 0
                && fr.stretched == 0;
            if !empty {
                v.push(RunViolation::Online {
                    frame: fr.frame,
                    detail: "a shed frame must execute nothing and consume nothing".into(),
                });
            }
        }
    }

    // Cross-frame counters.
    let resolves: u64 = report.frames.iter().map(|f| f.resolves).sum();
    let resolve_steps: u64 = report.frames.iter().map(|f| f.resolve_steps).sum();
    let switches: usize = report.frames.iter().map(|f| f.dvs_switches).sum();
    let degraded = report.frames.iter().filter(|f| f.degraded).count();
    let (mut misses, mut late_jobs) = (0usize, 0usize);
    for fr in &report.frames {
        if let Some(RunOutcome::DeadlineMiss { lateness }) = &fr.outcome {
            misses += 1;
            late_jobs += lateness.len();
        }
    }
    if (resolves, resolve_steps) != (report.resolves, report.resolve_steps) {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "re-solve counters ({}, {}) disagree with the frame sums \
                 ({resolves}, {resolve_steps})",
                report.resolves, report.resolve_steps
            ),
        });
    }
    if switches != report.dvs_switches {
        v.push(RunViolation::SwitchCountMismatch {
            reported: report.dvs_switches,
            recomputed: switches,
        });
    }
    if degraded != report.degraded_frames {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "{} degraded frames reported, records flag {degraded}",
                report.degraded_frames
            ),
        });
    }
    if (misses, late_jobs) != (report.frame_misses, report.jobs_late) {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "miss counters ({}, {}) disagree with the outcomes ({misses}, {late_jobs})",
                report.frame_misses, report.jobs_late
            ),
        });
    }
    let horizon = report
        .frames
        .iter()
        .map(|f| f.window_end_s)
        .fold(0.0f64, f64::max);
    if (horizon - report.horizon_s).abs() > TIME_ABS_TOL {
        v.push(RunViolation::Online {
            frame: 0,
            detail: format!(
                "horizon {} s is not the last window end {horizon} s",
                report.horizon_s
            ),
        });
    }

    check_finite(&report.energy, &mut v);

    // Only re-bill structurally sound traces.
    if v.is_empty() {
        re.transition_j += report.dvs_switches as f64 * ocfg.switch.energy_j;
        check_bill(&report.energy, &re, &mut v);
        let frame_sum: f64 = report.frames.iter().map(|f| f.energy_j).sum();
        if !rel_close(frame_sum, report.energy.total(), ENERGY_REL_TOL) {
            v.push(RunViolation::Online {
                frame: 0,
                detail: format!(
                    "per-frame energy sums to {frame_sum} J, total bill is {} J",
                    report.energy.total()
                ),
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve, Strategy};
    use lamps_sim::{
        run_with_faults, workload::actual_cycles, FailStop, FaultIntensity, FrameTable,
        RecoveryPolicy,
    };
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn setup(seed: u64, factor: f64) -> (TaskGraph, Solution, f64) {
        let g = generate(
            &LayeredConfig {
                n_tasks: 30,
                n_layers: 6,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000);
        let d = factor * g.critical_path_cycles() as f64 / cfg().max_frequency();
        let sol = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        (g, sol, d)
    }

    #[test]
    fn clean_faulty_runs_validate() {
        for seed in 0..12u64 {
            let (g, sol, d) = setup(seed % 4 + 1, 1.7);
            let intensity = match seed % 3 {
                0 => FaultIntensity::mild(),
                1 => FaultIntensity::moderate(),
                _ => FaultIntensity::severe(),
            };
            let plan = lamps_sim::FaultPlan::random(&g, sol.n_procs, d, &intensity, seed);
            let actual = actual_cycles(&g, 0.5, 0.9, seed);
            let sw = DvsSwitchCost::typical();
            for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
                let r = run_with_faults(&g, &sol, &actual, &plan, d, policy, &cfg(), &sw).unwrap();
                let v = check_run(&g, &sol, &actual, &plan, &r, d, &cfg(), &sw);
                assert!(v.is_empty(), "seed {seed} {policy:?}: {v:?}");
            }
        }
    }

    #[test]
    fn tampered_energy_detected() {
        let (g, sol, d) = setup(2, 2.0);
        let actual = actual_cycles(&g, 0.6, 0.9, 5);
        let plan = lamps_sim::FaultPlan::none();
        let sw = DvsSwitchCost::free();
        let mut r = run_with_faults(
            &g,
            &sol,
            &actual,
            &plan,
            d,
            RecoveryPolicy::Absorb,
            &cfg(),
            &sw,
        )
        .unwrap();
        r.energy.active_j *= 1.001;
        let v = check_run(&g, &sol, &actual, &plan, &r, d, &cfg(), &sw);
        assert!(
            v.iter()
                .any(|x| matches!(x, RunViolation::EnergyMismatch { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn tampered_outcome_detected() {
        let (g, sol, d) = setup(3, 2.0);
        let actual = actual_cycles(&g, 0.6, 0.9, 5);
        let plan = lamps_sim::FaultPlan::none();
        let sw = DvsSwitchCost::free();
        let mut r = run_with_faults(
            &g,
            &sol,
            &actual,
            &plan,
            d,
            RecoveryPolicy::Absorb,
            &cfg(),
            &sw,
        )
        .unwrap();
        r.outcome = RunOutcome::DeadlineMiss {
            lateness: vec![lamps_sim::TaskLateness {
                task: TaskId(0),
                lateness_s: 1.0,
            }],
        };
        let v = check_run(&g, &sol, &actual, &plan, &r, d, &cfg(), &sw);
        assert!(
            v.iter()
                .any(|x| matches!(x, RunViolation::OutcomeMismatch { .. })),
            "{v:?}"
        );
    }

    fn pipeline_dag() -> lamps_kpn::PeriodicDag {
        let mut s = lamps_kpn::PeriodicSet::new();
        let ctl = s.add("ctl", 13_000_000, 31_000_000);
        let est = s.add("est", 18_000_000, 62_000_000);
        let log = s.add("log", 6_000_000, 62_000_000);
        s.depends(ctl, est).unwrap();
        s.depends(est, log).unwrap();
        s.to_frame_dag()
    }

    #[test]
    fn clean_online_traces_validate() {
        use lamps_sim::{run_online, FaultIntensity, RecoveryPolicy};
        let dag = pipeline_dag();
        let cfg = cfg();
        for intensity in [
            None,
            Some(FaultIntensity::mild()),
            Some(FaultIntensity::severe()),
        ] {
            for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
                for reclaim in [false, true] {
                    for (factor, backlog) in [(1.0, 2), (0.5, 1)] {
                        let ocfg = OnlineConfig {
                            policy,
                            reclaim,
                            max_backlog: backlog,
                            switch: DvsSwitchCost::typical(),
                            ..OnlineConfig::reclaiming()
                        };
                        let dv = lamps_core::multi::DeadlineVector::from_kpn(
                            dag.deadlines.clone(),
                            dag.hyperperiod_cycles,
                        );
                        let sol = lamps_core::multi::solve_with_deadlines(
                            ocfg.strategy,
                            &dag.graph,
                            &dv,
                            &cfg,
                        )
                        .unwrap();
                        let stream = OnlineStream::synthesize(
                            &dag,
                            sol.n_procs,
                            5,
                            factor,
                            0.5,
                            0.9,
                            intensity.as_ref(),
                            cfg.max_frequency(),
                            11,
                        );
                        let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
                        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
                        assert!(
                            v.is_empty(),
                            "{intensity:?} {policy:?} reclaim={reclaim} factor={factor}: {v:?}"
                        );
                    }
                }
            }
        }
    }

    /// A frame whose `big` job's WCET, 5·10⁹ cycles, is above
    /// `u32::MAX`, so its streams hold their actuals at `u64`.
    fn big_wcet_dag() -> lamps_kpn::PeriodicDag {
        let mut s = lamps_kpn::PeriodicSet::new();
        let src = s.add("src", 1_000_000_000, 8_000_000_000);
        let big = s.add("big", 5_000_000_000, 8_000_000_000);
        let log = s.add("log", 600_000_000, 4_000_000_000);
        s.depends(src, big).unwrap();
        s.depends(src, log).unwrap();
        s.to_frame_dag()
    }

    #[test]
    fn wide_wcet_online_traces_validate() {
        use lamps_sim::{run_online, FaultIntensity};
        let dag = big_wcet_dag();
        let cfg = cfg();
        let f_max = cfg.max_frequency();
        let dv = lamps_core::multi::DeadlineVector::from_kpn(
            dag.deadlines.clone(),
            dag.hyperperiod_cycles,
        );
        let sol = lamps_core::multi::solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
            .unwrap();
        for intensity in [None, Some(FaultIntensity::moderate())] {
            let stream = OnlineStream::synthesize(
                &dag,
                sol.n_procs,
                6,
                1.0,
                0.9,
                1.0,
                intensity.as_ref(),
                f_max,
                7,
            );
            assert!(
                stream
                    .frames
                    .to_parts()
                    .2
                    .iter()
                    .any(|&a| a > u64::from(u32::MAX)),
                "the stream must need the wide column"
            );
            for ocfg in [OnlineConfig::reclaiming(), OnlineConfig::static_plan()] {
                let r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
                assert_eq!(r.admitted + r.deferred + r.shed, 6);
                let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
                assert!(
                    v.is_empty(),
                    "{intensity:?} reclaim={}: {v:?}",
                    ocfg.reclaim
                );
            }
        }
    }

    #[test]
    fn tampered_online_energy_detected() {
        use lamps_sim::run_online;
        let dag = pipeline_dag();
        let cfg = cfg();
        let ocfg = OnlineConfig::reclaiming();
        let stream =
            OnlineStream::synthesize(&dag, 1, 4, 1.0, 0.5, 0.9, None, cfg.max_frequency(), 5);
        let mut r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        r.energy.active_j *= 1.001;
        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, RunViolation::EnergyMismatch { .. })),
            "{v:?}"
        );

        // A frame-level skim must break the per-frame sum consistency.
        let mut r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        r.frames[1].energy_j *= 0.99;
        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
        assert!(
            v.iter().any(|x| matches!(x, RunViolation::Online { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn tampered_online_admission_detected() {
        use lamps_sim::run_online;
        let dag = pipeline_dag();
        let cfg = cfg();
        let ocfg = OnlineConfig::static_plan();
        let stream = OnlineStream::periodic(&dag, 3, 1.0, cfg.max_frequency());
        let mut r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        if let AdmissionVerdict::Admitted { start_s } = &mut r.frames[1].verdict {
            *start_s += 1e-3;
        } else {
            panic!("frame 1 must be admitted");
        }
        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
        assert!(
            v.iter().any(|x| matches!(x, RunViolation::Online { .. })),
            "{v:?}"
        );

        // Pretending an executed frame was shed breaks emptiness and
        // the counters.
        let mut r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        r.frames[2].verdict = AdmissionVerdict::Shed { backlog: 9 };
        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
        assert!(
            v.iter().any(|x| matches!(x, RunViolation::Online { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn tampered_online_outcome_detected() {
        use lamps_sim::run_online;
        let dag = pipeline_dag();
        let cfg = cfg();
        let ocfg = OnlineConfig::reclaiming();
        let stream = OnlineStream::periodic(&dag, 3, 1.0, cfg.max_frequency());
        let mut r = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        r.frames[0].outcome = Some(RunOutcome::DeadlineMiss {
            lateness: vec![lamps_sim::TaskLateness {
                task: TaskId(0),
                lateness_s: 1.0,
            }],
        });
        r.frame_misses += 1;
        r.jobs_late += 1;
        let v = check_online(&dag, &stream, &ocfg, &cfg, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, RunViolation::OutcomeMismatch { .. })),
            "{v:?}"
        );
    }

    /// The parts of one executed frame a tamper may touch.
    struct Parts<'a> {
        tasks: &'a mut Vec<Option<ExecRecord>>,
        aborted: &'a mut Vec<ExecRecord>,
        outcome: &'a mut RunOutcome,
        dvs_switches: &'a mut usize,
        energy: &'a mut lamps_energy::EnergyBreakdown,
        fail: FailStop,
        n_procs: usize,
    }

    type Tamper = fn(&TaskGraph, Parts<'_>);
    type Expect = fn(&RunViolation) -> bool;

    fn first_busy(tasks: &mut [Option<ExecRecord>]) -> &mut ExecRecord {
        tasks
            .iter_mut()
            .flatten()
            .find(|r| r.cycles > 0)
            .expect("a record that executed")
    }

    /// Every per-trace tamper with the violation it must raise.
    fn tampers() -> Vec<(&'static str, Tamper, Expect)> {
        vec![
            (
                "precedence",
                |g, p| {
                    let (t, pred) = g
                        .tasks()
                        .find_map(|t| g.predecessors(t).first().map(|&q| (t, q)))
                        .expect("an edge");
                    let pf = p.tasks[pred.index()].unwrap().finish_s;
                    p.tasks[t.index()].as_mut().unwrap().start_s = pf - 1e-6;
                },
                |v| matches!(v, RunViolation::Precedence { .. }),
            ),
            (
                "overlap",
                |_, p| {
                    // Two executions on one processor, in start order.
                    let mut busy: Vec<ExecRecord> = p
                        .tasks
                        .iter()
                        .flatten()
                        .filter(|r| r.cycles > 0)
                        .copied()
                        .collect();
                    busy.sort_by(|a, b| a.proc.cmp(&b.proc).then(a.start_s.total_cmp(&b.start_s)));
                    let w = busy
                        .windows(2)
                        .find(|w| w[0].proc == w[1].proc)
                        .expect("a processor running two tasks");
                    p.tasks[w[1].task.index()].as_mut().unwrap().start_s = w[0].finish_s - 1e-6;
                },
                |v| matches!(v, RunViolation::Overlap { .. }),
            ),
            (
                "dead-proc execution",
                |_, p| {
                    let r = p
                        .tasks
                        .iter_mut()
                        .flatten()
                        .find(|r| r.finish_s > p.fail.at_s && r.proc != p.fail.proc)
                        .expect("a task finishing after the failure");
                    r.proc = p.fail.proc;
                },
                |v| matches!(v, RunViolation::DeadProcExecution { .. }),
            ),
            (
                "switch count",
                |_, p| *p.dvs_switches += 1,
                |v| matches!(v, RunViolation::SwitchCountMismatch { .. }),
            ),
            (
                "wrong cycles",
                |_, p| first_busy(p.tasks).cycles += 1,
                |v| matches!(v, RunViolation::WrongCycles { .. }),
            ),
            (
                "off-grid level",
                |_, p| first_busy(p.tasks).vdd = 0.123_456,
                |v| matches!(v, RunViolation::IllegalLevel { .. }),
            ),
            (
                "outcome",
                |_, p| {
                    *p.outcome = RunOutcome::DeadlineMiss {
                        lateness: vec![lamps_sim::TaskLateness {
                            task: TaskId(0),
                            lateness_s: 1.0,
                        }],
                    }
                },
                |v| matches!(v, RunViolation::OutcomeMismatch { .. }),
            ),
            (
                "energy",
                |_, p| p.energy.active_j *= 1.001,
                |v| matches!(v, RunViolation::EnergyMismatch { .. }),
            ),
            (
                "sleep episodes",
                |_, p| p.energy.sleep_episodes += 1,
                |v| matches!(v, RunViolation::SleepEpisodeMismatch { .. }),
            ),
            (
                "negative start",
                |_, p| first_busy(p.tasks).start_s = -1.0,
                |v| matches!(v, RunViolation::BadInterval { .. }),
            ),
            (
                "proc out of range",
                |_, p| first_busy(p.tasks).proc = ProcId(p.n_procs as u32 + 3),
                |v| matches!(v, RunViolation::Online { .. }),
            ),
            (
                "aborted record without a fail-stop",
                |_, p| {
                    let mut r = *first_busy(p.tasks);
                    r.proc = ProcId((p.fail.proc.0 + 1) % p.n_procs as u32);
                    r.cycles = 0;
                    p.aborted.push(r);
                },
                |v| matches!(v, RunViolation::Online { .. }),
            ),
        ]
    }

    /// Each per-trace tamper, applied to a fault run and to one executed
    /// frame of an online run, raises its violation from both checkers.
    #[test]
    fn tamper_matrix_through_both_checkers() {
        use lamps_sim::{run_online, OnlineStream};
        let cfg = cfg();

        let (g, sol, d) = setup(4, 2.5);
        assert!(sol.n_procs >= 2);
        let fail = FailStop {
            proc: ProcId(0),
            at_s: sol.makespan_s * 0.4,
        };
        let plan = lamps_sim::FaultPlan {
            fail_stop: Some(fail),
            ..lamps_sim::FaultPlan::none()
        };
        let actual = actual_cycles(&g, 0.5, 0.9, 4);
        let sw = DvsSwitchCost::typical();
        let run = run_with_faults(
            &g,
            &sol,
            &actual,
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg,
            &sw,
        )
        .unwrap();
        assert!(check_run(&g, &sol, &actual, &plan, &run, d, &cfg, &sw).is_empty());

        let mut s = lamps_kpn::PeriodicSet::new();
        let src = s.add("src", 8_000_000, 31_000_000);
        for i in 0..4 {
            let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
            s.depends(src, w).unwrap();
        }
        let dag = s.to_frame_dag();
        let ocfg = OnlineConfig {
            switch: DvsSwitchCost::typical(),
            ..OnlineConfig::reclaiming()
        };
        let f_max = cfg.max_frequency();
        let n_procs = run_online(
            &dag,
            &OnlineStream::periodic(&dag, 1, 1.0, f_max),
            &ocfg,
            &cfg,
        )
        .unwrap()
        .n_procs;
        assert!(n_procs >= 2);
        let drawn =
            OnlineStream::synthesize(&dag, n_procs, 3, 1.0, 0.5, 0.9, None, f_max, 9).frames;
        let frame_fail = FailStop {
            proc: ProcId(0),
            at_s: 0.2 * dag.hyperperiod_cycles as f64 / f_max,
        };
        let fail_plan = FaultPlan {
            fail_stop: Some(frame_fail),
            ..FaultPlan::none()
        };
        let (arrivals, jobs, drawn_actual, _) = drawn.to_parts();
        let stream = OnlineStream {
            frames: FrameTable::from_parts(
                arrivals,
                jobs,
                drawn_actual,
                vec![FaultPlan::none(), fail_plan, FaultPlan::none()],
            )
            .unwrap(),
        };
        let online = run_online(&dag, &stream, &ocfg, &cfg).unwrap();
        assert!(check_online(&dag, &stream, &ocfg, &cfg, &online).is_empty());

        for (name, tamper, expect) in tampers() {
            let mut r = run.clone();
            tamper(
                &g,
                Parts {
                    tasks: &mut r.tasks,
                    aborted: &mut r.aborted,
                    outcome: &mut r.outcome,
                    dvs_switches: &mut r.dvs_switches,
                    energy: &mut r.energy,
                    fail,
                    n_procs: sol.n_procs,
                },
            );
            let v = check_run(&g, &sol, &actual, &plan, &r, d, &cfg, &sw);
            assert!(v.iter().any(expect), "check_run missed {name}: {v:?}");

            let mut o = online.clone();
            let fr = &mut o.frames[1];
            tamper(
                &dag.graph,
                Parts {
                    tasks: &mut fr.tasks,
                    aborted: &mut fr.aborted,
                    outcome: fr.outcome.as_mut().unwrap(),
                    dvs_switches: &mut fr.dvs_switches,
                    energy: &mut o.energy,
                    fail: frame_fail,
                    n_procs,
                },
            );
            let v = check_online(&dag, &stream, &ocfg, &cfg, &o);
            assert!(v.iter().any(expect), "check_online missed {name}: {v:?}");
        }
    }

    #[test]
    fn smuggled_dead_proc_execution_detected() {
        let (g, sol, d) = setup(4, 2.5);
        assert!(sol.n_procs >= 2);
        let fs = FailStop {
            proc: ProcId(0),
            at_s: sol.makespan_s * 0.4,
        };
        let plan = lamps_sim::FaultPlan {
            fail_stop: Some(fs),
            ..lamps_sim::FaultPlan::none()
        };
        let sw = DvsSwitchCost::free();
        let mut r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &sw,
        )
        .unwrap();
        // Forge a record onto the dead processor past its fail time.
        let victim = r
            .tasks
            .iter()
            .position(|t| t.as_ref().is_some_and(|r| r.finish_s > fs.at_s))
            .expect("some task finishes after the failure");
        let rec = r.tasks[victim].as_mut().unwrap();
        rec.proc = fs.proc;
        let v = check_run(&g, &sol, g.weights(), &plan, &r, d, &cfg(), &sw);
        assert!(
            v.iter()
                .any(|x| matches!(x, RunViolation::DeadProcExecution { .. })),
            "{v:?}"
        );
    }
}
