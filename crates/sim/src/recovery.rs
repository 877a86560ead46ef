//! The fault-tolerant discrete-event runner.
//!
//! [`run_with_faults`] executes a static [`lamps_core::Solution`]
//! against a [`FaultPlan`] and *always* comes back with a
//! [`FaultyRunReport`]: an energy-billed trace of what actually
//! happened, every injected fault that fired, every recovery action
//! taken, and either a met deadline or a structured
//! [`RunOutcome::DeadlineMiss`] with per-task lateness. Malformed
//! *inputs* are rejected up front with a typed [`SimError`]; once the
//! run starts, no fault combination panics.
//!
//! The recovery escalation ladder, bottom rung first:
//!
//! 1. **Slack absorption** (both policies): starts float — an overrun
//!    delays successors, and downstream slack soaks it up if it can.
//! 2. **Frequency boost** ([`RecoveryPolicy::Boost`] only): a task
//!    whose window to its planned finish has shrunk runs at the lowest
//!    level that still fits the window (never below its base level);
//!    with the window destroyed it runs at the fastest level.
//! 3. **Structured miss**: when physics wins anyway, the report carries
//!    per-task lateness instead of a panic or a silent flag.
//!
//! On a processor fail-stop (either policy), the victim's work — its
//! running task re-runs from scratch; fail-stop loses state — migrates:
//! the pending remainder of the graph is re-list-scheduled on the
//! survivors by the suffix re-solve ([`lamps_core::SuffixSolver`]). Under
//! [`RecoveryPolicy::Boost`] the re-plan also picks a new *base* level:
//! the lowest level (at or above the plan's) whose re-planned makespan
//! still meets the deadline, or the fastest when none does. The re-plan
//! sees only what a runtime could see — WCET-based finish estimates for
//! in-flight tasks, never a not-yet-observed overrun.
//!
//! The run is one frame of the crate's frame executor (the event loop
//! [`crate::run_online`] runs per frame) with start 0, every task due at
//! the deadline and reclamation off. Billing: executed cycles at the
//! level they ran at, idle gaps at the *plan* level's idle power (slept
//! through past break-even), switch energy into the transition bucket.
//! A dead processor is billed only up to its fail time; survivors are
//! billed to `max(deadline, makespan)`.

use crate::error::SimError;
use crate::exec::{bill_idle, run_frame, Frame, Resolver};
use crate::faults::{FaultPlan, InjectedEvent};
use crate::runner::DvsSwitchCost;
use lamps_core::{SchedulerConfig, Solution, SolveBudget};
use lamps_energy::EnergyBreakdown;
use lamps_sched::ProcId;
use lamps_taskgraph::{TaskGraph, TaskId};

/// How the runtime reacts to faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Bottom rung only: let slack absorb overruns; migrate on
    /// fail-stop but never change frequency.
    Absorb,
    /// Full ladder: absorb, then boost frequency per task when the
    /// window shrinks; on fail-stop, re-plan and raise the base level
    /// to the lowest that still fits the deadline.
    Boost,
}

/// One task execution (or partial execution) that actually happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRecord {
    /// The task.
    pub task: TaskId,
    /// The processor it ran on.
    pub proc: ProcId,
    /// When execution began (after any switch settle) \[s\].
    pub start_s: f64,
    /// When it finished — or was cut off by a fail-stop \[s\].
    pub finish_s: f64,
    /// Supply voltage it ran at \[V\].
    pub vdd: f64,
    /// Cycles it executed (the effective count, or the partial count
    /// for an aborted execution).
    pub cycles: u64,
}

/// A recovery the runtime performed, in trace order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// The pending remainder was re-list-scheduled on the survivors.
    Rescheduled {
        /// The processor whose failure triggered it.
        failed_proc: ProcId,
        /// When \[s\].
        at_s: f64,
        /// Pending tasks that changed processor relative to the static
        /// plan.
        migrated: usize,
    },
    /// The base level was raised because re-planned slack had
    /// evaporated.
    BaseLevelRaised {
        /// Previous base supply voltage \[V\].
        from_vdd: f64,
        /// New base supply voltage \[V\].
        to_vdd: f64,
    },
    /// A single task ran above its base level to defend its window.
    TaskBoosted {
        /// The boosted task.
        task: TaskId,
        /// Base supply voltage it would otherwise run at \[V\].
        from_vdd: f64,
        /// Voltage it actually ran at \[V\].
        to_vdd: f64,
    },
}

/// A task that finished after the deadline (or never finished).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskLateness {
    /// The late task.
    pub task: TaskId,
    /// Seconds past the deadline; `f64::INFINITY` if the task could
    /// not run at all (no surviving processor).
    pub lateness_s: f64,
}

/// Did the run meet its deadline?
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every task finished by the deadline.
    MetDeadline,
    /// At least one task finished late (or never ran).
    DeadlineMiss {
        /// Every late task with its lateness, in the canonical order of
        /// [`sort_lateness`] (ascending by task id), so reports diff
        /// cleanly across runs.
        lateness: Vec<TaskLateness>,
    },
}

/// Normalize a lateness report into its canonical order: ascending by
/// task id. Every `DeadlineMiss` this crate emits — from
/// [`run_with_faults`] and from the online runtime, which accumulates
/// misses in retirement order — passes through here, so two runs of the
/// same scenario produce byte-identical reports.
pub fn sort_lateness(lateness: &mut [TaskLateness]) {
    lateness.sort_by_key(|l| l.task.0);
}

impl RunOutcome {
    /// Whether the deadline was met.
    pub fn met(&self) -> bool {
        matches!(self, RunOutcome::MetDeadline)
    }
}

/// The full account of a faulty run.
#[derive(Debug, Clone)]
pub struct FaultyRunReport {
    /// Energy actually consumed.
    pub energy: EnergyBreakdown,
    /// Completion of the last *finished* task \[s\].
    pub makespan_s: f64,
    /// Deadline verdict.
    pub outcome: RunOutcome,
    /// Faults that actually fired, in trace order.
    pub injected: Vec<InjectedEvent>,
    /// Recovery actions taken, in trace order.
    pub recoveries: Vec<RecoveryAction>,
    /// Completed execution per task (`None` if it never completed).
    pub tasks: Vec<Option<ExecRecord>>,
    /// Partial executions lost to the fail-stop.
    pub aborted: Vec<ExecRecord>,
    /// Runtime level switches taken.
    pub dvs_switches: usize,
}

impl FaultyRunReport {
    /// Total energy \[J\].
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }
}

/// Execute `solution` under `faults`, recovering per `policy`. See the
/// module docs for the fault model and the escalation ladder.
///
/// `actual` are the fault-free cycle counts (≤ WCET, e.g. from
/// [`crate::workload::actual_cycles`]); the plan's overruns replace
/// them per task. Never panics on any input this function accepts.
#[allow(clippy::too_many_arguments)]
pub fn run_with_faults(
    graph: &TaskGraph,
    solution: &Solution,
    actual: &[u64],
    faults: &FaultPlan,
    deadline_s: f64,
    policy: RecoveryPolicy,
    cfg: &SchedulerConfig,
    switch: &DvsSwitchCost,
) -> Result<FaultyRunReport, SimError> {
    let _span = lamps_obs::span("sim", "run_with_faults");
    let n = graph.len();
    if actual.len() != n {
        return Err(SimError::WrongActualLength {
            expected: n,
            got: actual.len(),
        });
    }
    if solution.schedule.len() != n {
        return Err(SimError::SolutionMismatch {
            schedule_tasks: solution.schedule.len(),
            graph_tasks: n,
        });
    }
    if !deadline_s.is_finite() || deadline_s <= 0.0 {
        return Err(SimError::BadDeadline(deadline_s));
    }
    for t in graph.tasks() {
        if actual[t.index()] > graph.weight(t) {
            return Err(SimError::ActualExceedsWcet {
                task: t,
                actual: actual[t.index()],
                wcet: graph.weight(t),
            });
        }
    }
    faults.validate(graph, solution.schedule.n_procs())?;

    let report = run_plan(
        graph,
        solution,
        actual,
        faults,
        deadline_s,
        policy,
        false,
        &SolveBudget::unlimited(),
        cfg,
        switch,
    );

    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("sim.faults.runs").inc();
        lamps_obs::counter("sim.faults.injected").add(report.injected.len() as u64);
        lamps_obs::counter("sim.faults.recoveries").add(report.recoveries.len() as u64);
        let escalations = report
            .recoveries
            .iter()
            .filter(|r| !matches!(r, RecoveryAction::Rescheduled { .. }))
            .count();
        lamps_obs::counter("sim.faults.escalations").add(escalations as u64);
        lamps_obs::counter("sim.faults.dvs_switches").add(report.dvs_switches as u64);
        if !report.outcome.met() {
            lamps_obs::counter("sim.faults.deadline_misses").inc();
        }
    }
    Ok(report)
}

/// Run a whole plan as one frame: start and arrival at 0, every task due
/// at `deadline_s`, re-plans held to the deadline alone, and the idle
/// bill running to `max(deadline, makespan)`. Inputs must be valid.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_plan(
    graph: &TaskGraph,
    solution: &Solution,
    actual: &[u64],
    faults: &FaultPlan,
    deadline_s: f64,
    policy: RecoveryPolicy,
    reclaim: bool,
    budget: &SolveBudget,
    cfg: &SchedulerConfig,
    switch: &DvsSwitchCost,
) -> FaultyRunReport {
    let n_procs = solution.schedule.n_procs();
    let due_s = vec![deadline_s; graph.len()];
    let mut cycles = Vec::with_capacity(graph.len());
    faults.effective_cycles(graph, actual, &mut cycles);
    let mut run = run_frame(
        &Frame {
            graph,
            schedule: &solution.schedule,
            plan_level: solution.level,
            n_procs,
            cycles: &cycles,
            faults,
            due_s: &due_s,
            own_due: false,
            horizon_s: deadline_s,
            policy,
            reclaim,
            budget,
            switch,
            key: 0,
        },
        cfg,
        &mut Resolver::default(),
    )
    .trace;
    bill_idle(
        &run.tasks,
        &run.aborted,
        faults.fail_stop,
        0.0,
        deadline_s.max(run.makespan_s),
        n_procs,
        solution.level,
        cfg,
        &mut run.energy,
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{DvsFault, DvsFaultKind, FailStop, FaultIntensity, Overrun};
    use crate::runner::{simulate, Policy};
    use crate::workload::actual_cycles;
    use lamps_core::{solve, Strategy};
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn coarse_graph(seed: u64) -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 40,
                n_layers: 8,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000)
    }

    fn solved(graph: &TaskGraph, factor: f64) -> (Solution, f64) {
        let cfg = cfg();
        let d = factor * graph.critical_path_cycles() as f64 / cfg.max_frequency();
        (solve(Strategy::LampsPs, graph, d, &cfg).unwrap(), d)
    }

    fn chain(len: usize, w: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..len).map(|_| b.add_task(w)).collect();
        for e in ids.windows(2) {
            b.add_edge(e[0], e[1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn no_faults_matches_plain_simulation() {
        let g = coarse_graph(1);
        let (sol, d) = solved(&g, 2.0);
        let actual = actual_cycles(&g, 0.6, 0.9, 7);
        let plain = simulate(&g, &sol, &actual, d, Policy::Static, &cfg());
        for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
            let r = run_with_faults(
                &g,
                &sol,
                &actual,
                &FaultPlan::none(),
                d,
                policy,
                &cfg(),
                &DvsSwitchCost::free(),
            )
            .unwrap();
            assert!(r.outcome.met(), "{policy:?}");
            assert!(r.injected.is_empty() && r.recoveries.is_empty());
            assert_eq!(r.dvs_switches, 0, "{policy:?} must not switch unfaulted");
            assert_eq!(
                r.total_energy().to_bits(),
                plain.total_energy().to_bits(),
                "{policy:?}: {} vs {}",
                r.total_energy(),
                plain.total_energy()
            );
            assert_eq!(r.makespan_s.to_bits(), plain.makespan_s.to_bits());
        }
    }

    #[test]
    fn fail_stop_migrates_and_completes() {
        let g = coarse_graph(2);
        let (sol, d) = solved(&g, 3.0);
        assert!(sol.n_procs >= 2, "need a multiprocessor plan");
        let fs = FailStop {
            proc: ProcId(0),
            at_s: sol.makespan_s * 0.3,
        };
        let plan = FaultPlan {
            fail_stop: Some(fs),
            ..FaultPlan::none()
        };
        for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
            let r = run_with_faults(
                &g,
                &sol,
                g.weights(),
                &plan,
                d,
                policy,
                &cfg(),
                &DvsSwitchCost::free(),
            )
            .unwrap();
            assert!(
                r.tasks.iter().all(|t| t.is_some()),
                "{policy:?}: every task must complete on the survivors"
            );
            assert!(r
                .injected
                .iter()
                .any(|e| matches!(e, InjectedEvent::ProcFailed { proc, .. } if *proc == fs.proc)));
            assert!(r
                .recoveries
                .iter()
                .any(|a| matches!(a, RecoveryAction::Rescheduled { .. })));
            // Nothing executes on the dead processor after the failure.
            for rec in r.tasks.iter().flatten() {
                if rec.proc == fs.proc {
                    assert!(
                        rec.finish_s <= fs.at_s + 1e-12,
                        "{policy:?}: {} ran on the dead processor",
                        rec.task
                    );
                }
            }
        }
    }

    #[test]
    fn boost_escalates_on_destroyed_window() {
        // Chain of two equal tasks, tight-ish deadline, huge overrun on
        // the first: Boost must run the second above the plan level,
        // Absorb must not.
        let g = chain(2, 31_000_000);
        let (sol, d) = solved(&g, 1.4);
        assert!(sol.level.freq < cfg().levels.fastest().freq);
        let plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(0),
                factor: 1.3,
            }],
            ..FaultPlan::none()
        };
        let absorb = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Absorb,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap();
        let boost = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap();
        let a1 = absorb.tasks[1].unwrap();
        let b1 = boost.tasks[1].unwrap();
        assert_eq!(a1.vdd, sol.level.vdd, "Absorb never changes level");
        assert!(b1.vdd > sol.level.vdd, "Boost must escalate");
        assert!(boost
            .recoveries
            .iter()
            .any(|a| matches!(a, RecoveryAction::TaskBoosted { task, .. } if *task == TaskId(1))));
        assert!(boost.makespan_s < absorb.makespan_s);
    }

    #[test]
    fn lone_processor_failure_reports_infinite_lateness() {
        let g = chain(4, 3_100_000);
        let (sol, d) = solved(&g, 1.5);
        assert_eq!(sol.n_procs, 1, "a chain needs one processor");
        let plan = FaultPlan {
            fail_stop: Some(FailStop {
                proc: ProcId(0),
                at_s: sol.makespan_s * 0.5,
            }),
            ..FaultPlan::none()
        };
        let r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap();
        let RunOutcome::DeadlineMiss { lateness } = &r.outcome else {
            panic!("must miss with the only processor dead");
        };
        assert!(lateness.iter().any(|l| l.lateness_s.is_infinite()));
        assert!(r.tasks.iter().any(|t| t.is_none()));
        assert!(r.total_energy().is_finite());
    }

    #[test]
    fn stuck_regulator_suppresses_boost() {
        let g = chain(2, 31_000_000);
        let (sol, d) = solved(&g, 1.4);
        let plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(0),
                factor: 1.3,
            }],
            dvs: vec![DvsFault {
                proc: sol.schedule.proc(TaskId(1)),
                kind: DvsFaultKind::StuckAtLevel,
            }],
            ..FaultPlan::none()
        };
        let r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap();
        assert!(r
            .injected
            .iter()
            .any(|e| matches!(e, InjectedEvent::DvsStuck { .. })));
        // Pinned at the plan level despite the boost request.
        assert_eq!(r.tasks[1].unwrap().vdd, sol.level.vdd);
        assert_eq!(r.dvs_switches, 0);
    }

    #[test]
    fn delayed_regulator_records_and_charges() {
        let g = chain(2, 31_000_000);
        let (sol, d) = solved(&g, 1.4);
        let extra = 5.0e-4;
        let victim = sol.schedule.proc(TaskId(1));
        let plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(0),
                factor: 1.3,
            }],
            dvs: vec![DvsFault {
                proc: victim,
                kind: DvsFaultKind::ExtraLatency { extra_s: extra },
            }],
            ..FaultPlan::none()
        };
        let r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &DvsSwitchCost::typical(),
        )
        .unwrap();
        assert!(r
            .injected
            .iter()
            .any(|e| matches!(e, InjectedEvent::DvsDelayed { proc, .. } if *proc == victim)));
        assert!(r.dvs_switches > 0);
    }

    #[test]
    fn chaos_invariant_never_panics_and_always_reports() {
        // Random fault plans across intensities: the runner must always
        // return a coherent report — finite energy, every finished task
        // recorded, every miss structured.
        let cfg = cfg();
        for seed in 0..30u64 {
            let g = coarse_graph(seed % 5 + 10);
            let (sol, d) = solved(&g, 1.6);
            let intensity = match seed % 3 {
                0 => FaultIntensity::mild(),
                1 => FaultIntensity::moderate(),
                _ => FaultIntensity::severe(),
            };
            let plan = FaultPlan::random(&g, sol.n_procs, d, &intensity, seed);
            let actual = actual_cycles(&g, 0.5, 0.9, seed);
            for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
                let r = run_with_faults(
                    &g,
                    &sol,
                    &actual,
                    &plan,
                    d,
                    policy,
                    &cfg,
                    &DvsSwitchCost::typical(),
                )
                .unwrap();
                assert!(r.total_energy().is_finite() && r.total_energy() > 0.0);
                match &r.outcome {
                    RunOutcome::MetDeadline => {
                        assert!(r.tasks.iter().all(|t| t.is_some()));
                        assert!(r.makespan_s <= d * (1.0 + 1e-9));
                    }
                    RunOutcome::DeadlineMiss { lateness } => {
                        assert!(!lateness.is_empty());
                        for l in lateness {
                            assert!(l.lateness_s > 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lateness_reports_are_canonically_sorted() {
        // The normalizer pins the canonical order on shuffled input...
        let mut shuffled = vec![
            TaskLateness {
                task: TaskId(7),
                lateness_s: 0.5,
            },
            TaskLateness {
                task: TaskId(1),
                lateness_s: f64::INFINITY,
            },
            TaskLateness {
                task: TaskId(3),
                lateness_s: 0.1,
            },
        ];
        sort_lateness(&mut shuffled);
        let ids: Vec<u32> = shuffled.iter().map(|l| l.task.0).collect();
        assert_eq!(ids, vec![1, 3, 7]);
        // ...and a real miss report comes out already in that order.
        let g = chain(4, 3_100_000);
        let (sol, d) = solved(&g, 1.5);
        let plan = FaultPlan {
            fail_stop: Some(FailStop {
                proc: ProcId(0),
                at_s: sol.makespan_s * 0.5,
            }),
            ..FaultPlan::none()
        };
        let r = run_with_faults(
            &g,
            &sol,
            g.weights(),
            &plan,
            d,
            RecoveryPolicy::Boost,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap();
        let RunOutcome::DeadlineMiss { lateness } = &r.outcome else {
            panic!("must miss with the only processor dead");
        };
        assert!(
            lateness.windows(2).all(|w| w[0].task.0 < w[1].task.0),
            "lateness must ascend by task id: {lateness:?}"
        );
    }

    #[test]
    fn deterministic_reports() {
        let g = coarse_graph(3);
        let (sol, d) = solved(&g, 1.8);
        let plan = FaultPlan::random(&g, sol.n_procs, d, &FaultIntensity::severe(), 99);
        let actual = actual_cycles(&g, 0.5, 0.9, 3);
        let run = || {
            run_with_faults(
                &g,
                &sol,
                &actual,
                &plan,
                d,
                RecoveryPolicy::Boost,
                &cfg(),
                &DvsSwitchCost::typical(),
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.total_energy().to_bits(), b.total_energy().to_bits());
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.recoveries, b.recoveries);
    }

    #[test]
    fn bad_inputs_rejected_with_typed_errors() {
        let g = coarse_graph(4);
        let (sol, d) = solved(&g, 2.0);
        let ok = g.weights().to_vec();
        let run = |actual: &[u64], plan: &FaultPlan, dl: f64| {
            run_with_faults(
                &g,
                &sol,
                actual,
                plan,
                dl,
                RecoveryPolicy::Absorb,
                &cfg(),
                &DvsSwitchCost::free(),
            )
        };
        assert!(matches!(
            run(&ok[1..], &FaultPlan::none(), d),
            Err(SimError::WrongActualLength { .. })
        ));
        let mut over = ok.clone();
        over[0] += 1;
        assert!(matches!(
            run(&over, &FaultPlan::none(), d),
            Err(SimError::ActualExceedsWcet { .. })
        ));
        assert!(matches!(
            run(&ok, &FaultPlan::none(), f64::NAN),
            Err(SimError::BadDeadline(_))
        ));
        let bad_plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(0),
                factor: 0.0,
            }],
            ..FaultPlan::none()
        };
        assert!(matches!(
            run(&ok, &bad_plan, d),
            Err(SimError::BadFaultPlan(_))
        ));
    }
}
