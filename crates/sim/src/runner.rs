//! The plain execution simulator: a static plan against sub-WCET actuals.

use crate::faults::FaultPlan;
use crate::recovery::{run_plan, RecoveryPolicy};
use lamps_core::{SchedulerConfig, Solution, SolveBudget};
use lamps_energy::EnergyBreakdown;
use lamps_taskgraph::{TaskGraph, TaskId};

/// Runtime policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Keep the planned frequency; early finishes become idle time.
    Static,
    /// Greedy per-task slack reclamation (Zhu et al. \[1\]): each task may
    /// stretch its WCET into the window ending at its statically planned
    /// finish time, but never below the critical frequency. A plan that
    /// already runs below the critical level is never undercut: its
    /// tasks keep the plan level.
    SlackReclaim,
}

/// Cost of one runtime voltage/frequency switch.
///
/// The paper's schedules never switch (one constant level), so it can
/// ignore this; a reclaiming runtime switches per task, so the overhead
/// gates how fine-grained reclamation can profitably be. Typical
/// regulator figures are tens of microseconds and a few microjoules per
/// transition (e.g. Burd & Brodersen report ~70 µs full-swing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsSwitchCost {
    /// Stall while the regulator settles \[s\] — charged to the task's
    /// start whenever its level differs from the previous level on the
    /// same processor.
    pub latency_s: f64,
    /// Energy per switch \[J\].
    pub energy_j: f64,
}

impl DvsSwitchCost {
    /// The paper's implicit model: switching is free.
    pub fn free() -> Self {
        DvsSwitchCost {
            latency_s: 0.0,
            energy_j: 0.0,
        }
    }

    /// A realistic embedded regulator: 70 µs, 4 µJ per full transition.
    pub fn typical() -> Self {
        DvsSwitchCost {
            latency_s: 70.0e-6,
            energy_j: 4.0e-6,
        }
    }
}

/// What one task actually did.
#[derive(Debug, Clone, Copy)]
pub struct SimTask {
    /// The task.
    pub task: TaskId,
    /// Actual start \[s\].
    pub start_s: f64,
    /// Actual finish \[s\].
    pub finish_s: f64,
    /// Supply voltage it ran at \[V\].
    pub vdd: f64,
    /// Cycles actually executed.
    pub cycles: u64,
}

/// Simulation outcome.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Energy actually consumed, split as in the static evaluator.
    pub energy: EnergyBreakdown,
    /// Wall-clock completion of the last task \[s\].
    pub makespan_s: f64,
    /// Whether every task finished by the deadline horizon.
    pub deadline_met: bool,
    /// Runtime voltage/frequency switches taken (their energy is folded
    /// into `energy.transition_j`).
    pub dvs_switches: usize,
    /// Per-task execution records, indexed by task id.
    pub tasks: Vec<SimTask>,
}

impl SimReport {
    /// Total energy \[J\].
    pub fn total_energy(&self) -> f64 {
        self.energy.total()
    }
}

/// Execute `solution` against per-task `actual` cycle counts (≤ WCET),
/// metering energy up to `deadline_s`.
///
/// The processor assignment and per-processor task order of the static
/// schedule are preserved; start times float earlier as upstream tasks
/// under-run. See [`Policy`] for the frequency behaviour. This is the
/// fault runner without faults and with free switching: `Static` is
/// [`RecoveryPolicy::Absorb`], `SlackReclaim` is
/// [`RecoveryPolicy::Boost`] with reclamation on and a zero re-solve
/// budget, so it stretches windows but never re-solves. Inject WCET
/// overruns and switch costs through [`crate::run_with_faults`].
///
/// # Panics
///
/// Panics if `actual` has the wrong length or exceeds a task's WCET.
///
/// # Example
///
/// ```
/// use lamps_core::{solve, SchedulerConfig, Strategy};
/// use lamps_sim::{actual_cycles, simulate, Policy};
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(31_000_000);
/// let c = b.add_task(31_000_000);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
///
/// let cfg = SchedulerConfig::paper();
/// let deadline = 0.050;
/// let plan = solve(Strategy::LampsPs, &g, deadline, &cfg).unwrap();
///
/// // Frames run at 60-80% of their worst case.
/// let actual = actual_cycles(&g, 0.6, 0.8, 42);
/// let run = simulate(&g, &plan, &actual, deadline, Policy::SlackReclaim, &cfg);
/// assert!(run.deadline_met);
/// assert!(run.total_energy() < plan.energy.total());
/// ```
pub fn simulate(
    graph: &TaskGraph,
    solution: &Solution,
    actual: &[u64],
    deadline_s: f64,
    policy: Policy,
    cfg: &SchedulerConfig,
) -> SimReport {
    assert_eq!(actual.len(), graph.len(), "one actual cycle count per task");
    for t in graph.tasks() {
        assert!(
            actual[t.index()] <= graph.weight(t),
            "{t}: actual {} exceeds WCET {}",
            actual[t.index()],
            graph.weight(t)
        );
    }
    let (recovery, reclaim, budget) = match policy {
        Policy::Static => (RecoveryPolicy::Absorb, false, SolveBudget::unlimited()),
        Policy::SlackReclaim => (RecoveryPolicy::Boost, true, SolveBudget::steps(0)),
    };
    let run = run_plan(
        graph,
        solution,
        actual,
        &FaultPlan::none(),
        deadline_s,
        recovery,
        reclaim,
        &budget,
        cfg,
        &DvsSwitchCost::free(),
    );
    SimReport {
        energy: run.energy,
        makespan_s: run.makespan_s,
        deadline_met: run.outcome.met(),
        dvs_switches: run.dvs_switches,
        tasks: run
            .tasks
            .iter()
            .map(|r| {
                let r = r.expect("the static order admits every task");
                SimTask {
                    task: r.task,
                    start_s: r.start_s,
                    finish_s: r.finish_s,
                    vdd: r.vdd,
                    cycles: r.cycles,
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, Overrun};
    use crate::recovery::{run_with_faults, FaultyRunReport};
    use crate::runner::DvsSwitchCost;
    use crate::workload::actual_cycles;
    use lamps_core::{solve, Strategy};
    use lamps_taskgraph::apps::mpeg;
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};

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

    #[test]
    fn wcet_execution_matches_static_plan() {
        // With actual == WCET and the Static policy, the simulated
        // timing reproduces the stretched schedule and the energy equals
        // the static evaluation.
        let g = coarse_graph(1);
        let (sol, d) = solved(&g, 2.0);
        let report = simulate(&g, &sol, g.weights(), d, Policy::Static, &cfg());
        assert!(report.deadline_met);
        assert!((report.makespan_s - sol.makespan_s).abs() < 1e-9);
        let static_e = sol.energy.total();
        assert!(
            (report.total_energy() - static_e).abs() < static_e * 1e-6,
            "sim {} vs static {static_e}",
            report.total_energy()
        );
    }

    #[test]
    fn early_finishes_meet_deadline_and_save_energy() {
        let g = coarse_graph(2);
        let (sol, d) = solved(&g, 2.0);
        let actual = actual_cycles(&g, 0.4, 0.7, 9);
        let wcet_e = simulate(&g, &sol, g.weights(), d, Policy::Static, &cfg()).total_energy();
        for policy in [Policy::Static, Policy::SlackReclaim] {
            let r = simulate(&g, &sol, &actual, d, policy, &cfg());
            assert!(r.deadline_met, "{policy:?}");
            assert!(r.total_energy() < wcet_e, "{policy:?}");
        }
    }

    #[test]
    fn reclaim_beats_static_under_runs() {
        // With deep under-runs, reclamation converts idle into voltage
        // reduction and must beat the static policy — unless the plan
        // already runs at the critical level *and* all idle is sleepable,
        // so require a tight deadline (fast plan level).
        let g = coarse_graph(3);
        let (sol, d) = solved(&g, 1.5);
        assert!(sol.level.freq > cfg().levels.critical().freq);
        let actual = actual_cycles(&g, 0.3, 0.5, 11);
        let stat = simulate(&g, &sol, &actual, d, Policy::Static, &cfg());
        let rec = simulate(&g, &sol, &actual, d, Policy::SlackReclaim, &cfg());
        assert!(rec.deadline_met);
        assert!(
            rec.total_energy() < stat.total_energy(),
            "reclaim {} vs static {}",
            rec.total_energy(),
            stat.total_energy()
        );
    }

    #[test]
    fn reclaim_never_misses_planned_finishes() {
        let g = coarse_graph(4);
        let (sol, d) = solved(&g, 2.0);
        let actual = actual_cycles(&g, 0.5, 1.0, 13);
        let r = simulate(&g, &sol, &actual, d, Policy::SlackReclaim, &cfg());
        for t in g.tasks() {
            let planned = sol.schedule.finish(t) as f64 / sol.level.freq;
            assert!(
                r.tasks[t.index()].finish_s <= planned * (1.0 + 1e-9),
                "{t} finished late"
            );
        }
    }

    #[test]
    fn reclaim_only_slows_down() {
        let g = coarse_graph(5);
        let (sol, d) = solved(&g, 1.5);
        let actual = actual_cycles(&g, 0.4, 0.8, 17);
        let r = simulate(&g, &sol, &actual, d, Policy::SlackReclaim, &cfg());
        for t in r.tasks.iter() {
            assert!(t.vdd <= sol.level.vdd + 1e-12);
        }
    }

    #[test]
    fn reclaim_keeps_a_sub_critical_plan_at_its_level() {
        // Plain LAMPS (no shutdown) may plan below the critical level.
        // Reclamation never undercuts such a plan and does not raise it
        // to the critical level either: every task runs at the plan
        // level, exactly as under the static policy.
        let g = coarse_graph(1);
        let cfg = cfg();
        let d = 4.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let sol = solve(Strategy::Lamps, &g, d, &cfg).unwrap();
        assert!(sol.level.freq < cfg.levels.critical().freq);
        let actual = actual_cycles(&g, 0.4, 0.8, 19);
        let stat = simulate(&g, &sol, &actual, d, Policy::Static, &cfg);
        let rec = simulate(&g, &sol, &actual, d, Policy::SlackReclaim, &cfg);
        assert!(rec.deadline_met);
        assert_eq!(rec.dvs_switches, 0);
        for t in &rec.tasks {
            assert_eq!(t.vdd.to_bits(), sol.level.vdd.to_bits(), "{}", t.task);
        }
        assert_eq!(rec.total_energy().to_bits(), stat.total_energy().to_bits());
    }

    #[test]
    fn mpeg_slack_reclamation_case_study() {
        // The Tennis weights are maxima; encode a GOP whose frames take
        // 60–90% of the budget.
        let g = mpeg::paper_gop();
        let cfg = cfg();
        let sol = solve(Strategy::LampsPs, &g, mpeg::GOP_DEADLINE_SECONDS, &cfg).unwrap();
        let actual = actual_cycles(&g, 0.6, 0.9, 42);
        let stat = simulate(
            &g,
            &sol,
            &actual,
            mpeg::GOP_DEADLINE_SECONDS,
            Policy::Static,
            &cfg,
        );
        let rec = simulate(
            &g,
            &sol,
            &actual,
            mpeg::GOP_DEADLINE_SECONDS,
            Policy::SlackReclaim,
            &cfg,
        );
        assert!(stat.deadline_met && rec.deadline_met);
        assert!(rec.total_energy() <= stat.total_energy() * 1.001);
    }

    /// A fault plan overrunning every `every`-th non-empty task by
    /// `factor` (a mis-characterized WCET).
    fn overrun_plan(g: &TaskGraph, every: usize, factor: f64) -> FaultPlan {
        FaultPlan {
            overruns: g
                .tasks()
                .filter(|&t| g.weight(t) > 0 && t.index() % every == 0)
                .map(|task| Overrun { task, factor })
                .collect(),
            ..FaultPlan::none()
        }
    }

    fn run_faulty(
        g: &TaskGraph,
        sol: &Solution,
        actual: &[u64],
        plan: &FaultPlan,
        d: f64,
        policy: RecoveryPolicy,
    ) -> FaultyRunReport {
        run_with_faults(
            g,
            sol,
            actual,
            plan,
            d,
            policy,
            &cfg(),
            &DvsSwitchCost::free(),
        )
        .unwrap()
    }

    #[test]
    fn overruns_are_detected_not_hidden() {
        // Inject 2x overruns on a plan with a tight deadline: the report
        // must flag the deadline miss rather than silently absorbing it.
        let g = coarse_graph(7);
        let (sol, d) = solved(&g, 1.5);
        let plan = overrun_plan(&g, 1, 2.0);
        for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
            let r = run_faulty(&g, &sol, g.weights(), &plan, d, policy);
            assert!(!r.outcome.met(), "{policy:?} must miss with 2x overruns");
            assert!(r.makespan_s > sol.makespan_s);
        }
    }

    #[test]
    fn mild_rare_overruns_can_be_absorbed() {
        // One-in-ten tasks overrunning by 5% under a loose plan still
        // meets the deadline — slack absorbs it.
        let g = coarse_graph(8);
        let (sol, d) = solved(&g, 4.0);
        let actual = actual_cycles(&g, 0.7, 0.9, 5);
        let plan = overrun_plan(&g, 10, 1.05);
        let r = run_faulty(&g, &sol, &actual, &plan, d, RecoveryPolicy::Absorb);
        assert!(r.outcome.met());
        assert!(!r.injected.is_empty(), "the overruns must fire");
    }

    #[test]
    fn reclaim_recovers_at_fastest_level_after_overrun() {
        // A destroyed window must push the affected task to a recovery
        // level at least as fast as the plan, never slower.
        let g = coarse_graph(9);
        let (sol, d) = solved(&g, 1.5);
        let plan = overrun_plan(&g, 2, 1.8);
        let r = run_faulty(&g, &sol, g.weights(), &plan, d, RecoveryPolicy::Boost);
        let late_started: Vec<_> = r
            .tasks
            .iter()
            .flatten()
            .filter(|t| {
                let planned_start = sol.schedule.start(t.task) as f64 / sol.level.freq;
                t.start_s > planned_start * (1.0 + 1e-9) + 1e-12
            })
            .collect();
        assert!(!late_started.is_empty(), "overruns must delay something");
        for t in late_started {
            assert!(
                t.vdd >= sol.level.vdd - 1e-12,
                "{}: recovery must not run slower than plan",
                t.task
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds WCET")]
    fn overlong_actuals_rejected() {
        let g = coarse_graph(6);
        let (sol, d) = solved(&g, 2.0);
        let mut actual = g.weights().to_vec();
        actual[0] += 1;
        simulate(&g, &sol, &actual, d, Policy::Static, &cfg());
    }

    #[test]
    fn zero_weight_tasks_handled() {
        let mut b = lamps_taskgraph::GraphBuilder::new();
        let e = b.add_task(0);
        let a = b.add_task(3_100_000);
        let x = b.add_task(0);
        b.add_edge(e, a).unwrap();
        b.add_edge(a, x).unwrap();
        let g = b.build().unwrap();
        let (sol, d) = solved(&g, 4.0);
        let r = simulate(&g, &sol, g.weights(), d, Policy::SlackReclaim, &cfg());
        assert!(r.deadline_met);
        assert_eq!(r.tasks[0].cycles, 0);
    }
}

#[cfg(test)]
mod switch_cost_tests {
    //! Reclamation under a costly regulator, through the online runtime
    //! (the plain simulator switches for free).
    use super::*;
    use crate::online::{run_online, OnlineConfig, OnlineReport, OnlineStream};
    use crate::recovery::RunOutcome;
    use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
    use lamps_kpn::{PeriodicDag, PeriodicSet};

    fn wide_dag() -> PeriodicDag {
        let mut s = PeriodicSet::new();
        let src = s.add("src", 8_000_000, 31_000_000);
        for i in 0..4 {
            let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
            s.depends(src, w).unwrap();
        }
        s.to_frame_dag()
    }

    fn run(lo: f64, hi: f64, ocfg: OnlineConfig) -> OnlineReport {
        let dag = wide_dag();
        let cfg = SchedulerConfig::paper();
        let stream =
            OnlineStream::synthesize(&dag, 1, 6, 1.0, lo, hi, None, cfg.max_frequency(), 5);
        run_online(&dag, &stream, &ocfg, &cfg).unwrap()
    }

    fn reclaiming(switch: DvsSwitchCost) -> OnlineConfig {
        OnlineConfig {
            switch,
            ..OnlineConfig::reclaiming()
        }
    }

    fn all_met(r: &OnlineReport) -> bool {
        r.frames
            .iter()
            .all(|f| matches!(f.outcome, Some(RunOutcome::MetDeadline)))
    }

    #[test]
    fn static_policy_never_switches() {
        let ocfg = OnlineConfig {
            reclaim: false,
            ..reclaiming(DvsSwitchCost::typical())
        };
        let r = run(0.4, 0.7, ocfg);
        assert_eq!(r.dvs_switches, 0);
        assert!(all_met(&r));
    }

    #[test]
    fn costly_switching_still_meets_deadlines_and_taxes_the_gain() {
        let free = run(0.4, 0.7, reclaiming(DvsSwitchCost::free()));
        let costly = run(0.4, 0.7, reclaiming(DvsSwitchCost::typical()));
        assert!(all_met(&free) && all_met(&costly));
        // Reclamation switches at least sometimes.
        assert!(free.dvs_switches > 0);
        // Cost can only add energy for the same decisions or dampen
        // reclamation; it must not create a free lunch.
        assert!(costly.total_energy() >= free.total_energy() - 1e-9);
    }

    #[test]
    fn huge_switch_latency_is_budgeted_not_fatal() {
        // A pathological 5 ms regulator under stretch-only reclamation
        // (a zero re-solve budget, the plain simulator's rule): windows
        // shrink by the settle time so levels stay closer to the plan,
        // but every task still finishes by its statically planned finish
        // (frame-relative), and so every job meets its due time.
        let slow = DvsSwitchCost {
            latency_s: 5e-3,
            energy_j: 1e-5,
        };
        let stretch_only = |switch| OnlineConfig {
            frame_budget: SolveBudget::steps(0),
            ..reclaiming(switch)
        };
        let ocfg = stretch_only(slow);
        let r = run(0.5, 0.9, ocfg.clone());
        let free = run(0.5, 0.9, stretch_only(DvsSwitchCost::free()));
        assert!(all_met(&r));
        assert!(free.dvs_switches > 0, "the stream must invite stretching");
        assert!(r.dvs_switches <= free.dvs_switches);

        let dag = wide_dag();
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        let sol = solve_with_deadlines(ocfg.strategy, &dag.graph, &dv, &SchedulerConfig::paper())
            .unwrap();
        let mut checked = 0;
        for f in &r.frames {
            for rec in f.tasks.iter().flatten() {
                let planned = sol.schedule.finish(rec.task) as f64 / sol.level.freq;
                assert!(
                    rec.finish_s <= planned * (1.0 + 1e-9) + 1e-12,
                    "frame {}: {} finished at {} after its planned {planned}",
                    f.frame,
                    rec.task,
                    rec.finish_s
                );
                checked += 1;
            }
        }
        assert_eq!(checked, r.frames.len() * dag.graph.len());
    }
}
