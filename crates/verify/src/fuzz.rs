//! Deterministic differential fuzzer.
//!
//! Each iteration derives its own seed from the run seed (SplitMix64),
//! generates a random DAG or a random KPN unrolling, and pushes it
//! through every check the subsystem has:
//!
//! * the four strategies solve it; every `Ok` solution must pass the
//!   independent validator ([`crate::validator::check_solution`]);
//! * the walking evaluator, the idle-summary evaluator, and the
//!   from-scratch re-bill must agree on the emitted schedule at *every*
//!   feasible level, with and without shutdown (`evaluate` vs
//!   `evaluate_summary` bitwise, re-bill to 1e-12);
//! * the §4 dominance chain must hold across the four energies;
//! * on tiny instances the exhaustive oracle proves no strategy beats
//!   the optimum;
//! * infeasible and degenerate deadlines must be rejected, not mis-solved;
//! * the fault dimension: the LAMPS+PS solution is executed under the
//!   case's fault plan (random WCET overruns plus at most one
//!   fail-stop) with both recovery policies — the fault-tolerant
//!   runtime must never panic, and every recovered trace must pass the
//!   independent runtime validator and energy re-bill
//!   ([`crate::runtime::check_run`]);
//! * the online dimension: cases carrying a periodic set run their
//!   frame stream through the online runtime (fault preset drawn from
//!   the seed, overloaded arrivals, tight budgets) under `catch_unwind`
//!   with reclamation on and off — every trace must pass
//!   [`crate::runtime::check_online`], a worst-case on-time stream must
//!   make reclamation a bitwise no-op, and the incremental
//!   [`SuffixSolver`] must match the from-scratch
//!   [`resolve_suffix_fresh`] reference, which schedules on the list
//!   scheduler's heap oracle, bit for bit — also with jobs in flight
//!   and a processor dead.
//!
//! A failing case is greedily shrunk (drop tasks, drop edges, halve
//! weights, thin the fault and online dimensions) while it keeps
//! failing, and returned for the caller to write into the regression
//! corpus.

use crate::case::Case;
use crate::oracle::{exhaustive_optimum, OracleConfig, OracleError};
use crate::runtime::check_run;
use crate::validator::{check_solution, rebill};
use lamps_core::multi::{solve_with_deadlines, solve_with_deadlines_unpruned, DeadlineVector};
use lamps_core::suffix::{resolve_suffix_fresh, SuffixContext, SuffixSolver};
use lamps_core::{
    evaluate_graphs, solve, solve_with_budget_cache, solve_with_cache_unpruned, BatchJob,
    BudgetedSolution, ScheduleCache, SchedulerConfig, Solution, SolveBudget, SolveError, Strategy,
};
use lamps_energy::{evaluate, evaluate_summary};
use lamps_kpn::{unroll, Network, UnrollConfig};
use lamps_sched::partial::PartialSchedule;
use lamps_sched::{IdleSummary, ProcId};
use lamps_sim::workload::actual_cycles;
use lamps_sim::{run_with_faults, DvsSwitchCost, FailStop, FaultPlan, Overrun, RecoveryPolicy};
use lamps_taskgraph::rng::{splitmix64, Rng};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::panic::AssertUnwindSafe;

/// Fuzzing budget and instance-size knobs.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of random cases to generate and check.
    pub iterations: u64,
    /// Run seed; every per-iteration seed derives from it.
    pub seed: u64,
    /// Largest random DAG (KPN unrollings may slightly exceed this).
    pub max_tasks: usize,
    /// Run the exhaustive oracle on instances up to this many tasks.
    pub oracle_max_tasks: usize,
    /// Topological-order budget per oracle run.
    pub oracle_order_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iterations: 200,
            seed: 2006,
            max_tasks: 24,
            oracle_max_tasks: 6,
            oracle_order_budget: 20_000,
        }
    }
}

/// Statistics from one successfully checked case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Solutions that were validated.
    pub solutions: usize,
    /// Whether the exhaustive oracle ran on this case.
    pub oracle_used: bool,
}

/// A fuzz failure: the original case, its shrunk form, and what went
/// wrong on the shrunk form.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case as generated.
    pub case: Case,
    /// The greedily shrunk still-failing case.
    pub shrunk: Case,
    /// Human-readable violation descriptions for the shrunk case.
    pub violations: Vec<String>,
}

/// Outcome of a fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Iterations completed (including the failing one, if any).
    pub iterations_run: u64,
    /// Total solutions validated.
    pub checked_solutions: u64,
    /// Cases additionally proven against the exhaustive oracle.
    pub oracle_instances: u64,
    /// The first failure, if any (the run stops at the first).
    pub failure: Option<FuzzFailure>,
}

impl FuzzOutcome {
    /// Whether the run finished with zero violations.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Run `check_case` on every violation the full cross-check battery can
/// raise for `case`. `Ok` carries coverage statistics; `Err` carries
/// violation descriptions.
pub fn check_case(
    case: &Case,
    scfg: &SchedulerConfig,
    fz: &FuzzConfig,
) -> Result<CaseStats, Vec<String>> {
    let mut violations = Vec::new();
    let mut stats = CaseStats::default();
    let graph = match case.graph() {
        Ok(g) => g,
        Err(e) => return Err(vec![format!("case does not build a DAG: {e}")]),
    };
    let deadline_s = case.deadline_s(&graph, scfg);

    // Degenerate deadline (all-zero-weight graph): must be rejected.
    if !(deadline_s.is_finite() && deadline_s > 0.0) {
        for s in Strategy::all() {
            if let Ok(sol) = solve(s, &graph, deadline_s, scfg) {
                violations.push(format!(
                    "{s}: accepted degenerate deadline {deadline_s} s with energy {} J",
                    sol.energy.total()
                ));
            }
        }
        return if violations.is_empty() {
            Ok(stats)
        } else {
            Err(violations)
        };
    }

    let feasible = graph.critical_path_cycles() <= scfg.deadline_cycles(deadline_s);
    let mut energies: [Option<f64>; 4] = [None; 4];

    for (si, strategy) in Strategy::all().into_iter().enumerate() {
        match solve(strategy, &graph, deadline_s, scfg) {
            Ok(sol) => {
                if !feasible {
                    violations.push(format!(
                        "{strategy}: accepted an infeasible deadline ({} cycles of critical path, {} allowed)",
                        graph.critical_path_cycles(),
                        scfg.deadline_cycles(deadline_s)
                    ));
                }
                for v in check_solution(&graph, &sol, deadline_s, scfg) {
                    violations.push(format!("{strategy}: {v}"));
                }
                differential_check(&sol.schedule, deadline_s, scfg, &mut violations, &strategy);
                pruning_differential(
                    &graph,
                    &sol,
                    deadline_s,
                    scfg,
                    &mut violations,
                    &strategy,
                    case.seed,
                );
                energies[si] = Some(sol.energy.total());
                stats.solutions += 1;
            }
            Err(SolveError::Infeasible { .. }) if !feasible => {}
            Err(SolveError::Infeasible { .. }) => violations.push(format!(
                "{strategy}: reported Infeasible though the critical path fits the deadline"
            )),
            Err(e) => violations.push(format!("{strategy}: unexpected solver error: {e}")),
        }
    }

    // Batch dimension: the batch API's recycled caches and precomputed
    // cutoffs must change nothing — not the errors, not the last bit.
    batch_differential(&graph, deadline_s, scfg, &mut violations);

    // §4 dominance chain over the four totals.
    if let [Some(ss), Some(lamps), Some(ss_ps), Some(lamps_ps)] = energies {
        let eps = 1e-9;
        let chain = [
            ("LAMPS", lamps, "S&S", ss),
            ("S&S+PS", ss_ps, "S&S", ss),
            ("LAMPS+PS", lamps_ps, "LAMPS", lamps),
            ("LAMPS+PS", lamps_ps, "S&S+PS", ss_ps),
        ];
        for (better, b, worse, w) in chain {
            if b > w * (1.0 + eps) {
                violations.push(format!(
                    "dominance violated: {better} = {b} J exceeds {worse} = {w} J"
                ));
            }
        }
    }

    // Exhaustive oracle on tiny feasible instances.
    if feasible && graph.len() <= fz.oracle_max_tasks {
        let ocfg = OracleConfig {
            max_procs: graph.len(),
            order_budget: fz.oracle_order_budget,
        };
        match exhaustive_optimum(&graph, deadline_s, scfg, &ocfg) {
            Ok(oracle) => {
                stats.oracle_used = true;
                for (si, strategy) in Strategy::all().into_iter().enumerate() {
                    let Some(e) = energies[si] else { continue };
                    let bound = if strategy.uses_ps() {
                        oracle.best_ps
                    } else {
                        oracle.best_no_ps
                    };
                    if e < bound * (1.0 - 1e-9) {
                        violations.push(format!(
                            "{strategy}: {e} J beats the exhaustive optimum {bound} J"
                        ));
                    }
                }
            }
            Err(OracleError::BudgetExceeded { .. }) => {}
            Err(OracleError::Infeasible) => violations.push(
                "oracle found no feasible configuration though the critical path fits".to_string(),
            ),
        }
    }

    // Fault dimension: execute the best strategy's schedule under the
    // case's fault plan with both recovery policies.
    if feasible {
        if let Ok(sol) = solve(Strategy::LampsPs, &graph, deadline_s, scfg) {
            fault_battery(case, &graph, &sol, deadline_s, scfg, &mut violations);
        }
    }

    // Online dimension: the periodic frame stream through the online
    // runtime, the trace through its validator, the incremental suffix
    // solver against the from-scratch reference.
    match case.online_dag() {
        None => {}
        Some(Err(e)) => violations.push(format!("online set does not build: {e}")),
        Some(Ok(dag)) => online_battery(case, &dag, scfg, &mut violations),
    }

    if violations.is_empty() {
        Ok(stats)
    } else {
        Err(violations)
    }
}

/// Build the [`FaultPlan`] a case implies for a concrete solution. The
/// fail-stop processor index is reduced modulo the employed count;
/// overruns on out-of-range tasks (possible mid-shrink) are dropped.
fn case_fault_plan(case: &Case, graph: &TaskGraph, n_procs: usize, deadline_s: f64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut seen = vec![false; graph.len()];
    for &(t, factor) in &case.overruns {
        let i = t as usize;
        if i < graph.len() && !seen[i] {
            seen[i] = true;
            plan.overruns.push(Overrun {
                task: TaskId(t),
                factor,
            });
        }
    }
    if let Some((p, frac)) = case.fail_stop {
        plan.fail_stop = Some(FailStop {
            proc: ProcId(p % n_procs.max(1) as u32),
            at_s: frac * deadline_s,
        });
    }
    plan
}

/// Run the fault-tolerant runtime on one solved case and validate the
/// trace: no panic, no input rejection, and a clean [`check_run`].
fn fault_battery(
    case: &Case,
    graph: &TaskGraph,
    sol: &Solution,
    deadline_s: f64,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
) {
    let plan = case_fault_plan(case, graph, sol.n_procs, deadline_s);
    let actual = actual_cycles(graph, 0.6, 1.0, case.seed);
    let sw = DvsSwitchCost::typical();
    for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_with_faults(graph, sol, &actual, &plan, deadline_s, policy, scfg, &sw)
        }));
        match outcome {
            Err(_) => violations.push(format!(
                "fault runtime panicked under {policy:?} (overruns: {}, fail_stop: {})",
                plan.overruns.len(),
                plan.fail_stop.is_some()
            )),
            Ok(Err(e)) => violations.push(format!(
                "fault runtime rejected a well-formed input under {policy:?}: {e}"
            )),
            Ok(Ok(report)) => {
                for rv in check_run(graph, sol, &actual, &plan, &report, deadline_s, scfg, &sw) {
                    violations.push(format!("fault trace ({policy:?}): {rv}"));
                }
            }
        }
    }
}

/// Per-task-deadline dimension of the pruning differential: every
/// strategy's [`solve_with_deadlines`] answer must match the reference
/// engine on the same `lf`-keyed cache with its shortcuts off
/// ([`solve_with_deadlines_unpruned`]) bit for bit, and the two must fail
/// with the same error.
fn deadline_differential(
    graph: &TaskGraph,
    dv: &DeadlineVector,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
) {
    for strategy in Strategy::all() {
        let got = solve_with_deadlines(strategy, graph, dv, scfg);
        let oracle = solve_with_deadlines_unpruned(strategy, graph, dv, scfg);
        let agree = match (&got, &oracle) {
            (Ok(a), Ok(b)) => {
                a.n_procs == b.n_procs
                    && a.makespan_cycles == b.makespan_cycles
                    && a.level.freq.to_bits() == b.level.freq.to_bits()
                    && a.energy.total().to_bits() == b.energy.total().to_bits()
            }
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        if !agree {
            let show = |r: &Result<Solution, SolveError>| match r {
                Ok(s) => format!("n {}, {} J", s.n_procs, s.energy.total()),
                Err(e) => format!("error {e}"),
            };
            violations.push(format!(
                "{strategy}: per-task-deadline solve diverged from the unpruned reference: {} vs {}",
                show(&got),
                show(&oracle)
            ));
        }
    }
}

/// Run one online case through the runtime under both configurations
/// (reclaiming and static), validate every trace with
/// [`crate::runtime::check_online`], hold the no-slack bitwise
/// reproduction invariant, and differentiate the incremental
/// [`SuffixSolver`] against [`resolve_suffix_fresh`].
fn online_battery(
    case: &Case,
    dag: &lamps_kpn::PeriodicDag,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
) {
    use lamps_sim::{run_online, FaultIntensity, FrameTable, OnlineConfig, OnlineStream, SimError};

    let f_max = scfg.max_frequency();
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    deadline_differential(&dag.graph, &dv, scfg, violations);
    let sol = match solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, scfg) {
        Ok(s) => s,
        Err(_) => {
            // The frame is infeasible at every level: the runtime must
            // say so with a typed error, not panic or mis-run.
            let stream = OnlineStream::periodic(dag, 1, 1.0, f_max);
            let ocfg = OnlineConfig::reclaiming();
            match std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_online(dag, &stream, &ocfg, scfg)
            })) {
                Err(_) => violations.push("online runtime panicked on an infeasible set".into()),
                Ok(Err(SimError::PlanFailed(_))) => {}
                Ok(r) => violations.push(format!(
                    "online runtime did not report PlanFailed on an infeasible set: {:?}",
                    r.map(|_| ())
                )),
            }
            return;
        }
    };

    let budget = match case.online_budget {
        Some(steps) => SolveBudget::steps(steps),
        None => SolveBudget::unlimited(),
    };
    let intensity = match case.seed % 4 {
        0 => None,
        1 => Some(FaultIntensity::mild()),
        2 => Some(FaultIntensity::moderate()),
        _ => Some(FaultIntensity::severe()),
    };
    let stream = OnlineStream::synthesize(
        dag,
        sol.n_procs,
        case.online_frames as usize,
        case.online_arrival,
        0.5,
        0.95,
        intensity.as_ref(),
        f_max,
        case.seed,
    );
    // The same frames with each one's last job dropped.
    let (arrivals, jobs, actual, plans) = stream.frames.to_parts();
    let short = actual
        .chunks_exact(jobs)
        .flat_map(|frame| &frame[..jobs - 1])
        .copied()
        .collect();
    let skewed = OnlineStream {
        frames: FrameTable::from_parts(arrivals, jobs - 1, short, plans)
            .expect("one shorter stride per frame"),
    };
    let configs = [
        OnlineConfig {
            frame_budget: budget.clone(),
            switch: DvsSwitchCost::typical(),
            ..OnlineConfig::reclaiming()
        },
        OnlineConfig {
            switch: DvsSwitchCost::typical(),
            ..OnlineConfig::static_plan()
        },
    ];
    for ocfg in &configs {
        let label = if ocfg.reclaim { "reclaim" } else { "static" };
        match std::panic::catch_unwind(AssertUnwindSafe(|| run_online(dag, &stream, ocfg, scfg))) {
            Err(_) => violations.push(format!(
                "online runtime panicked ({label}, {} frames, arrival {})",
                case.online_frames, case.online_arrival
            )),
            Ok(Err(e)) => violations.push(format!(
                "online runtime rejected a well-formed stream ({label}): {e}"
            )),
            Ok(Ok(report)) => {
                for rv in crate::runtime::check_online(dag, &stream, ocfg, scfg, &report) {
                    violations.push(format!("online trace ({label}): {rv}"));
                }
                // The runtime must reject the short stride (below) and
                // the checker must flag it.
                if crate::runtime::check_online(dag, &skewed, ocfg, scfg, &report).is_empty() {
                    violations.push(format!(
                        "check_online accepted a stream at the wrong stride ({label})"
                    ));
                }
            }
        }
        let n = dag.graph.len();
        match run_online(dag, &skewed, ocfg, scfg) {
            Err(SimError::WrongActualLength { expected, got }) if (expected, got) == (n, n - 1) => {
            }
            r => violations.push(format!(
                "online runtime did not reject a stream at the wrong stride ({label}): {:?}",
                r.map(|_| ())
            )),
        }
    }

    // No-slack reproduction: a worst-case on-time stream must make
    // reclamation a bitwise no-op.
    let ns = OnlineStream::periodic(dag, 2, case.online_arrival.max(1.0), f_max);
    let on = run_online(dag, &ns, &OnlineConfig::reclaiming(), scfg);
    let off = run_online(dag, &ns, &OnlineConfig::static_plan(), scfg);
    match (on, off) {
        (Ok(a), Ok(b)) => {
            if a.resolves != 0 {
                violations.push(format!(
                    "no-slack stream triggered {} reclaim re-solves",
                    a.resolves
                ));
            }
            if a.total_energy().to_bits() != b.total_energy().to_bits() {
                violations.push(format!(
                    "no-slack stream: reclaim on {} J differs from off {} J",
                    a.total_energy(),
                    b.total_energy()
                ));
            }
            for (fa, fb) in a.frames.iter().zip(&b.frames) {
                if fa.tasks != fb.tasks {
                    violations.push(format!(
                        "no-slack stream: frame {} records differ between reclaim on/off",
                        fa.frame
                    ));
                }
            }
        }
        (a, b) => violations.push(format!(
            "no-slack stream failed to run: on {:?}, off {:?}",
            a.map(|_| ()),
            b.map(|_| ())
        )),
    }

    suffix_differential(dag, &sol, scfg, violations);
}

/// Differentiate the arena-recycling [`SuffixSolver`] against the
/// from-scratch [`resolve_suffix_fresh`] reference — the indexed list
/// scheduler against its heap oracle — on mid-frame states of the
/// case's static plan: same feasibility, same level bits, same pending
/// assignment and finish times, same per-processor order, same step
/// counts — with and without a candidate cap, reusing one solver so the
/// key memo is exercised. Each cut is tried with every processor idle,
/// with each processor's next planned job in flight on a WCET estimate
/// past `now` (staggered availability), and with one processor dead
/// besides when another survives.
fn suffix_differential(
    dag: &lamps_kpn::PeriodicDag,
    sol: &Solution,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
) {
    let graph = &dag.graph;
    let n = graph.len();
    let n_procs = sol.n_procs;
    let f_max = scfg.max_frequency();
    let horizon_s = dag.hyperperiod_cycles as f64 / f_max;
    let due_s: Vec<f64> = dag
        .deadlines
        .iter()
        .map(|d| d.unwrap_or(dag.hyperperiod_cycles) as f64 / f_max)
        .collect();
    let mut order: Vec<TaskId> = graph.tasks().collect();
    order.sort_by_key(|&t| (sol.schedule.finish(t), t.0));
    let candidates: Vec<_> = scfg.levels.points().to_vec();
    let mut solver = SuffixSolver::new();
    let mut plan = PartialSchedule::new();

    for cut in [n / 3, n / 2, (2 * n) / 3] {
        if cut >= n {
            continue;
        }
        // The first `cut` jobs (in plan finish order, so the prefix is
        // precedence-closed) finished 10% early.
        let mut finished = vec![false; n];
        let mut finish_s = vec![0.0f64; n];
        for &t in order.iter().take(cut) {
            finished[t.index()] = true;
            finish_s[t.index()] = sol.schedule.finish(t) as f64 / sol.level.freq * 0.9;
        }
        let now_s = finish_s.iter().fold(0.0f64, |a, &b| a.max(b));
        let idle = vec![None; n_procs];
        let in_flight: Vec<Option<(TaskId, f64)>> = (0..n_procs)
            .map(|p| {
                let next = sol
                    .schedule
                    .tasks_on(ProcId(p as u32))
                    .iter()
                    .copied()
                    .find(|t| !finished[t.index()])?;
                let ready = graph.predecessors(next).iter().all(|q| finished[q.index()]);
                let wcet_s = graph.weight(next).max(1) as f64 / sol.level.freq;
                ready.then_some((next, now_s + wcet_s))
            })
            .collect();
        let all_live = vec![false; n_procs];
        let mut shapes = vec![
            ("idle", idle, all_live.clone()),
            ("in-flight", in_flight.clone(), all_live),
        ];
        if n_procs > 1 {
            // The dead processor's job is not in flight: it re-plans.
            let p_dead = cut % n_procs;
            let mut running = in_flight;
            running[p_dead] = None;
            let mut dead = vec![false; n_procs];
            dead[p_dead] = true;
            shapes.push(("one-dead", running, dead));
        }
        for (shape, running, dead) in &shapes {
            let ctx = SuffixContext {
                finished: &finished,
                finish_s: &finish_s,
                running,
                dead,
                now_s,
                deadline_s: horizon_s,
                own_due_s: Some(&due_s),
            };
            for cap in [None, Some(3u64)] {
                let what = format!("suffix differential (cut {cut}, {shape}, cap {cap:?})");
                let a = solver.resolve(graph, &ctx, &candidates, cap, &mut plan);
                let b = resolve_suffix_fresh(graph, &ctx, &candidates, cap);
                match (&a, &b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        if a.level.freq.to_bits() != b.level.freq.to_bits()
                            || a.feasible != b.feasible
                            || a.steps != b.steps
                            || a.complete != b.complete
                        {
                            violations.push(format!(
                                "{what}: solver (vdd {}, feasible {}, steps {}) vs fresh \
                                 (vdd {}, feasible {}, steps {})",
                                a.level.vdd, a.feasible, a.steps, b.level.vdd, b.feasible, b.steps
                            ));
                            continue;
                        }
                        for t in graph.tasks() {
                            if plan.proc(t) != b.plan.proc(t) || plan.finish(t) != b.plan.finish(t)
                            {
                                violations.push(format!(
                                    "{what}: {t} placed at {:?}/{} vs {:?}/{}",
                                    plan.proc(t),
                                    plan.finish(t),
                                    b.plan.proc(t),
                                    b.plan.finish(t)
                                ));
                            }
                        }
                        for p in (0..n_procs as u32).map(ProcId) {
                            if plan.tasks_on(p) != b.plan.tasks_on(p) {
                                violations.push(format!(
                                    "{what}: {p:?} runs {:?} vs {:?}",
                                    plan.tasks_on(p),
                                    b.plan.tasks_on(p)
                                ));
                            }
                        }
                    }
                    _ => violations.push(format!(
                        "{what}: solver {:?} vs fresh {:?}",
                        a.is_some(),
                        b.is_some()
                    )),
                }
            }
        }
    }
}

/// Pruning dimension: re-solve with every solver shortcut disabled —
/// no width plateau, no early scan termination — and demand the
/// bitwise-identical
/// solution. A budget leg repeats the comparison under a step cap drawn
/// from `seed`: at any cap both engines must pick the same solution, and
/// a degraded pruned answer must report exactly the reference's steps.
/// This is the differential that keeps the pruned hot path honest; the
/// gauntlet's mutation checks prove it actually fires on an unsound
/// bound.
pub fn pruning_differential(
    graph: &TaskGraph,
    sol: &Solution,
    deadline_s: f64,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
    strategy: &Strategy,
    seed: u64,
) {
    let mut reference = ScheduleCache::for_graph(graph);
    match solve_with_cache_unpruned(*strategy, deadline_s, scfg, &mut reference) {
        Ok(r) => {
            if r.n_procs != sol.n_procs
                || r.makespan_cycles != sol.makespan_cycles
                || r.level.freq.to_bits() != sol.level.freq.to_bits()
                || r.energy.total().to_bits() != sol.energy.total().to_bits()
            {
                violations.push(format!(
                    "{strategy}: pruned solve diverged from the unpruned reference: n {} vs {}, makespan {} vs {}, {} J vs {} J",
                    sol.n_procs,
                    r.n_procs,
                    sol.makespan_cycles,
                    r.makespan_cycles,
                    sol.energy.total(),
                    r.energy.total()
                ));
            }
        }
        Err(e) => violations.push(format!(
            "{strategy}: unpruned reference errored ({e}) though the pruned solve succeeded"
        )),
    }
    let cap = seed % 64;
    let budget = SolveBudget::steps(cap);
    let mut pruned = ScheduleCache::for_graph(graph);
    let got = solve_with_budget_cache(*strategy, deadline_s, scfg, &mut pruned, &budget);
    let oracle = solve_with_budget_cache(*strategy, deadline_s, scfg, &mut reference, &budget);
    let agree = match (&got, &oracle) {
        (Ok(a), Ok(b)) => {
            let (x, y) = (&a.solution, &b.solution);
            let steps_agree = if a.completeness.is_complete() {
                a.steps <= b.steps
            } else {
                a.completeness == b.completeness && a.steps == b.steps
            };
            steps_agree
                && x.n_procs == y.n_procs
                && x.makespan_cycles == y.makespan_cycles
                && x.level.freq.to_bits() == y.level.freq.to_bits()
                && x.energy.total().to_bits() == y.energy.total().to_bits()
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if !agree {
        let show = |r: &Result<BudgetedSolution, SolveError>| match r {
            Ok(b) => format!(
                "n {}, {} J, {} steps, {:?}",
                b.solution.n_procs,
                b.solution.energy.total(),
                b.steps,
                b.completeness
            ),
            Err(e) => format!("error {e}"),
        };
        violations.push(format!(
            "{strategy}: pruned solve under a {cap}-step budget diverged from the reference: {} vs {}",
            show(&got),
            show(&oracle)
        ));
    }
}

/// Batch dimension: push the case through [`evaluate_graphs`] (one
/// job, every strategy), the path the campaign runs, and demand cells
/// bitwise identical to the per-graph [`solve`] calls — same errors on
/// the error paths, same processor count, makespan cycles, frequency,
/// energy and makespan-seconds bits on the solved ones. This is what keeps the batch path's amortized state (recycled
/// cache buffers, batch-wide sleep cutoffs) provably non-semantic.
fn batch_differential(
    graph: &TaskGraph,
    deadline_s: f64,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
) {
    let deadlines = [deadline_s];
    let jobs = [BatchJob {
        graph,
        deadlines_s: &deadlines,
    }];
    let strategies = Strategy::all();
    let batch = evaluate_graphs(&strategies, scfg, &jobs);
    for (k, strategy) in strategies.into_iter().enumerate() {
        let reference = solve(strategy, graph, deadline_s, scfg);
        match (&batch[0][k], &reference) {
            (Ok(a), Ok(b)) => {
                if a.n_procs as usize != b.n_procs
                    || a.makespan_cycles != b.makespan_cycles
                    || a.freq.to_bits() != b.level.freq.to_bits()
                    || a.energy.total().to_bits() != b.energy.total().to_bits()
                    || a.makespan_s().to_bits() != b.makespan_s.to_bits()
                {
                    violations.push(format!(
                        "{strategy}: evaluate_graphs diverged from solve: n {} vs {}, makespan {} vs {} cycles, {} vs {} s, {} Hz vs {} Hz, {} J vs {} J",
                        a.n_procs,
                        b.n_procs,
                        a.makespan_cycles,
                        b.makespan_cycles,
                        a.makespan_s(),
                        b.makespan_s,
                        a.freq,
                        b.level.freq,
                        a.energy.total(),
                        b.energy.total()
                    ));
                }
            }
            (Err(a), Err(b)) => {
                if format!("{a}") != format!("{b}") {
                    violations.push(format!(
                        "{strategy}: evaluate_graphs error diverged: {a} vs {b}"
                    ));
                }
            }
            (a, b) => violations.push(format!(
                "{strategy}: evaluate_graphs disagrees on solvability: batch {:?} vs solo {:?}",
                a.is_ok(),
                b.is_ok()
            )),
        }
    }
}

/// Cross-check the three energy accountants on one schedule at every
/// feasible level, with and without shutdown.
fn differential_check(
    schedule: &lamps_sched::Schedule,
    horizon_s: f64,
    scfg: &SchedulerConfig,
    violations: &mut Vec<String>,
    strategy: &Strategy,
) {
    let summary = IdleSummary::new(schedule);
    let required_freq = schedule.makespan_cycles() as f64 / horizon_s;
    for level in scfg.levels.at_least(required_freq) {
        for ps in [None, Some(&scfg.sleep)] {
            let walk = evaluate(schedule, level, horizon_s, ps);
            let summ = evaluate_summary(&summary, level, horizon_s, ps);
            match (walk, summ) {
                (Ok(w), Ok(s)) => {
                    let fields = [
                        ("active_j", w.active_j, s.active_j),
                        ("idle_j", w.idle_j, s.idle_j),
                        ("sleep_j", w.sleep_j, s.sleep_j),
                        ("transition_j", w.transition_j, s.transition_j),
                    ];
                    for (name, a, b) in fields {
                        if a.to_bits() != b.to_bits() {
                            violations.push(format!(
                                "{strategy}: evaluate/evaluate_summary diverge on {name} at vdd {} (ps={}): {a} vs {b}",
                                level.vdd,
                                ps.is_some()
                            ));
                        }
                    }
                    if w.sleep_episodes != s.sleep_episodes {
                        violations.push(format!(
                            "{strategy}: episode count diverges at vdd {} (ps={}): {} vs {}",
                            level.vdd,
                            ps.is_some(),
                            w.sleep_episodes,
                            s.sleep_episodes
                        ));
                    }
                    let re = rebill(schedule, level, horizon_s, ps);
                    let scale = w.total().abs().max(re.total().abs()).max(1e-30);
                    if (w.total() - re.total()).abs() > 1e-12 * scale {
                        violations.push(format!(
                            "{strategy}: re-bill diverges at vdd {} (ps={}): {} vs {}",
                            level.vdd,
                            ps.is_some(),
                            w.total(),
                            re.total()
                        ));
                    }
                    if w.sleep_episodes != re.sleep_episodes {
                        violations.push(format!(
                            "{strategy}: re-bill episode count diverges at vdd {} (ps={}): {} vs {}",
                            level.vdd,
                            ps.is_some(),
                            w.sleep_episodes,
                            re.sleep_episodes
                        ));
                    }
                }
                (Err(_), Err(_)) => {}
                (w, s) => violations.push(format!(
                    "{strategy}: evaluate/evaluate_summary disagree on feasibility at vdd {}: {:?} vs {:?}",
                    level.vdd,
                    w.is_ok(),
                    s.is_ok()
                )),
            }
        }
    }
}

/// Generate one random case from an iteration RNG.
pub fn gen_case(rng: &mut Rng, seed: u64, max_tasks: usize) -> Case {
    let mut case = if rng.gen_bool(0.25) {
        gen_kpn_case(rng, seed)
    } else {
        gen_dag_case(rng, seed, max_tasks)
    };
    if rng.gen_bool(0.2) {
        attach_online(rng, &mut case);
    }
    case
}

const GRAINS: [u64; 3] = [1, 31_000, 3_100_000];

fn gen_factor(rng: &mut Rng) -> f64 {
    if rng.gen_bool(0.1) {
        // Deliberately infeasible (below the critical path).
        rng.gen_range(0.3f64..0.99)
    } else {
        rng.gen_range(1.05f64..8.0)
    }
}

/// A case's fault dimension: `(overruns, fail_stop)` in the `Case`
/// field encoding — `(task, factor)` pairs and an optional
/// `(proc, deadline_fraction)`.
type CaseFaults = (Vec<(u32, f64)>, Option<(u32, f64)>);

/// Random fault dimension: occasional WCET overruns plus at most one
/// fail-stop, attached to roughly half of the generated cases.
fn gen_faults(rng: &mut Rng, n_tasks: usize) -> CaseFaults {
    let mut overruns = Vec::new();
    if rng.gen_bool(0.45) {
        for t in 0..n_tasks as u32 {
            if rng.gen_bool(0.2) {
                overruns.push((t, rng.gen_range(1.05f64..=2.5)));
            }
        }
    }
    let fail_stop = if rng.gen_bool(0.35) {
        Some((rng.gen_range(0u32..8), rng.gen_range(0.05f64..=0.9)))
    } else {
        None
    };
    (overruns, fail_stop)
}

fn gen_dag_case(rng: &mut Rng, seed: u64, max_tasks: usize) -> Case {
    let n = rng.gen_range(2usize..=max_tasks.max(2));
    let grain = GRAINS[rng.gen_range(0usize..GRAINS.len())];
    let mut weights: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.05) {
                0 // zero-length tasks stress gap merging
            } else {
                rng.gen_range(1u64..=20) * grain
            }
        })
        .collect();
    if weights.iter().all(|&w| w == 0) {
        weights[0] = grain.max(1);
    }
    let p = rng.gen_range(0.05f64..0.5);
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push((i, j));
            }
        }
    }
    let (overruns, fail_stop) = gen_faults(rng, n);
    Case {
        weights,
        edges,
        deadline_factor: gen_factor(rng),
        seed,
        origin: "dag".to_string(),
        overruns,
        fail_stop,
        ..Case::default()
    }
}

fn gen_kpn_case(rng: &mut Rng, seed: u64) -> Case {
    let n = rng.gen_range(2usize..=5);
    let grain = GRAINS[rng.gen_range(1usize..GRAINS.len())];
    let mut net = Network::new();
    let ids: Vec<_> = (0..n)
        .map(|i| net.add_process(format!("p{i}"), rng.gen_range(1u64..=20) * grain))
        .collect();
    let mut connected = false;
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.4) {
                let delay = rng.gen_range(0u32..=1);
                net.connect_delayed(ids[i], ids[j], delay)
                    .expect("ids valid");
                connected = true;
            }
        }
    }
    if !connected {
        net.connect(ids[0], ids[1]).expect("ids valid");
    }
    let copies = rng.gen_range(2usize..=4);
    let u = unroll(
        &net,
        &UnrollConfig {
            copies,
            first_deadline_cycles: 100 * grain,
            period_cycles: 60 * grain,
        },
    )
    .expect("forward channels unroll to a DAG");
    let weights = u.graph.weights().to_vec();
    let (overruns, fail_stop) = gen_faults(rng, weights.len());
    Case {
        weights,
        edges: u.graph.edges().map(|(f, t)| (f.0, t.0)).collect(),
        deadline_factor: gen_factor(rng),
        seed,
        origin: "kpn".to_string(),
        overruns,
        fail_stop,
        ..Case::default()
    }
}

/// Attach a random online periodic dimension: a small harmonic set,
/// sometimes overloaded arrivals, sometimes a tight re-solve budget.
/// Periods come off a power-of-two ladder so every pair is harmonic and
/// the hyperperiod stays one ladder top.
fn attach_online(rng: &mut Rng, case: &mut Case) {
    const BASE: u64 = 7_750_000;
    const LADDER: [u64; 3] = [BASE, 2 * BASE, 4 * BASE];
    let n = rng.gen_range(2usize..=4);
    case.online_tasks = (0..n)
        .map(|_| {
            let p = LADDER[rng.gen_range(0usize..LADDER.len())];
            let frac = rng.gen_range(0.08f64..0.5);
            (((p as f64 * frac) as u64).max(1), p)
        })
        .collect();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.35) {
                case.online_deps.push((a, b));
            }
        }
    }
    case.online_frames = rng.gen_range(2u32..=4);
    case.online_arrival = if rng.gen_bool(0.3) {
        rng.gen_range(0.4f64..0.9) // overload: arrivals outpace the frame
    } else {
        1.0
    };
    case.online_budget = if rng.gen_bool(0.3) {
        Some(rng.gen_range(0u64..6))
    } else {
        None
    };
}

/// Greedily shrink a failing case while it keeps failing: drop tasks,
/// drop edges, halve weights, in rounds, bounded by a fixed attempt
/// budget so shrinking always terminates.
pub fn shrink(case: &Case, scfg: &SchedulerConfig, fz: &FuzzConfig) -> Case {
    const ATTEMPT_BUDGET: usize = 600;
    let fails = |c: &Case| check_case(c, scfg, fz).is_err();
    if !fails(case) {
        return case.clone();
    }
    let mut cur = case.clone();
    let mut attempts = 0usize;
    loop {
        let mut improved = false;
        let mut i = 0;
        while i < cur.weights.len() && cur.weights.len() > 1 && attempts < ATTEMPT_BUDGET {
            let cand = remove_task(&cur, i);
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                i += 1;
            }
        }
        let mut e = 0;
        while e < cur.edges.len() && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.edges.remove(e);
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                e += 1;
            }
        }
        for i in 0..cur.weights.len() {
            if attempts >= ATTEMPT_BUDGET {
                break;
            }
            if cur.weights[i] > 1 {
                let mut cand = cur.clone();
                cand.weights[i] /= 2;
                attempts += 1;
                if fails(&cand) {
                    cur = cand;
                    improved = true;
                }
            }
        }
        // Shrink the fault plan: drop overruns one by one, then the
        // fail-stop.
        let mut o = 0;
        while o < cur.overruns.len() && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.overruns.remove(o);
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                o += 1;
            }
        }
        if cur.fail_stop.is_some() && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.fail_stop = None;
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            }
        }
        // Shrink the online dimension: drop tasks (deps reindexed),
        // drop deps, halve WCETs (never periods — that would change the
        // hyperperiod shape), reduce frames, lift the budget.
        let mut t = 0;
        while t < cur.online_tasks.len() && attempts < ATTEMPT_BUDGET {
            let cand = remove_online_task(&cur, t);
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                t += 1;
            }
        }
        let mut d = 0;
        while d < cur.online_deps.len() && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.online_deps.remove(d);
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                d += 1;
            }
        }
        for i in 0..cur.online_tasks.len() {
            if attempts >= ATTEMPT_BUDGET {
                break;
            }
            if cur.online_tasks[i].0 > 1 {
                let mut cand = cur.clone();
                cand.online_tasks[i].0 /= 2;
                attempts += 1;
                if fails(&cand) {
                    cur = cand;
                    improved = true;
                }
            }
        }
        while cur.online_frames > 1 && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.online_frames -= 1;
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            } else {
                break;
            }
        }
        if cur.online_budget.is_some() && attempts < ATTEMPT_BUDGET {
            let mut cand = cur.clone();
            cand.online_budget = None;
            attempts += 1;
            if fails(&cand) {
                cur = cand;
                improved = true;
            }
        }
        if !improved || attempts >= ATTEMPT_BUDGET {
            break;
        }
    }
    cur.origin = format!("shrunk-{}", case.origin);
    cur
}

/// Drop online task `i`, reindexing the deps; dropping the last task
/// removes the whole online dimension (back to the canonical no-online
/// encoding).
fn remove_online_task(case: &Case, i: usize) -> Case {
    let i = i as u32;
    let mut out = case.clone();
    out.online_tasks.remove(i as usize);
    out.online_deps.retain(|&(a, b)| a != i && b != i);
    for (a, b) in &mut out.online_deps {
        if *a > i {
            *a -= 1;
        }
        if *b > i {
            *b -= 1;
        }
    }
    if out.online_tasks.is_empty() {
        out.online_deps.clear();
        out.online_frames = 0;
        out.online_arrival = 1.0;
        out.online_budget = None;
    }
    out
}

fn remove_task(case: &Case, i: usize) -> Case {
    let i = i as u32;
    let mut out = case.clone();
    out.weights.remove(i as usize);
    out.edges.retain(|&(f, t)| f != i && t != i);
    for (f, t) in &mut out.edges {
        if *f > i {
            *f -= 1;
        }
        if *t > i {
            *t -= 1;
        }
    }
    out.overruns.retain(|&(t, _)| t != i);
    for (t, _) in &mut out.overruns {
        if *t > i {
            *t -= 1;
        }
    }
    out
}

/// Run the fuzzer. Deterministic for a given config; stops at the first
/// failing case, which is returned shrunk.
pub fn run(fz: &FuzzConfig, scfg: &SchedulerConfig) -> FuzzOutcome {
    let mut out = FuzzOutcome::default();
    for it in 0..fz.iterations {
        let mut sm = fz.seed.wrapping_add(it.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let iter_seed = splitmix64(&mut sm);
        let mut rng = Rng::seed_from_u64(iter_seed);
        let case = gen_case(&mut rng, iter_seed, fz.max_tasks);
        out.iterations_run += 1;
        match check_case(&case, scfg, fz) {
            Ok(stats) => {
                out.checked_solutions += stats.solutions as u64;
                out.oracle_instances += stats.oracle_used as u64;
            }
            Err(original_violations) => {
                let shrunk = shrink(&case, scfg, fz);
                let violations = check_case(&shrunk, scfg, fz)
                    .err()
                    .unwrap_or(original_violations);
                out.failure = Some(FuzzFailure {
                    case,
                    shrunk,
                    violations,
                });
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    #[test]
    fn clean_tree_survives_a_fuzz_budget() {
        let fz = FuzzConfig {
            iterations: 60,
            seed: 2006,
            max_tasks: 16,
            oracle_max_tasks: 5,
            oracle_order_budget: 5_000,
        };
        let out = run(&fz, &scfg());
        assert!(
            out.is_clean(),
            "fuzzer found a violation: {:#?}",
            out.failure
        );
        assert_eq!(out.iterations_run, 60);
        assert!(out.checked_solutions > 100, "{}", out.checked_solutions);
        assert!(out.oracle_instances > 0, "oracle never engaged");
    }

    #[test]
    fn run_is_deterministic() {
        let fz = FuzzConfig {
            iterations: 12,
            seed: 7,
            ..FuzzConfig::default()
        };
        let a = run(&fz, &scfg());
        let b = run(&fz, &scfg());
        assert_eq!(a.checked_solutions, b.checked_solutions);
        assert_eq!(a.oracle_instances, b.oracle_instances);
        assert!(a.is_clean() && b.is_clean());
    }

    #[test]
    fn generated_cases_roundtrip_through_the_corpus_format() {
        let mut online_seen = 0usize;
        for it in 0..40u64 {
            let mut sm = it;
            let seed = splitmix64(&mut sm);
            let mut rng = Rng::seed_from_u64(seed);
            let case = gen_case(&mut rng, seed, 12);
            let parsed = Case::parse(&case.serialize()).unwrap();
            assert_eq!(parsed, case);
            parsed.graph().unwrap();
            if let Some(dag) = parsed.online_dag() {
                online_seen += 1;
                dag.unwrap();
            }
        }
        assert!(online_seen > 0, "generator never attached an online set");
    }

    #[test]
    fn online_case_battery_is_clean_and_shrinkable() {
        let fz = FuzzConfig::default();
        let case = Case {
            weights: vec![3_100_000, 6_200_000],
            edges: vec![(0, 1)],
            deadline_factor: 2.0,
            seed: 3, // seed % 4 == 3: the severe fault preset
            origin: "dag".to_string(),
            online_tasks: vec![(2_500_000, 7_750_000), (6_000_000, 15_500_000)],
            online_deps: vec![(0, 1)],
            online_frames: 3,
            online_arrival: 0.7,
            online_budget: Some(2),
            ..Case::default()
        };
        assert!(
            check_case(&case, &scfg(), &fz).is_ok(),
            "{:?}",
            check_case(&case, &scfg(), &fz)
        );
        // A passing case shrinks to itself; dropping an online task
        // keeps the dep indices consistent.
        assert_eq!(shrink(&case, &scfg(), &fz), case);
        let smaller = remove_online_task(&case, 0);
        assert_eq!(smaller.online_tasks, vec![(6_000_000, 15_500_000)]);
        assert!(smaller.online_deps.is_empty());
        let none = remove_online_task(&smaller, 0);
        assert!(!none.has_online());
        assert_eq!(none.online_frames, 0);
    }

    #[test]
    fn shrinker_reduces_a_seeded_failure() {
        // A case that "fails" under an artificially broken checker is
        // hard to arrange without mutating production code, so check the
        // structural half instead: shrinking a *passing* case is the
        // identity, and removing a task keeps indices consistent.
        let fz = FuzzConfig::default();
        let case = Case {
            weights: vec![10, 20, 30, 40],
            edges: vec![(0, 1), (1, 2), (0, 3), (2, 3)],
            deadline_factor: 2.0,
            seed: 0,
            origin: "dag".to_string(),
            overruns: vec![(1, 1.5), (3, 2.0)],
            fail_stop: None,
            ..Case::default()
        };
        assert_eq!(shrink(&case, &scfg(), &fz), case);
        let smaller = remove_task(&case, 1);
        assert_eq!(smaller.weights, vec![10, 30, 40]);
        assert_eq!(smaller.edges, vec![(0, 2), (1, 2)]);
        // The overrun on the removed task is dropped; the other shifts.
        assert_eq!(smaller.overruns, vec![(2, 2.0)]);
        smaller.graph().unwrap();
    }

    #[test]
    fn infeasible_factors_are_exercised_without_violations() {
        // Directly check a deliberately infeasible case: every strategy
        // must return Infeasible and check_case must treat that as clean.
        let case = Case {
            weights: vec![3_100_000, 3_100_000, 3_100_000],
            edges: vec![(0, 1), (1, 2)],
            deadline_factor: 0.5,
            seed: 0,
            origin: "dag".to_string(),
            overruns: Vec::new(),
            fail_stop: None,
            ..Case::default()
        };
        let fz = FuzzConfig::default();
        assert!(check_case(&case, &scfg(), &fz).is_ok());
    }
}
