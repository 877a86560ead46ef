//! Budgeted, cancellable *anytime* solving.
//!
//! [`solve_with_budget_cache`] runs the one LAMPS / S&S scan of
//! [`crate::solve`] under a [`SolveBudget`]. The unit of accounting — a
//! *step* — is one `(processor count, level)` candidate evaluation.
//! Before every candidate the scan checks a cooperative
//! [`CancelToken`], the wall clock and the remaining step budget; when
//! one trips, it stops and returns the best feasible candidate found so
//! far, tagged [`Completeness::Degraded`] with how much of the search
//! space it covered. A search that runs to its natural end — or that the
//! energy floor proves finished early — is tagged
//! [`Completeness::Complete`] and returns bit-identical results to
//! [`crate::solve`]. The pruned scan only ends earlier than the
//! exhaustive one, never skips a candidate inside it, so at every step
//! cap the answer is the one the exhaustive reference engine gives.
//!
//! The anytime property: candidates are enumerated in a fixed,
//! budget-independent order (processor counts ascending from the
//! minimal feasible count, levels ascending per count), and the best
//! candidate is tracked by strict energy comparison. A search with a
//! larger budget therefore sees a superset (prefix-wise) of the
//! candidates a smaller budget sees, so **more budget never yields
//! worse energy** — property-tested in this module and fuzzed in
//! `lamps-verify`.

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::{solve_impl, DeadlineModel};
use crate::types::{Solution, SolveError, Strategy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag, cheap to clone and safe to trip
/// from another thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token: every solver holding it stops at its next step
    /// boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the token has been tripped.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// How much search a call may spend.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Maximum candidate evaluations; `None` means unlimited.
    pub max_steps: Option<u64>,
    /// Cooperative cancellation; checked before every candidate.
    pub token: Option<CancelToken>,
    /// Wall-clock deadline; checked before every candidate. Unlike
    /// `max_steps`, a time budget is not reproducible across runs, so
    /// callers needing bitwise-deterministic degradation (the serve
    /// differential mode) should use step budgets instead.
    pub deadline: Option<Instant>,
}

impl SolveBudget {
    /// No limit and no token: behaves exactly like [`crate::solve`].
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// At most `n` candidate evaluations.
    pub fn steps(n: u64) -> Self {
        SolveBudget {
            max_steps: Some(n),
            token: None,
            deadline: None,
        }
    }

    /// Attach a cancellation token.
    pub fn with_token(mut self, token: CancelToken) -> Self {
        self.token = Some(token);
        self
    }

    /// Stop searching at `deadline` (best feasible candidate so far is
    /// returned, tagged [`Completeness::Degraded`]).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Did the search cover everything it wanted to?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// The full search ran; the result is identical to [`crate::solve`].
    Complete,
    /// The budget (or a cancel) stopped the search early; the solution
    /// is the best of the `explored` candidates.
    Degraded {
        /// Candidate evaluations actually performed.
        explored: u64,
        /// Upper bound on the evaluations a complete search could take
        /// (the scan may legitimately stop earlier on its own).
        total: u64,
    },
}

impl Completeness {
    /// Whether the search ran to completion.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// A solution plus how much of the search produced it.
#[derive(Debug, Clone)]
pub struct BudgetedSolution {
    /// The best feasible configuration found.
    pub solution: Solution,
    /// Whether the search was exhaustive or truncated.
    pub completeness: Completeness,
    /// Candidate evaluations spent.
    pub steps: u64,
}

/// The step meter of one solve: it counts the steps the scan spends
/// and, before each candidate, grants the levels that candidate may
/// sweep. An unbudgeted solve carries an unlimited meter, which only
/// counts.
pub(crate) struct Meter {
    spent: u64,
    max: u64,
    token: Option<CancelToken>,
    deadline: Option<Instant>,
    /// The wall-clock deadline had already passed when the solve began:
    /// the scan sweeps its first candidate free of charge, then stops.
    /// An overloaded caller admitting with an expired deadline gets one
    /// best-effort answer at the cost of a single candidate.
    expired: bool,
    /// The scan stopped before its natural end.
    interrupted: bool,
}

impl Meter {
    pub(crate) fn new(budget: Option<&SolveBudget>) -> Meter {
        let budget = budget.cloned().unwrap_or_default();
        Meter {
            spent: 0,
            max: budget.max_steps.unwrap_or(u64::MAX),
            expired: budget.deadline.is_some_and(|d| Instant::now() >= d),
            token: budget.token,
            deadline: budget.deadline,
            interrupted: false,
        }
    }

    /// Steps spent so far.
    pub(crate) fn spent(&self) -> u64 {
        self.spent
    }

    /// Whether the scan stopped before its natural end.
    pub(crate) fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Admit the next candidate, whose full level sweep costs `steps`.
    /// Returns how many of its levels the scan may evaluate, or `None`
    /// once the cap is spent, the token tripped or the deadline passed.
    /// A grant short of `steps` spends the rest of the cap; it, like the
    /// free first candidate of an expired meter, is the scan's last.
    pub(crate) fn admit(&mut self, steps: u64) -> Option<u64> {
        if self.expired {
            self.interrupted = true;
            return Some(steps);
        }
        if self.spent >= self.max
            || self.token.as_ref().is_some_and(CancelToken::is_cancelled)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
        {
            self.interrupted = true;
            return None;
        }
        let granted = steps.min(self.max - self.spent);
        self.spent += granted;
        self.interrupted = granted < steps;
        Some(granted)
    }
}

/// [`crate::solve_with_cache`] under a budget. See the module docs for
/// semantics.
///
/// Errors with [`SolveError::BudgetExhausted`] only when the budget ran
/// out before *any* feasible candidate was evaluated; all other errors
/// match [`crate::solve`].
pub fn solve_with_budget_cache(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    budget: &SolveBudget,
) -> Result<BudgetedSolution, SolveError> {
    let model = DeadlineModel::Uniform { deadline_s };
    solve_impl(strategy, model, cfg, cache, None, None, Some(budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{solve, solve_with_cache_explained};
    use lamps_taskgraph::gen::layered::{generate, stg_group, LayeredConfig};
    use lamps_taskgraph::{GraphBuilder, TaskGraph};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn layered(seed: u64) -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 30,
                n_layers: 6,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000)
    }

    fn deadline_x(graph: &TaskGraph, factor: f64) -> f64 {
        factor * graph.critical_path_cycles() as f64 / cfg().max_frequency()
    }

    /// A budgeted solve on a fresh cache.
    fn budgeted(
        s: Strategy,
        g: &TaskGraph,
        d: f64,
        budget: &SolveBudget,
    ) -> Result<BudgetedSolution, SolveError> {
        solve_with_budget_cache(s, d, &cfg(), &mut ScheduleCache::for_graph(g), budget)
    }

    /// The budget differential's verdict on one pair of results: the
    /// same solution bits; a degraded kernel answer with the oracle's
    /// exact bookkeeping; otherwise no more steps than the oracle spent.
    fn assert_budget_match(
        got: &Result<BudgetedSolution, SolveError>,
        oracle: &Result<BudgetedSolution, SolveError>,
        ctx: &str,
    ) {
        match (got, oracle) {
            (Ok(a), Ok(b)) => {
                let (x, y) = (&a.solution, &b.solution);
                assert_eq!(x.n_procs, y.n_procs, "{ctx}");
                assert_eq!(x.level.freq.to_bits(), y.level.freq.to_bits(), "{ctx}");
                assert_eq!(x.makespan_cycles, y.makespan_cycles, "{ctx}");
                assert_eq!(
                    x.energy.total().to_bits(),
                    y.energy.total().to_bits(),
                    "{ctx}: energy diverged"
                );
                if a.completeness.is_complete() {
                    assert!(a.steps <= b.steps, "{ctx}: {} > {} steps", a.steps, b.steps);
                } else {
                    assert_eq!(a.completeness, b.completeness, "{ctx}");
                    assert_eq!(a.steps, b.steps, "{ctx}");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}"),
            (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn budget_differential_at_every_step_cap() {
        // The pruned kernel against the reference engine (the same kernel
        // on a shortcuts-off cache) at every step cap from 0 to one past
        // the full search, plus unlimited: the energy floor may end the
        // scan early, but every candidate before the break is charged
        // and swept as in the reference, so the answer at every cap is
        // the reference's, bit for bit.
        let graphs: Vec<TaskGraph> = stg_group(40, 3, 53)
            .into_iter()
            .chain(stg_group(600, 1, 41))
            .map(|g| g.scale_weights(310_000))
            .collect();
        assert!(graphs.iter().any(|g| g.len() >= 512), "one large graph");
        for (i, g) in graphs.iter().enumerate() {
            let mut pruned = ScheduleCache::for_graph(g);
            let mut reference = ScheduleCache::for_graph(g);
            reference.set_shortcuts_enabled(false);
            for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
                let d = deadline_x(g, factor);
                for s in Strategy::all() {
                    let mut oracle = |budget: &SolveBudget| {
                        solve_with_budget_cache(s, d, &cfg(), &mut reference, budget)
                    };
                    let full = oracle(&SolveBudget::unlimited()).map_or(0, |b| b.steps);
                    let caps = (0..=full + 1)
                        .map(SolveBudget::steps)
                        .chain([SolveBudget::unlimited()]);
                    for budget in caps {
                        let ctx = format!("graph {i}, {s}, {factor}x, cap {:?}", budget.max_steps);
                        let got = solve_with_budget_cache(s, d, &cfg(), &mut pruned, &budget);
                        assert_budget_match(&got, &oracle(&budget), &ctx);
                    }
                    // An unlimited meter and one that could trip (an
                    // untripped token) agree on the solution and the steps.
                    let unlimited = SolveBudget::unlimited();
                    let free = solve_with_budget_cache(s, d, &cfg(), &mut pruned, &unlimited);
                    let with_token = unlimited.with_token(CancelToken::new());
                    let held = solve_with_budget_cache(s, d, &cfg(), &mut pruned, &with_token);
                    let ctx = format!("graph {i}, {s}, {factor}x: unlimited vs token");
                    assert_budget_match(&free, &held, &ctx);
                    if let (Ok(a), Ok(b)) = (&free, &held) {
                        assert_eq!(a.steps, b.steps, "{ctx}");
                        assert_eq!(a.completeness, b.completeness, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn budgeted_answer_is_the_best_of_the_first_steps() {
        // The kernel and the reference engine share the meter, so the
        // differential above cannot see a fault in it. This pins what a
        // step cap means against the reference engine's unbudgeted
        // decision log instead: a cap of k steps answers with the
        // least-energy level among the log's first k level evaluations
        // (the earliest on ties), degraded whenever the log is longer.
        let graphs: Vec<TaskGraph> = stg_group(40, 3, 53)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect();
        for (i, g) in graphs.iter().enumerate() {
            let mut reference = ScheduleCache::for_graph(g);
            reference.set_shortcuts_enabled(false);
            for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
                let d = deadline_x(g, factor);
                for s in Strategy::all() {
                    let (full, ex) = solve_with_cache_explained(s, d, &cfg(), &mut reference);
                    // Every level evaluation in scan order: (count, level
                    // frequency, energy if feasible).
                    let log: Vec<(usize, f64, Option<f64>)> = ex
                        .candidates
                        .iter()
                        .flat_map(|c| c.levels.iter().map(|l| (c.n_procs, l.freq_hz, l.energy_j)))
                        .collect();
                    for k in 0..=log.len() + 1 {
                        let ctx = format!("graph {i}, {s}, {factor}x, cap {k}");
                        let budget = SolveBudget::steps(k as u64);
                        let got = solve_with_budget_cache(s, d, &cfg(), &mut reference, &budget);
                        let mut best: Option<(usize, f64, f64)> = None;
                        for &(n, f, e) in log.iter().take(k) {
                            if let Some(e) = e.filter(|&e| best.is_none_or(|b| e < b.2)) {
                                best = Some((n, f, e));
                            }
                        }
                        let explored = k.min(log.len()) as u64;
                        match (got, best) {
                            (Ok(b), Some((n, f, e))) => {
                                assert_eq!(b.solution.n_procs, n, "{ctx}");
                                assert_eq!(b.solution.level.freq.to_bits(), f.to_bits(), "{ctx}");
                                assert_eq!(
                                    b.solution.energy.total().to_bits(),
                                    e.to_bits(),
                                    "{ctx}"
                                );
                                assert_eq!(b.steps, explored, "{ctx}");
                                assert_eq!(b.completeness.is_complete(), k >= log.len(), "{ctx}");
                            }
                            (Err(SolveError::BudgetExhausted { explored: x, .. }), None)
                                if k < log.len() =>
                            {
                                assert_eq!(x, explored, "{ctx}")
                            }
                            (Err(e), None) => assert_eq!(Some(&e), full.as_ref().err(), "{ctx}"),
                            (got, best) => panic!("{ctx}: {got:?} vs the log's {best:?}"),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn budgeted_solves_flush_the_prune_counters() {
        // Budgeted solves run the pruned kernel and its one metrics
        // flush: on a graph where the pruning fires, a metered solve
        // moves the `core.prune.*`, `core.solve.*` and `core.budget.*`
        // counters alike. The pruning that fires is the scan-wide floor
        // break.
        let graphs: Vec<TaskGraph> = stg_group(60, 4, 7)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect();
        let (g, d) = graphs
            .iter()
            .flat_map(|g| [1.5, 2.0, 4.0, 8.0].map(|f| (g, deadline_x(g, f))))
            .find(|&(g, d)| {
                let mut cache = ScheduleCache::for_graph(g);
                let (_, ex) = solve_with_cache_explained(Strategy::LampsPs, d, &cfg(), &mut cache);
                ex.scan_breaks > 0
            })
            .expect("the pruning fires somewhere");
        let names = [
            "core.prune.scan_breaks",
            "core.solve.calls",
            "core.budget.calls",
        ];
        let _metrics = crate::METRICS_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let before = names.map(|n| lamps_obs::counter(n).get());
        lamps_obs::enable_metrics();
        budgeted(Strategy::LampsPs, g, d, &SolveBudget::steps(10_000)).unwrap();
        lamps_obs::disable_metrics();
        for (n, b) in names.into_iter().zip(before) {
            assert!(
                lamps_obs::counter(n).get() > b,
                "the budgeted solve did not move {n}"
            );
        }
    }

    #[test]
    fn unlimited_budget_matches_solve_bitwise() {
        for seed in [1u64, 2, 3] {
            let g = layered(seed);
            for factor in [1.2, 2.0, 5.0] {
                let d = deadline_x(&g, factor);
                for s in Strategy::all() {
                    let plain = solve(s, &g, d, &cfg()).unwrap();
                    let b = budgeted(s, &g, d, &SolveBudget::unlimited()).unwrap();
                    assert!(b.completeness.is_complete(), "{s} {factor}");
                    assert_eq!(
                        plain.energy.total().to_bits(),
                        b.solution.energy.total().to_bits(),
                        "{s} {factor}"
                    );
                    assert_eq!(plain.n_procs, b.solution.n_procs);
                    assert_eq!(plain.level.vdd.to_bits(), b.solution.level.vdd.to_bits());
                }
            }
        }
    }

    #[test]
    fn energy_is_monotone_in_budget() {
        let g = layered(7);
        let d = deadline_x(&g, 2.5);
        for s in Strategy::all() {
            let full = budgeted(s, &g, d, &SolveBudget::unlimited()).unwrap();
            let mut prev = f64::INFINITY;
            for steps in 1..=full.steps + 2 {
                match budgeted(s, &g, d, &SolveBudget::steps(steps)) {
                    Ok(b) => {
                        let e = b.solution.energy.total();
                        assert!(
                            e <= prev + 1e-15,
                            "{s}: budget {steps} worsened energy {e} > {prev}"
                        );
                        prev = e;
                        assert!(b.solution.makespan_s <= d * (1.0 + 1e-9));
                        if steps >= full.steps {
                            assert!(b.completeness.is_complete());
                            assert_eq!(e.to_bits(), full.solution.energy.total().to_bits());
                        }
                    }
                    Err(SolveError::BudgetExhausted { explored, .. }) => {
                        assert!(explored <= steps, "{s}");
                    }
                    Err(other) => panic!("{s}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn degraded_solutions_are_feasible_and_tagged() {
        let g = layered(11);
        let d = deadline_x(&g, 3.0);
        let full = budgeted(Strategy::LampsPs, &g, d, &SolveBudget::unlimited()).unwrap();
        assert!(full.steps > 2, "need a non-trivial search");
        let b = budgeted(Strategy::LampsPs, &g, d, &SolveBudget::steps(2)).unwrap();
        match b.completeness {
            Completeness::Degraded { explored, total } => {
                assert_eq!(explored, 2);
                assert!(total >= full.steps);
            }
            Completeness::Complete => panic!("2-step search cannot be complete"),
        }
        assert!(b.solution.makespan_s <= d * (1.0 + 1e-9));
        b.solution.schedule.validate(&g).unwrap();
    }

    #[test]
    fn zero_budget_exhausts() {
        let g = layered(13);
        let d = deadline_x(&g, 2.0);
        match budgeted(Strategy::LampsPs, &g, d, &SolveBudget::steps(0)) {
            Err(SolveError::BudgetExhausted { explored, total }) => {
                assert_eq!(explored, 0);
                assert!(total > 0);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_before_any_step() {
        let g = layered(17);
        let d = deadline_x(&g, 2.0);
        let token = CancelToken::new();
        token.cancel();
        let budget = SolveBudget::unlimited().with_token(token);
        match budgeted(Strategy::LampsPs, &g, d, &budget) {
            Err(SolveError::BudgetExhausted { explored, .. }) => assert_eq!(explored, 0),
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn untripped_token_changes_nothing() {
        let g = layered(19);
        let d = deadline_x(&g, 2.0);
        let budget = SolveBudget::unlimited().with_token(CancelToken::new());
        let a = budgeted(Strategy::LampsPs, &g, d, &budget).unwrap();
        let plain = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        assert_eq!(
            a.solution.energy.total().to_bits(),
            plain.energy.total().to_bits()
        );
    }

    #[test]
    fn bad_inputs_match_solve() {
        let g = layered(23);
        for d in [0.0, -1.0, f64::NAN] {
            assert!(matches!(
                budgeted(Strategy::Lamps, &g, d, &SolveBudget::unlimited()),
                Err(SolveError::BadDeadline(_))
            ));
        }
        let tight = deadline_x(&g, 0.5);
        assert!(matches!(
            budgeted(Strategy::Lamps, &g, tight, &SolveBudget::unlimited()),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn expired_deadline_returns_immediate_degraded_best_effort() {
        let g = layered(29);
        let d = deadline_x(&g, 2.0);
        for s in Strategy::all() {
            let budget = SolveBudget::unlimited().with_deadline(Instant::now());
            let b = budgeted(s, &g, d, &budget)
                .unwrap_or_else(|e| panic!("{s}: expired deadline must degrade, got {e:?}"));
            match b.completeness {
                Completeness::Degraded { explored, total } => {
                    assert_eq!(explored, 0, "{s}: no candidate may be explored");
                    assert!(total > 0, "{s}");
                }
                Completeness::Complete => panic!("{s}: expired deadline cannot be complete"),
            }
            assert_eq!(b.steps, 0, "{s}");
            assert!(
                b.solution.makespan_s <= d * (1.0 + 1e-9),
                "{s}: best-effort result must still meet the deadline"
            );
            b.solution.schedule.validate(&g).unwrap();
        }
    }

    #[test]
    fn expired_deadline_still_reports_infeasible_inputs() {
        let g = layered(29);
        let tight = deadline_x(&g, 0.5);
        let budget = SolveBudget::unlimited().with_deadline(Instant::now());
        assert!(matches!(
            budgeted(Strategy::Lamps, &g, tight, &budget),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn generous_deadline_completes_bitwise() {
        let g = layered(31);
        let d = deadline_x(&g, 2.0);
        let budget = SolveBudget::unlimited()
            .with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        let b = budgeted(Strategy::LampsPs, &g, d, &budget).unwrap();
        assert!(b.completeness.is_complete());
        let plain = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        assert_eq!(
            b.solution.energy.total().to_bits(),
            plain.energy.total().to_bits()
        );
    }

    #[test]
    fn single_task_budgeted() {
        let mut b = GraphBuilder::new();
        b.add_task(3_100_000);
        let g = b.build().unwrap();
        let d = deadline_x(&g, 3.0);
        let r = budgeted(Strategy::LampsPs, &g, d, &SolveBudget::steps(1)).unwrap();
        assert_eq!(r.solution.n_procs, 1);
        assert_eq!(r.steps, 1);
    }
}
