//! Per-task-deadline solving — the streaming/KPN generalization.
//!
//! A uniform deadline (§3.1's frame-based model) is a special case; an
//! unrolled Kahn Process Network instead pins each copy of an output
//! process to its own deadline (Fig. 1). [`solve_with_deadlines`] runs
//! the same four strategies against a *vector* of deadlines: the
//! schedule is feasible at a level `f` iff every task finishes by its
//! own latest finish time, i.e.
//!
//! ```text
//! finish(t)/f ≤ lf(t)/f_max   for all t
//! ⇔  f ≥ max over t of finish(t) · f_max / lf(t)
//! ```
//!
//! so the maximal stretch is limited by the *tightest* finish-to-deadline
//! ratio rather than the makespan alone. Energy is accounted up to the
//! stream horizon (the latest deadline), after which the platform can
//! power off entirely.
//!
//! This module holds no search of its own. [`solve_with_deadlines`]
//! builds a schedule cache keyed by the latest finish times and hands it
//! to the one §4.2 search in [`crate::solve`](mod@crate::solve) under
//! the per-task deadline model, which swaps in the feasibility test, the
//! required frequency, the billing horizon and the error above
//! (DESIGN.md §11, "Deadline models").

use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::solve::{solve_impl, DeadlineModel};
use crate::types::{Solution, SolveError, Strategy};
use lamps_sched::deadlines::latest_finish_times_with;
use lamps_taskgraph::TaskGraph;

/// A per-task deadline specification, in cycles at the maximum
/// frequency.
#[derive(Debug, Clone)]
pub struct DeadlineVector {
    /// Explicit deadline per task (`None` = derived from successors, or
    /// the horizon for sinks).
    pub own: Vec<Option<u64>>,
    /// The accounting horizon: tasks without explicit deadlines
    /// (and the energy bill) run against this. Typically the latest
    /// output deadline.
    pub horizon_cycles: u64,
}

impl DeadlineVector {
    /// Uniform deadline: every sink due at `deadline_cycles`.
    pub fn uniform(graph: &TaskGraph, deadline_cycles: u64) -> Self {
        DeadlineVector {
            own: vec![None; graph.len()],
            horizon_cycles: deadline_cycles,
        }
    }

    /// From an unrolled KPN (explicit deadlines on output copies).
    pub fn from_kpn(own: Vec<Option<u64>>, horizon_cycles: u64) -> Self {
        DeadlineVector {
            own,
            horizon_cycles,
        }
    }

    /// Latest finish times over the graph.
    pub fn latest_finish_times(&self, graph: &TaskGraph) -> Vec<u64> {
        latest_finish_times_with(graph, self.horizon_cycles, &self.own)
    }

    /// The per-task deadline model of this vector.
    pub(crate) fn model(&self) -> DeadlineModel {
        DeadlineModel::PerTask {
            horizon_cycles: self.horizon_cycles,
            latest_cycles: self
                .own
                .iter()
                .flatten()
                .fold(self.horizon_cycles, |a, &d| a.max(d)),
        }
    }
}

/// Solve with per-task deadlines. Agrees with [`crate::solve::solve`] on
/// [`DeadlineVector::uniform`] inputs in processor count, and in energy
/// to within a few ulps (the two rules derive the required frequency and
/// the billing horizon by different float paths).
/// # Example
///
/// ```
/// use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
/// use lamps_core::{SchedulerConfig, Strategy};
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(31_000_000);
/// let c = b.add_task(31_000_000);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
///
/// let cfg = SchedulerConfig::paper();
/// // Pin the first task to 15 ms, the second (and horizon) to 60 ms.
/// let f_max = cfg.max_frequency();
/// let dv = DeadlineVector::from_kpn(
///     vec![Some((0.015 * f_max) as u64), Some((0.060 * f_max) as u64)],
///     (0.060 * f_max) as u64,
/// );
/// let sol = solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg).unwrap();
/// assert_eq!(sol.n_procs, 1);
/// ```
pub fn solve_with_deadlines(
    strategy: Strategy,
    graph: &TaskGraph,
    deadlines: &DeadlineVector,
    cfg: &SchedulerConfig,
) -> Result<Solution, SolveError> {
    solve_per_task(strategy, graph, deadlines, cfg, true)
}

/// The reference engine for [`solve_with_deadlines`]: the same search
/// on a cache with its shortcuts, and with them every pruning rule,
/// turned off (see [`crate::solve_with_cache_unpruned`]). The fuzzer's
/// online cases run it as the oracle the pruned per-task solve must
/// match bitwise; it is not meant for production use.
#[doc(hidden)]
pub fn solve_with_deadlines_unpruned(
    strategy: Strategy,
    graph: &TaskGraph,
    deadlines: &DeadlineVector,
    cfg: &SchedulerConfig,
) -> Result<Solution, SolveError> {
    solve_per_task(strategy, graph, deadlines, cfg, false)
}

/// Build the `lf`-keyed cache and run the one search under the per-task
/// deadline model.
fn solve_per_task(
    strategy: Strategy,
    graph: &TaskGraph,
    deadlines: &DeadlineVector,
    cfg: &SchedulerConfig,
    prune: bool,
) -> Result<Solution, SolveError> {
    assert_eq!(
        deadlines.own.len(),
        graph.len(),
        "one deadline slot per task"
    );
    let mut cache = ScheduleCache::with_keys(graph, deadlines.latest_finish_times(graph));
    cache.set_shortcuts_enabled(prune);
    solve_impl(
        strategy,
        deadlines.model(),
        cfg,
        &mut cache,
        None,
        None,
        None,
    )
    .map(|b| b.solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::solve;
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn fig4a_coarse() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(2);
        let t2 = b.add_task(6);
        let t3 = b.add_task(4);
        let t4 = b.add_task(4);
        let t5 = b.add_task(2);
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t1, t4).unwrap();
        b.add_edge(t2, t5).unwrap();
        b.add_edge(t3, t5).unwrap();
        b.build().unwrap().scale_weights(3_100_000)
    }

    /// Worst relative energy gap between the per-task rule on an
    /// all-`None` vector and the scalar solver, measured over the corpus
    /// of [`uniform_vector_matches_scalar_solver`] (7.78e-10, at seed 4,
    /// 40 tasks, S&S at 2×). The two rules derive
    /// the required frequency (`max finish·f_max/lf` vs makespan/deadline)
    /// and the billing horizon (cycles/f_max vs seconds) by different
    /// float paths, so some answers differ in the last bits; none in the
    /// processor count.
    const UNIFORM_VECTOR_GAP: f64 = 7.8e-10;

    #[test]
    fn uniform_vector_matches_scalar_solver() {
        let cfg = cfg();
        let mut worst: f64 = 0.0;
        for seed in 0..12u64 {
            for n_tasks in [10usize, 40, 200] {
                let g = lamps_taskgraph::gen::layered::generate(
                    &lamps_taskgraph::gen::layered::LayeredConfig {
                        n_tasks,
                        n_layers: (n_tasks / 5).max(2),
                        ..Default::default()
                    },
                    seed,
                )
                .scale_weights(310_000);
                for factor in [1.5, 2.0, 4.0, 8.0] {
                    let d_s = factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
                    let dv = DeadlineVector::uniform(&g, cfg.deadline_cycles(d_s));
                    for s in Strategy::all() {
                        let scalar = solve(s, &g, d_s, &cfg).unwrap();
                        let vector = solve_with_deadlines(s, &g, &dv, &cfg).unwrap();
                        let at = format!("seed {seed}, {n_tasks} tasks, {s} @ {factor}x");
                        assert_eq!(scalar.n_procs, vector.n_procs, "{at}");
                        let (a, b) = (scalar.energy.total(), vector.energy.total());
                        let gap = (a - b).abs() / a;
                        assert!(gap <= UNIFORM_VECTOR_GAP, "{at}: {a} vs {b} ({gap:e})");
                        worst = worst.max(gap);
                    }
                }
            }
        }
        assert!(worst > 0.0, "the corpus no longer exercises the float gap");
    }

    #[test]
    fn tight_task_deadline_forces_faster_level() {
        let g = fig4a_coarse();
        let cfg = cfg();
        let loose = 4 * g.critical_path_cycles();
        // Uniform loose deadline.
        let dv_loose = DeadlineVector::uniform(&g, loose);
        let base = solve_with_deadlines(Strategy::ScheduleStretch, &g, &dv_loose, &cfg).unwrap();
        // Same horizon, but pin T5 (the critical sink, id 4) to finish by
        // 1.2× its earliest possible finish.
        let mut own = vec![None; g.len()];
        let tl = g.top_levels();
        own[4] = Some((tl[4] as f64 * 1.2) as u64);
        let dv_tight = DeadlineVector::from_kpn(own, loose);
        let tight = solve_with_deadlines(Strategy::ScheduleStretch, &g, &dv_tight, &cfg).unwrap();
        assert!(
            tight.level.freq > base.level.freq,
            "pinned deadline must force a faster level: {} vs {}",
            tight.level.vdd,
            base.level.vdd
        );
        // And the pinned task indeed finishes in time at the chosen level.
        let t5 = lamps_taskgraph::TaskId(4);
        let finish_s = tight.schedule.finish(t5) as f64 / tight.level.freq;
        let due_s = (tl[4] as f64 * 1.2) / cfg.max_frequency();
        assert!(finish_s <= due_s * (1.0 + 1e-9));
    }

    #[test]
    fn infeasible_task_deadline_detected() {
        let g = fig4a_coarse();
        let cfg = cfg();
        let mut own = vec![None; g.len()];
        let tl = g.top_levels();
        // Below the top level: impossible on any machine.
        own[4] = Some(tl[4] - 1);
        let dv = DeadlineVector::from_kpn(own, 8 * g.critical_path_cycles());
        match solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg) {
            Err(SolveError::Infeasible { .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn kpn_unrolled_solves_end_to_end() {
        // Build a 3-stage pipeline DAG shaped like an unrolled KPN and
        // give the copies staggered deadlines.
        let mut b = GraphBuilder::new();
        let copies = 4;
        let mut prev: Option<[lamps_taskgraph::TaskId; 3]> = None;
        let mut own = Vec::new();
        let stage_cycles = [20_000_000u64, 50_000_000, 30_000_000];
        let f_max = cfg().max_frequency();
        let period = (0.040 * f_max) as u64;
        let first = (0.080 * f_max) as u64;
        for j in 0..copies {
            let ids = [
                b.add_task(stage_cycles[0]),
                b.add_task(stage_cycles[1]),
                b.add_task(stage_cycles[2]),
            ];
            b.add_edge(ids[0], ids[1]).unwrap();
            b.add_edge(ids[1], ids[2]).unwrap();
            if let Some(p) = prev {
                for k in 0..3 {
                    b.add_edge(p[k], ids[k]).unwrap();
                }
            }
            own.extend([None, None, Some(first + j as u64 * period)]);
            prev = Some(ids);
        }
        let g = b.build().unwrap();
        let horizon = first + (copies as u64 - 1) * period;
        let dv = DeadlineVector::from_kpn(own.clone(), horizon);
        let sol = solve_with_deadlines(Strategy::LampsPs, &g, &dv, &cfg()).unwrap();
        sol.schedule.validate(&g).unwrap();
        // Every output copy meets its own deadline at the chosen level.
        for (i, d) in own.iter().enumerate() {
            if let Some(d) = d {
                let t = lamps_taskgraph::TaskId(i as u32);
                let finish_s = sol.schedule.finish(t) as f64 / sol.level.freq;
                assert!(finish_s <= *d as f64 / f_max * (1.0 + 1e-9), "copy {i}");
            }
        }
    }

    #[test]
    fn zero_horizon_rejected() {
        let g = fig4a_coarse();
        let dv = DeadlineVector::uniform(&g, 0);
        assert!(matches!(
            solve_with_deadlines(Strategy::Lamps, &g, &dv, &cfg()),
            Err(SolveError::BadDeadline(_)) | Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn per_task_large_graphs_match_the_unpruned_reference() {
        // Graphs of at least 512 tasks, pruned against the unpruned
        // reference: both must agree to the bit.
        let cfg = cfg();
        let graphs = lamps_taskgraph::gen::layered::stg_group(600, 2, 41)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .filter(|g| g.len() >= 512)
            .collect::<Vec<_>>();
        assert!(!graphs.is_empty());
        for (gi, g) in graphs.iter().enumerate() {
            let cpl = g.critical_path_cycles();
            for factor in [1, 2, 4] {
                // Every seventh task due at `factor`·CPL, the rest by the
                // horizon half a CPL later.
                let own = (0..g.len())
                    .map(|i| (i % 7 == 0).then_some(factor * cpl))
                    .collect();
                let dv = DeadlineVector::from_kpn(own, factor * cpl + cpl / 2);
                for s in [Strategy::Lamps, Strategy::LampsPs] {
                    let pruned = solve_with_deadlines(s, g, &dv, &cfg).unwrap();
                    let reference = solve_with_deadlines_unpruned(s, g, &dv, &cfg).unwrap();
                    assert_eq!(
                        pruned.n_procs, reference.n_procs,
                        "graph {gi}, {s} @ {factor}"
                    );
                    assert_eq!(pruned.level.freq.to_bits(), reference.level.freq.to_bits());
                    assert_eq!(pruned.makespan_cycles, reference.makespan_cycles);
                    assert_eq!(
                        pruned.energy.total().to_bits(),
                        reference.energy.total().to_bits(),
                        "graph {gi}, {s} @ {factor}"
                    );
                }
            }
        }
    }
}
