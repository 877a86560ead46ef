//! Campaign-scale batch solving.
//!
//! The paper's evaluation — and the run-time re-solve scenario the
//! ROADMAP targets — is a *campaign*: every strategy swept over many
//! graphs × deadline factors. Solving each cell through [`crate::solve`]
//! pays per-solve setup costs thousands of times over: a fresh
//! [`ScheduleCache`] (workspace, memo spines, EDF keys) per graph and a
//! fresh per-level sleep-cutoff resolution per solve.
//!
//! [`solve_batch`] amortizes both. Work items are *graph-granularity*
//! [`BatchJob`]s fanned out over the shared worker pool; each worker
//! keeps one warm [`CacheBuffers`] set that every graph it processes is
//! rebuilt into, and the whole batch shares one immutable
//! [`LevelSweep`] with every level's sleep cutoff resolved exactly
//! once. Within a job, all deadlines × strategies share the graph's
//! schedule cache (LS-EDF schedules are deadline- and
//! strategy-invariant; see [`ScheduleCache::for_graph`]).
//!
//! None of the amortized state is semantic: recycled buffers start
//! every cache cold and the precomputed cutoffs are the values the
//! per-solve path would recompute, so batch results are **bitwise
//! identical** to per-graph [`crate::solve_with_cache`] calls — the
//! differential tests below and the `lamps-verify` fuzzer's batch
//! dimension hold that line.

use crate::cache::{CacheBuffers, ScheduleCache};
use crate::config::SchedulerConfig;
use crate::solve::solve_impl;
use crate::types::{Solution, SolveError, Strategy};
use lamps_energy::{EnergyBreakdown, LevelSweep};
use lamps_parallel::{Pool, PoolMetrics};
use lamps_power::OperatingPoint;
use lamps_taskgraph::TaskGraph;

/// Worker pool for graph-granularity batch items. On single-core hosts
/// everything runs inline; either way results come back in job order.
static BATCH_POOL: Pool = Pool::new(
    "batch",
    "core",
    PoolMetrics {
        calls: "core.batch.calls",
        items: "core.batch.items",
        worker_busy_us: "core.batch.worker_busy_us",
        worker_idle_us: "core.batch.worker_idle_us",
        worker_items: "core.batch.worker_items",
    },
);

/// One unit of batch work: solve `graph` under every deadline in
/// `deadlines_s`, sharing one warm schedule cache across all of them
/// (and across all strategies of the call).
#[derive(Debug, Clone, Copy)]
pub struct BatchJob<'a> {
    /// The task graph to solve.
    pub graph: &'a TaskGraph,
    /// Application deadlines \[s\] to solve it under.
    pub deadlines_s: &'a [f64],
}

/// The compact outcome of one batch cell — everything the campaign
/// aggregation needs, without retaining the schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCell {
    /// Strategy that produced this cell.
    pub strategy: Strategy,
    /// Processor count employed.
    pub n_procs: usize,
    /// Chosen operating point.
    pub level: OperatingPoint,
    /// Full energy accounting.
    pub energy: EnergyBreakdown,
    /// Makespan in cycles at the nominal frequency.
    pub makespan_cycles: u64,
    /// Makespan in seconds at the chosen level.
    pub makespan_s: f64,
}

impl From<&Solution> for BatchCell {
    fn from(s: &Solution) -> Self {
        BatchCell {
            strategy: s.strategy,
            n_procs: s.n_procs,
            level: s.level,
            energy: s.energy,
            makespan_cycles: s.makespan_cycles,
            makespan_s: s.makespan_s,
        }
    }
}

/// Solve every job's deadlines × strategies, returning full
/// [`Solution`]s (schedules included).
///
/// The outer `Vec` is in job order; each inner `Vec` is deadline-major
/// (`deadlines_s × strategies` row-major: all strategies of the first
/// deadline, then the next deadline). Results are bitwise identical to
/// calling [`crate::solve_with_cache`] per graph in the same order.
pub fn solve_batch(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
) -> Vec<Vec<Result<Solution, SolveError>>> {
    run_batch(strategies, cfg, jobs, |s| s)
}

/// [`solve_batch`] returning compact [`BatchCell`]s instead of full
/// solutions: each cell's schedule handle is dropped as soon as the
/// cell is billed, so a million-solve campaign retains counters and
/// energies, not schedules.
pub fn evaluate_graphs(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
) -> Vec<Vec<Result<BatchCell, SolveError>>> {
    run_batch(strategies, cfg, jobs, |s| BatchCell::from(&s))
}

fn run_batch<R: Send>(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
    project: impl Fn(Solution) -> R + Sync,
) -> Vec<Vec<Result<R, SolveError>>> {
    let _span = lamps_obs::span("core", "solve_batch");
    // One cutoff resolution for the whole batch, shared read-only by
    // every worker.
    let sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
    BATCH_POOL.map_with(jobs, CacheBuffers::default, |bufs, job, _| {
        let mut cache = ScheduleCache::for_graph_recycled(job.graph, std::mem::take(bufs));
        let mut out = Vec::with_capacity(job.deadlines_s.len() * strategies.len());
        for &deadline_s in job.deadlines_s {
            for &strategy in strategies {
                out.push(
                    solve_impl(
                        strategy,
                        deadline_s,
                        cfg,
                        &mut cache,
                        None,
                        Some(&sweep),
                        None,
                    )
                    .map(|b| project(b.solution)),
                );
            }
        }
        *bufs = cache.into_buffers();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve_with_cache;
    use lamps_taskgraph::gen::layered::stg_group;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn corpus() -> Vec<TaskGraph> {
        let mut graphs: Vec<TaskGraph> = stg_group(40, 4, 97)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect();
        graphs.extend(
            stg_group(12, 3, 5)
                .into_iter()
                .map(|g| g.scale_weights(3_100_000)),
        );
        graphs
    }

    fn deadlines_for(g: &TaskGraph) -> Vec<f64> {
        let cpl_s = g.critical_path_cycles() as f64 / cfg().max_frequency();
        [1.0, 1.5, 2.0, 4.0, 8.0]
            .iter()
            .map(|f| f * cpl_s)
            .collect()
    }

    #[test]
    fn batch_is_bitwise_equal_to_per_graph_solves() {
        let graphs = corpus();
        let deadlines: Vec<Vec<f64>> = graphs.iter().map(deadlines_for).collect();
        let jobs: Vec<BatchJob<'_>> = graphs
            .iter()
            .zip(&deadlines)
            .map(|(graph, d)| BatchJob {
                graph,
                deadlines_s: d,
            })
            .collect();
        let strategies = Strategy::all();
        let batch = solve_batch(&strategies, &cfg(), &jobs);
        assert_eq!(batch.len(), jobs.len());
        for (job, results) in jobs.iter().zip(&batch) {
            let mut cache = ScheduleCache::for_graph(job.graph);
            let mut k = 0;
            for &d in job.deadlines_s {
                for &s in strategies.iter() {
                    let reference = solve_with_cache(s, d, &cfg(), &mut cache);
                    match (&results[k], &reference) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.n_procs, b.n_procs, "{s} @ {d}");
                            assert_eq!(a.level.freq.to_bits(), b.level.freq.to_bits());
                            assert_eq!(a.makespan_cycles, b.makespan_cycles);
                            assert_eq!(
                                a.energy.total().to_bits(),
                                b.energy.total().to_bits(),
                                "{s} @ {d}: batch energy diverged"
                            );
                        }
                        (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                        (a, b) => panic!("{s} @ {d}: {a:?} vs {b:?}"),
                    }
                    k += 1;
                }
            }
            assert_eq!(k, results.len());
        }
    }

    #[test]
    fn evaluate_graphs_matches_solve_batch() {
        let graphs = corpus();
        let deadlines: Vec<Vec<f64>> = graphs.iter().map(deadlines_for).collect();
        let jobs: Vec<BatchJob<'_>> = graphs
            .iter()
            .zip(&deadlines)
            .map(|(graph, d)| BatchJob {
                graph,
                deadlines_s: d,
            })
            .collect();
        let strategies = [Strategy::Lamps, Strategy::LampsPs];
        let full = solve_batch(&strategies, &cfg(), &jobs);
        let cells = evaluate_graphs(&strategies, &cfg(), &jobs);
        for (f_row, c_row) in full.iter().zip(&cells) {
            assert_eq!(f_row.len(), c_row.len());
            for (f, c) in f_row.iter().zip(c_row) {
                match (f, c) {
                    (Ok(sol), Ok(cell)) => {
                        assert_eq!(cell, &BatchCell::from(sol));
                        assert_eq!(cell.energy.total().to_bits(), sol.energy.total().to_bits());
                    }
                    (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                    (a, b) => panic!("{a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(solve_batch(&Strategy::all(), &cfg(), &[]).is_empty());
        let g = corpus().remove(0);
        let jobs = [BatchJob {
            graph: &g,
            deadlines_s: &[],
        }];
        let out = solve_batch(&Strategy::all(), &cfg(), &jobs);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
        let no_strat = solve_batch(&[], &cfg(), &jobs);
        assert!(no_strat[0].is_empty());
    }
}
