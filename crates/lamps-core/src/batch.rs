//! Campaign-scale batch solving.
//!
//! The paper's evaluation — and the run-time re-solve scenario the
//! ROADMAP targets — is a *campaign*: every strategy swept over many
//! graphs × deadline factors. Solving each cell through [`crate::solve`]
//! pays per-solve setup costs thousands of times over: a fresh
//! [`ScheduleCache`] (workspace, memo spines, EDF keys) per graph and a
//! fresh per-level sleep-cutoff resolution per solve.
//!
//! [`evaluate_graphs`] amortizes both. Work items are *graph-granularity*
//! [`BatchJob`]s fanned out over the shared worker pool; each worker
//! builds one [`CacheBuffers`] set per call that every graph it
//! processes is rebuilt into, and the whole batch shares one immutable
//! [`LevelSweep`] with every level's sleep cutoff resolved exactly
//! once. Within a job, all deadlines × strategies share the graph's
//! schedule cache (LS-EDF schedules are deadline- and
//! strategy-invariant; see [`ScheduleCache::for_graph`]).
//!
//! The results come back as one [`BatchRows`] table of compact
//! [`BatchCell`]s: a single flat cell array, sized and allocated on the caller's thread before any worker
//! starts, with one row per job. Each job's worker writes its row in
//! place, so no result lives in a worker thread's allocation and
//! nothing is merged after the workers join.
//!
//! None of the amortized state is semantic: recycled buffers start
//! every cache cold and the precomputed cutoffs are the values the
//! per-solve path would recompute, so batch results are **bitwise
//! identical** to per-graph [`crate::solve_with_cache`] calls — the
//! differential tests below and the `lamps-verify` fuzzer's batch
//! dimension hold that line.

use crate::cache::{CacheBuffers, ScheduleCache};
use crate::config::SchedulerConfig;
use crate::solve::{solve_impl, DeadlineModel};
use crate::types::{Solution, SolveError, Strategy};
use lamps_energy::{EnergyBreakdown, LevelSweep};
use lamps_parallel::{Pool, PoolMetrics};
use lamps_taskgraph::TaskGraph;

/// Worker pool for graph-granularity batch items. The caller's thread
/// works too (alone on a single-core host); either way every row lands
/// in its job's place in the table.
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
///
/// It keeps what its readers read and nothing they can derive: the
/// chosen level is kept as its frequency, and the makespan in seconds
/// is [`BatchCell::makespan_s`], computed from the cycles on demand.
/// With `n_procs` as a `u32` the cell is 64 bytes, and so is a
/// `Result<BatchCell, SolveError>`: the error fits beside the strategy,
/// whose spare values tell the two apart. A campaign holds one per
/// strategy, deadline and graph of a batch call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCell {
    /// Strategy that produced this cell.
    pub strategy: Strategy,
    /// Processor count employed.
    pub n_procs: u32,
    /// Frequency of the chosen operating point \[Hz\].
    pub freq: f64,
    /// Full energy accounting.
    pub energy: EnergyBreakdown,
    /// Makespan in cycles at the nominal frequency.
    pub makespan_cycles: u64,
}

impl BatchCell {
    /// Makespan in seconds at the chosen level: the same expression the
    /// solver uses for [`Solution::makespan_s`], so the two agree bit
    /// for bit.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_cycles as f64 / self.freq
    }
}

impl From<&Solution> for BatchCell {
    fn from(s: &Solution) -> Self {
        BatchCell {
            strategy: s.strategy,
            n_procs: u32::try_from(s.n_procs)
                .expect("a processor count never exceeds the task count"),
            freq: s.level.freq,
            energy: s.energy,
            makespan_cycles: s.makespan_cycles,
        }
    }
}

/// The results of one batch call: one row per job, in job order, all
/// rows in one flat cell array the caller allocated once.
///
/// Row `j` holds job `j`'s `deadlines_s.len() × strategies.len()` cells,
/// deadline-major (all strategies of the first deadline, then the next
/// deadline). Rows are read as slices through [`BatchRows::iter`],
/// `&rows` in a `for` loop, or `rows[j]`; the workers wrote them in
/// place, so the cells never live in a worker thread's allocation.
#[derive(Debug, Clone)]
pub struct BatchRows {
    /// Every row's cells, back to back.
    cells: Vec<Result<BatchCell, SolveError>>,
    /// `ends[j]` is one past row `j`'s last cell in `cells`.
    ends: Vec<usize>,
}

impl BatchRows {
    /// Number of rows (jobs).
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch had no jobs.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Row `j`, or `None` past the last job.
    pub fn get(&self, j: usize) -> Option<&[Result<BatchCell, SolveError>]> {
        let end = *self.ends.get(j)?;
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        Some(&self.cells[start..end])
    }

    /// The rows in job order.
    pub fn iter(&self) -> BatchRowsIter<'_> {
        BatchRowsIter {
            rest: &self.cells,
            start: 0,
            ends: self.ends.iter(),
        }
    }

    /// Every cell of every row, back to back in job order.
    pub fn cells(&self) -> &[Result<BatchCell, SolveError>] {
        &self.cells
    }
}

impl std::ops::Index<usize> for BatchRows {
    type Output = [Result<BatchCell, SolveError>];

    fn index(&self, j: usize) -> &Self::Output {
        self.get(j)
            .unwrap_or_else(|| panic!("row {j} out of range for a batch of {} jobs", self.len()))
    }
}

impl<'a> IntoIterator for &'a BatchRows {
    type Item = &'a [Result<BatchCell, SolveError>];
    type IntoIter = BatchRowsIter<'a>;

    fn into_iter(self) -> BatchRowsIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`BatchRows`], in job order.
#[derive(Debug, Clone)]
pub struct BatchRowsIter<'a> {
    /// The cells of the rows not yet yielded.
    rest: &'a [Result<BatchCell, SolveError>],
    /// Index in the flat array of `rest`'s first cell.
    start: usize,
    ends: std::slice::Iter<'a, usize>,
}

impl<'a> Iterator for BatchRowsIter<'a> {
    type Item = &'a [Result<BatchCell, SolveError>];

    fn next(&mut self) -> Option<Self::Item> {
        let end = *self.ends.next()?;
        let (row, rest) = self.rest.split_at(end - self.start);
        self.rest = rest;
        self.start = end;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for BatchRowsIter<'_> {}

/// Solve every job's deadlines × strategies, one row of compact
/// [`BatchCell`]s per job. Each cell's schedule handle is dropped as
/// soon as the cell is billed, so a million-solve campaign retains
/// counters and energies, not schedules. Results are bitwise identical
/// to calling [`crate::solve_with_cache`] per graph in the same order.
pub fn evaluate_graphs(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
) -> BatchRows {
    // The span keeps the name recorded traces already carry.
    let _span = lamps_obs::span("core", "solve_batch");
    let ends: Vec<usize> = jobs
        .iter()
        .scan(0, |end, job| {
            *end += job.deadlines_s.len() * strategies.len();
            Some(*end)
        })
        .collect();
    // Every cell starts as a placeholder that its job overwrites; the
    // debug assertion below checks that no placeholder survives.
    let mut cells = Vec::new();
    cells.resize_with(ends.last().copied().unwrap_or(0), || {
        Err(SolveError::BudgetExhausted {
            explored: 0,
            total: 0,
        })
    });
    // Pair each job with its row of the flat table; the pool hands each
    // pair to one worker, which writes the row in place.
    let mut rest = cells.as_mut_slice();
    let rows = jobs.iter().map(|job| {
        let (row, tail) =
            std::mem::take(&mut rest).split_at_mut(job.deadlines_s.len() * strategies.len());
        rest = tail;
        (job, row)
    });
    // One cutoff resolution for the whole batch, shared read-only by
    // every worker.
    let sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
    BATCH_POOL.fill_with(rows, CacheBuffers::default, |bufs, (job, row), _| {
        let mut cache = ScheduleCache::for_graph_recycled(job.graph, std::mem::take(bufs));
        let mut slots = row.iter_mut();
        for &deadline_s in job.deadlines_s {
            for &strategy in strategies {
                let slot = slots
                    .next()
                    .expect("a row holds deadlines × strategies cells");
                *slot = solve_impl(
                    strategy,
                    DeadlineModel::Uniform { deadline_s },
                    cfg,
                    &mut cache,
                    None,
                    Some(&sweep),
                    None,
                )
                .map(|b| BatchCell::from(&b.solution));
            }
        }
        debug_assert!(slots.next().is_none(), "every cell of the row was written");
        *bufs = cache.into_buffers();
    });
    BatchRows { cells, ends }
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

    fn jobs<'a>(graphs: &'a [TaskGraph], deadlines: &'a [Vec<f64>]) -> Vec<BatchJob<'a>> {
        graphs
            .iter()
            .zip(deadlines)
            .map(|(graph, d)| BatchJob {
                graph,
                deadlines_s: d,
            })
            .collect()
    }

    #[test]
    fn batch_is_bitwise_equal_to_per_graph_solves() {
        let graphs = corpus();
        let deadlines: Vec<Vec<f64>> = graphs.iter().map(deadlines_for).collect();
        let jobs = jobs(&graphs, &deadlines);
        let strategies = Strategy::all();
        let batch = evaluate_graphs(&strategies, &cfg(), &jobs);
        assert_eq!(batch.len(), jobs.len());
        for (job, row) in jobs.iter().zip(&batch) {
            assert_row_matches_solo(job, &strategies, row);
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(evaluate_graphs(&Strategy::all(), &cfg(), &[]).is_empty());
        let g = corpus().remove(0);
        let jobs = [BatchJob {
            graph: &g,
            deadlines_s: &[],
        }];
        let out = evaluate_graphs(&Strategy::all(), &cfg(), &jobs);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
        let no_strat = evaluate_graphs(&[], &cfg(), &jobs);
        assert!(no_strat[0].is_empty());
    }

    /// Bitwise comparison of one batch row with per-graph
    /// `solve_with_cache` calls on a fresh cache, in deadline-major
    /// order: each cell is the projection of its solo solution, with
    /// the same energy and makespan bits.
    fn assert_row_matches_solo(
        job: &BatchJob<'_>,
        strategies: &[Strategy],
        row: &[Result<BatchCell, SolveError>],
    ) {
        assert_eq!(row.len(), job.deadlines_s.len() * strategies.len());
        let mut cache = ScheduleCache::for_graph(job.graph);
        let mut cells = row.iter();
        for &d in job.deadlines_s {
            for &s in strategies {
                let reference = solve_with_cache(s, d, &cfg(), &mut cache);
                match (cells.next().expect("row length checked"), &reference) {
                    (Ok(cell), Ok(sol)) => {
                        assert_eq!(cell, &BatchCell::from(sol), "{s} @ {d}");
                        assert_eq!(cell.n_procs as usize, sol.n_procs);
                        assert_eq!(cell.freq.to_bits(), sol.level.freq.to_bits());
                        assert_eq!(cell.makespan_cycles, sol.makespan_cycles);
                        assert_eq!(
                            cell.energy.total().to_bits(),
                            sol.energy.total().to_bits(),
                            "{s} @ {d}: batch energy diverged"
                        );
                        assert_eq!(cell.makespan_s().to_bits(), sol.makespan_s.to_bits());
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("{s} @ {d}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn mixed_row_lengths_come_back_in_job_order() {
        let graphs = corpus();
        // Job j gets 0, 1 or 5 deadlines in turn; 0.5 × CPL is
        // infeasible, so the error path lands in rows too.
        let deadlines: Vec<Vec<f64>> = graphs
            .iter()
            .enumerate()
            .map(|(j, g)| match j % 3 {
                0 => Vec::new(),
                1 => vec![deadlines_for(g)[2]],
                _ => {
                    let mut d = deadlines_for(g);
                    d[0] *= 0.5;
                    d
                }
            })
            .collect();
        let jobs = jobs(&graphs, &deadlines);
        let strategies = Strategy::all();
        let rows = evaluate_graphs(&strategies, &cfg(), &jobs);
        assert_eq!(rows.len(), jobs.len());
        assert_eq!(rows.iter().len(), jobs.len());
        assert!(rows.get(jobs.len()).is_none());
        let lengths: Vec<usize> = rows.iter().map(<[_]>::len).collect();
        let expected: Vec<usize> = [0, 1, 5]
            .iter()
            .cycle()
            .take(jobs.len())
            .map(|k| k * strategies.len())
            .collect();
        assert_eq!(lengths, expected);
        assert!(rows.cells().iter().any(Result::is_err));
        for (j, (job, row)) in jobs.iter().zip(&rows).enumerate() {
            assert_eq!(row.len(), rows[j].len());
            assert_row_matches_solo(job, &strategies, row);
        }

        let no_strategies = evaluate_graphs(&[], &cfg(), &jobs);
        assert_eq!(no_strategies.len(), jobs.len());
        assert!(no_strategies.iter().all(<[_]>::is_empty));
        assert!(no_strategies.cells().is_empty());
    }

    #[test]
    fn rows_are_contiguous_slices_of_one_flat_array() {
        let graphs = corpus();
        let deadlines: Vec<Vec<f64>> = graphs
            .iter()
            .enumerate()
            .map(|(j, g)| deadlines_for(g)[..j % 4].to_vec())
            .collect();
        let jobs = jobs(&graphs, &deadlines);
        let strategies = Strategy::all();
        let rows = evaluate_graphs(&strategies, &cfg(), &jobs);
        let flat = rows.cells().as_ptr_range();
        let total: usize = rows.iter().map(<[_]>::len).sum();
        assert_eq!(rows.cells().len(), total);
        // Each row starts where the previous one ended, inside the one
        // flat array, and the last ends where the array does: no row
        // lives in an allocation of its own.
        let mut cursor = flat.start;
        for row in &rows {
            let range = row.as_ptr_range();
            assert_eq!(range.start, cursor);
            assert!(range.end <= flat.end);
            cursor = range.end;
        }
        assert_eq!(cursor, flat.end);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_batch_cell_result_is_eight_words() {
        // A campaign holds one of these per cell of a batch call (16,384
        // for 1024 jobs × 4 deadlines × 4 strategies); growing it shows
        // up in peak memory.
        assert_eq!(std::mem::size_of::<BatchCell>(), 64);
        assert_eq!(std::mem::size_of::<Result<BatchCell, SolveError>>(), 64);
    }
}
