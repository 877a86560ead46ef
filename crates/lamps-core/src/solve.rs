//! The solver: S&S, LAMPS, and their +PS variants (§4.1–§4.3).

use crate::budget::{BudgetedSolution, Completeness, Meter, SolveBudget};
use crate::cache::ScheduleCache;
use crate::config::SchedulerConfig;
use crate::explain::{
    CandidateExplain, GapVerdict, LevelExplain, PsExplain, SearchPhase, SearchStep, SolveExplain,
    MAX_GAP_VERDICTS,
};
use crate::types::{Solution, SolveError, Strategy};
use lamps_energy::{evaluate_summary, min_sleep_cycles, EnergyBreakdown, LevelSweep};
use lamps_power::OperatingPoint;
use lamps_sched::{IdleSummary, ProcId, Schedule};
use lamps_taskgraph::{TaskGraph, TaskId};

/// Best (level, energy) choice for one already-scheduled processor count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate {
    pub(crate) n_procs: usize,
    pub(crate) level: OperatingPoint,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) makespan_cycles: u64,
}

/// Safety margin for the energy-floor scan break: the scan ends early
/// only when the floor, *discounted* by one part in 10⁹, still reaches
/// the incumbent energy — `floor * PRUNE_MARGIN >= incumbent`, i.e. the
/// floor exceeds the incumbent by more than the discount. The floor is
/// exact up to a handful of float roundings (relative error ≲ 10⁻¹²),
/// far inside the margin, so every candidate past the break provably
/// costs ≥ the incumbent and the strict-`<` winner rule would reject it
/// anyway: the margin strictly under-prunes, and pruned solves are
/// bitwise identical to unpruned ones. (A candidate whose true energy
/// *equals* the floor — zero idle at the cheapest feasible level — is
/// never cut off by an incumbent it could tie or beat.)
const PRUNE_MARGIN: f64 = 1.0 - 1e-9;

/// Lower bound on the total energy of any candidate whose makespan is at
/// least `bound_cycles`: every one of the graph's `work_cycles` executed
/// cycles costs at least the cheapest energy-per-cycle among the levels
/// fast enough to fit `bound_cycles` into the deadline, and the
/// remaining terms (idle, sleep, wake transitions) are all nonnegative.
/// The level set is taken at the *bound*, not the true makespan — a
/// superset of the levels any such candidate may sweep (per-cycle energy
/// is not monotone in frequency, so the minimum is over the whole set).
/// `None` when no level fits even the bound: such a candidate has no
/// feasible level at all.
fn energy_floor(
    cfg: &SchedulerConfig,
    work_cycles: u64,
    bound_cycles: u64,
    deadline_s: f64,
) -> Option<f64> {
    let required_freq = bound_cycles as f64 / deadline_s;
    cfg.levels
        .at_least(required_freq)
        .map(|l| work_cycles as f64 * l.energy_per_cycle)
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |a: f64| a.min(e)))
        })
}

/// Steps a candidate's full level sweep costs at `required_freq`: one per
/// level at least that fast with PS, only the slowest such level
/// without PS, none when no level is fast enough.
fn sweep_steps(cfg: &SchedulerConfig, required_freq: f64, ps: bool) -> u64 {
    let fits = cfg.levels.at_least(required_freq).count() as u64;
    if ps {
        fits
    } else {
        fits.min(1)
    }
}

/// The deadline rule a solve runs against (DESIGN.md §11, "Deadline
/// models"). Both rules share the one §4.2 search; they differ in what
/// "meets the deadline" means for a schedule and in the billing horizon.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DeadlineModel {
    /// One deadline for the whole graph (§3.1): a count is feasible when
    /// its makespan fits the deadline, the required frequency is
    /// makespan / deadline, and energy is billed to the deadline.
    Uniform { deadline_s: f64 },
    /// Per-task latest finish times `lf` — the keys of the solve's
    /// [`ScheduleCache`] — under a horizon (the KPN generalisation,
    /// Fig. 1): a count is feasible when every `finish(t) ≤ lf[t]`, the
    /// required frequency is `max finish·f_max/lf`, and energy is billed
    /// to the horizon. `latest_cycles` is the latest of the horizon and
    /// every explicit per-task deadline; no `lf` exceeds it.
    PerTask {
        horizon_cycles: u64,
        latest_cycles: u64,
    },
}

impl DeadlineModel {
    /// Reject a deadline no schedule can meet before any is built.
    /// Returns the cycle bound that seeds the binary search (the
    /// deadline, or the horizon) and the billing horizon in seconds.
    fn admit(
        &self,
        cfg: &SchedulerConfig,
        cache: &mut ScheduleCache<'_>,
    ) -> Result<(u64, f64), SolveError> {
        let graph = cache.graph();
        match *self {
            DeadlineModel::Uniform { deadline_s } => {
                if !deadline_s.is_finite() || deadline_s <= 0.0 {
                    return Err(SolveError::BadDeadline(deadline_s));
                }
                let deadline_cycles = cfg.deadline_cycles(deadline_s);
                let cpl_cycles = graph.critical_path_cycles();
                if cpl_cycles > deadline_cycles {
                    return Err(SolveError::Infeasible {
                        deadline_s,
                        best_possible_s: cpl_cycles as f64 / cfg.max_frequency(),
                    });
                }
                Ok((deadline_cycles, deadline_s))
            }
            DeadlineModel::PerTask { horizon_cycles, .. } => {
                if horizon_cycles == 0 {
                    return Err(SolveError::BadDeadline(0.0));
                }
                // Even unbounded processors cannot beat the top levels.
                let tl = graph.top_levels();
                if tl.iter().zip(cache.keys()).any(|(&t, &lf)| t > lf) {
                    return Err(self.infeasible(cfg, cache, 1));
                }
                Ok((horizon_cycles, horizon_cycles as f64 / cfg.max_frequency()))
            }
        }
    }

    /// The latest any task of a feasible schedule may finish, given the
    /// bound from [`Self::admit`]: the deadline itself, or the latest of
    /// the horizon and every explicit per-task deadline (which may lie
    /// past the horizon). No feasible count's makespan exceeds it, so
    /// `⌈work/latest⌉` is a lower bound that seeds the binary search.
    fn latest_cycles(&self, bound_cycles: u64) -> u64 {
        match *self {
            DeadlineModel::Uniform { .. } => bound_cycles,
            DeadlineModel::PerTask { latest_cycles, .. } => latest_cycles,
        }
    }

    /// The makespan on `n` processors and whether that schedule meets
    /// every deadline at the maximum frequency; `bound_cycles` is the
    /// bound from [`Self::admit`].
    fn probe(&self, cache: &mut ScheduleCache<'_>, n: usize, bound_cycles: u64) -> (u64, bool) {
        match self {
            DeadlineModel::Uniform { .. } => {
                let makespan = cache.makespan(n);
                (makespan, makespan <= bound_cycles)
            }
            DeadlineModel::PerTask { .. } => {
                let schedule = cache.schedule_arc(n);
                let fits = meets_latest_finish(&schedule, cache.keys());
                (schedule.makespan_cycles(), fits)
            }
        }
    }

    /// [`Self::probe`]'s verdict for a count whose makespan is known (the
    /// per-task rule still looks up the schedule).
    fn fits(&self, cache: &mut ScheduleCache<'_>, n: usize, makespan: u64, bound: u64) -> bool {
        match self {
            DeadlineModel::Uniform { .. } => makespan <= bound,
            DeadlineModel::PerTask { .. } => {
                let schedule = cache.schedule_arc(n);
                meets_latest_finish(&schedule, cache.keys())
            }
        }
    }

    /// The slowest frequency \[Hz\] at which the schedule on `n`
    /// processors, of makespan `makespan_cycles`, meets every deadline
    /// (and, per task, ends by the billing horizon).
    fn required_freq(
        &self,
        cfg: &SchedulerConfig,
        cache: &mut ScheduleCache<'_>,
        n: usize,
        makespan_cycles: u64,
    ) -> f64 {
        let horizon_cycles = match *self {
            DeadlineModel::Uniform { deadline_s } => return makespan_cycles as f64 / deadline_s,
            DeadlineModel::PerTask { horizon_cycles, .. } => horizon_cycles,
        };
        let (f_max, schedule) = (cfg.max_frequency(), cache.schedule_arc(n));
        // The bill ends at the horizon, so the schedule must too, even
        // when an explicit deadline lies past it. With every deadline at
        // or before the horizon the last sink already forces this floor.
        let mut req = makespan_cycles as f64 * f_max / horizon_cycles as f64;
        for (i, &lf) in cache.keys().iter().enumerate() {
            let finish = schedule.finish(TaskId(i as u32)) as f64;
            // lf ≥ weight ≥ 0; lf == 0 only for zero-weight tasks due at 0,
            // which any frequency satisfies (finish == 0 too, or infeasible).
            if lf > 0 {
                req = req.max(finish * f_max / lf as f64);
            } else if finish > 0.0 {
                req = f64::INFINITY;
            }
        }
        req
    }

    /// The model's infeasibility error: a uniform deadline reports the
    /// makespan on `n` processors (never below the critical path); the
    /// per-task rule reports the horizon stretched by the worst ratio of
    /// top level to latest finish time.
    fn infeasible(
        &self,
        cfg: &SchedulerConfig,
        cache: &mut ScheduleCache<'_>,
        n: usize,
    ) -> SolveError {
        let graph = cache.graph();
        let (deadline_s, best_possible_s) = match *self {
            DeadlineModel::Uniform { deadline_s } => {
                let best = cache.makespan(n).max(graph.critical_path_cycles());
                (deadline_s, best as f64 / cfg.max_frequency())
            }
            DeadlineModel::PerTask { horizon_cycles, .. } => {
                let horizon_s = horizon_cycles as f64 / cfg.max_frequency();
                let tl = graph.top_levels();
                let ratios = tl
                    .iter()
                    .zip(cache.keys())
                    .map(|(&t, &lf)| t as f64 / lf.max(1) as f64);
                (horizon_s, horizon_s * ratios.fold(1.0f64, f64::max))
            }
        };
        SolveError::Infeasible {
            deadline_s,
            best_possible_s,
        }
    }
}

/// Whether every task of `schedule` finishes by its latest finish time.
fn meets_latest_finish(schedule: &Schedule, lf: &[u64]) -> bool {
    (0..lf.len()).all(|i| schedule.finish(TaskId(i as u32)) <= lf[i])
}

/// Pruning/scan counters of one solve, flushed to the metrics registry
/// and into the decision log.
#[derive(Default)]
struct SolveCounters {
    candidates: u64,
    scan_breaks: u64,
}

/// Solve `graph` with `strategy` under `deadline_s` on the platform
/// `cfg`.
///
/// Returns the chosen processor count, operating level, schedule, and
/// full energy accounting; errors if the deadline cannot be met at the
/// maximum frequency even with one processor per task.
pub fn solve(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
) -> Result<Solution, SolveError> {
    let mut cache = ScheduleCache::for_graph(graph);
    solve_with_cache(strategy, deadline_s, cfg, &mut cache)
}

/// [`solve_with_cache`], additionally returning the full decision log.
///
/// The log records every processor count the search touched, every
/// level sweep with per-gap shutdown verdicts, and the cache hit/miss
/// deltas; see [`SolveExplain`]. Collecting it costs extra bookkeeping,
/// so use the plain [`solve_with_cache`] when the log is not needed.
pub fn solve_with_cache_explained(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> (Result<Solution, SolveError>, SolveExplain) {
    let mut explain = SolveExplain::new(strategy, deadline_s);
    let result = solve_impl(
        strategy,
        DeadlineModel::Uniform { deadline_s },
        cfg,
        cache,
        Some(&mut explain),
        None,
        None,
    );
    (result.map(|b| b.solution), explain)
}

/// [`solve`] against a caller-owned [`ScheduleCache`].
///
/// Because LS-EDF schedules are deadline-invariant for any deadline at
/// or above the critical path (see [`ScheduleCache::for_graph`]), one
/// canonical cache can serve a whole sweep over deadlines *and*
/// strategies: every schedule and idle summary is computed at most once
/// for the graph, instead of once per (deadline, strategy) cell.
/// Deadlines below the critical path are rejected before any schedule is
/// touched, so the canonical keys are never used out of their validity
/// range. The search prunes exactly when the cache's shortcuts are on
/// (see [`ScheduleCache::set_shortcuts_enabled`]).
pub fn solve_with_cache(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Result<Solution, SolveError> {
    let model = DeadlineModel::Uniform { deadline_s };
    solve_impl(strategy, model, cfg, cache, None, None, None).map(|b| b.solution)
}

/// The reference engine: [`solve_with_cache`] with the cache's shortcuts
/// — and with them every solver-side pruning rule — turned off, where
/// they stay after the call. No plateau answers, no early scan
/// termination: the search walks exactly the candidate set of the
/// original exhaustive formulation. The differential suite runs this as
/// the oracle the pruned path must match bitwise; it is not meant for
/// production use.
pub fn solve_with_cache_unpruned(
    strategy: Strategy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Result<Solution, SolveError> {
    cache.set_shortcuts_enabled(false);
    solve_with_cache(strategy, deadline_s, cfg, cache)
}

/// The shared solve body behind every entry point: runs the search
/// under `budget` (`None`: unlimited), optionally filling a decision
/// log, and flushes the solve's cache deltas and scan counters into the
/// global metrics registry. `sweep`, when given, holds the level
/// sweep's per-level sleep cutoffs already resolved — it must be
/// `LevelSweep::new(cfg.levels.points(), &cfg.sleep)` for this `cfg` —
/// so a batch resolves them once for all its solves; results are
/// bitwise identical either way.
pub(crate) fn solve_impl(
    strategy: Strategy,
    model: DeadlineModel,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    mut explain: Option<&mut SolveExplain>,
    sweep: Option<&LevelSweep>,
    budget: Option<&SolveBudget>,
) -> Result<BudgetedSolution, SolveError> {
    let _span = lamps_obs::span("core", "solve");
    let stats_before = cache.stats();
    let mut counters = SolveCounters::default();
    let mut meter = Meter::new(budget);
    let result = solve_search(
        strategy,
        &model,
        cfg,
        cache,
        explain.as_deref_mut(),
        sweep,
        &mut meter,
        &mut counters,
    );
    let delta = cache.stats().since(&stats_before);
    if let Some(ex) = explain {
        ex.cache = delta;
        ex.scan_breaks = counters.scan_breaks;
        if let Err(e) = &result {
            ex.error = Some(e.to_string());
        }
    }
    let exhausted = matches!(result, Err(SolveError::BudgetExhausted { .. }));
    if let Err(SolveError::BudgetExhausted { explored, total }) = &result {
        lamps_obs::flight::record(
            lamps_obs::flight::CORE_BUDGET_EXPIRED,
            budget.and_then(|b| b.max_steps).unwrap_or(0),
            *explored,
            *total,
        );
    }
    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("core.solve.calls").inc();
        if result.is_err() {
            lamps_obs::counter("core.solve.errors").inc();
        }
        if budget.is_some() {
            lamps_obs::counter("core.budget.calls").inc();
            if exhausted {
                lamps_obs::counter("core.budget.exhausted").inc();
            }
        }
        lamps_obs::counter("core.cache.schedule_hits").add(delta.schedule_hits);
        lamps_obs::counter("core.cache.schedule_misses").add(delta.schedule_misses);
        lamps_obs::counter("core.cache.summary_hits").add(delta.summary_hits);
        lamps_obs::counter("core.cache.summary_misses").add(delta.summary_misses);
        lamps_obs::counter("core.cache.plateau_hits").add(delta.plateau_hits);
        lamps_obs::counter("core.scan.candidates").add(counters.candidates);
        lamps_obs::counter("core.prune.scan_breaks").add(counters.scan_breaks);
    }
    result
}

/// The one LAMPS / S&S search (§4.1–§4.3) behind every entry point and
/// every [`DeadlineModel`].
///
/// Pruning follows the cache: with its shortcuts on, the critical path
/// (and, under a uniform deadline, the energy floor) ends the scan early;
/// with them off this is the exhaustive reference engine. `meter`
/// charges one step per level a candidate's sweep covers (see
/// [`sweep_steps`]) and stops the scan when its budget trips.
#[allow(clippy::too_many_arguments)]
fn solve_search(
    strategy: Strategy,
    model: &DeadlineModel,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
    mut ex: Option<&mut SolveExplain>,
    sweep: Option<&LevelSweep>,
    meter: &mut Meter,
    counters: &mut SolveCounters,
) -> Result<BudgetedSolution, SolveError> {
    let graph = cache.graph();
    // The cycle bound seeding the binary search (the deadline, or the
    // per-task horizon) and the horizon the energy is billed to.
    let (bound_cycles, horizon_s) = model.admit(cfg, cache)?;
    let prune = cache.shortcuts_enabled();
    // Resolve the per-level sleep cutoffs once for the whole search
    // (batch callers pass them in, already resolved once per batch).
    // The unpruned reference deliberately keeps the original per-call
    // `evaluate_summary` route instead, so every pruned-vs-unpruned
    // comparison also cross-checks the precomputed-cutoff kernel against
    // the reference accounting, bit for bit.
    let owned_sweep;
    let sweep = if prune {
        Some(match sweep {
            Some(s) => {
                debug_assert_eq!(s.len(), cfg.levels.points().len());
                s
            }
            None => {
                owned_sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
                &owned_sweep
            }
        })
    } else {
        None
    };
    let cpl_cycles = graph.critical_path_cycles();
    if let Some(e) = ex.as_deref_mut() {
        e.deadline_cycles = bound_cycles;
    }

    let ps = strategy.uses_ps();
    let want_explain = ex.is_some();
    let levels_per_n = if ps { cfg.levels.len() as u64 } else { 1 };
    let n_hi = graph.len().max(1);
    // Probe records are buffered locally: the observer closures cannot
    // borrow `ex` directly while `cache` is mutably borrowed. An empty
    // Vec never allocates, so the plain (no-log) path stays free.
    let mut probes: Vec<SearchStep> = Vec::new();
    let step = |phase, n_procs, makespan_cycles, feasible, cache_hit| SearchStep {
        phase,
        n_procs,
        makespan_cycles,
        feasible,
        cache_hit,
    };
    // The §4.2 binary search for the minimal count the model accepts,
    // seeded at ⌈work/latest⌉.
    let latest_cycles = model.latest_cycles(bound_cycles);
    let min_feasible =
        |cache: &mut ScheduleCache<'_>, phase: SearchPhase, probes: &mut Vec<SearchStep>| {
            cache.min_feasible_procs_with(latest_cycles, &mut |c, n| {
                let hit = c.is_cached(n);
                let (makespan, fits) = model.probe(c, n, bound_cycles);
                if want_explain {
                    probes.push(step(phase, n, makespan, fits, hit));
                }
                fits
            })
        };
    // The one level sweep of a scheduled candidate.
    let evaluate = |summary: &IdleSummary, n, freq, limit, detail: Option<&mut _>| {
        best_level(summary, n, freq, horizon_s, cfg, ps, sweep, limit, detail)
    };

    // The winner, the step total a complete search may take, and the
    // count whose makespan an infeasibility error reports.
    let (best, total, fail_n) = if strategy.searches_proc_count() {
        // LAMPS / LAMPS+PS (§4.2–§4.3, Figs. 5 & 8): binary search for
        // the minimal feasible count, then a linear scan upward while the
        // makespan keeps decreasing, keeping the least-energy
        // configuration. The scan is linear, not binary, because energy
        // over the processor count has local minima (Fig. 6).
        let n_min_found = min_feasible(cache, SearchPhase::BinaryProbe, &mut probes);
        if let Some(e) = ex.as_deref_mut() {
            e.search.append(&mut probes);
        }
        let n_min = n_min_found.ok_or_else(|| model.infeasible(cfg, cache, n_hi))?;
        // Constant floor over the whole scan: every makespan is ≥ CPL,
        // so no candidate — present or future — can cost less than the
        // total work billed at the cheapest level that fits the CPL.
        // Once the incumbent drops to this floor the scan can stop
        // without scheduling further counts. Per-task deadlines run
        // without it (DESIGN.md §11).
        let scan_floor = (prune && matches!(model, DeadlineModel::Uniform { .. }))
            .then(|| energy_floor(cfg, graph.total_work_cycles(), cpl_cycles, horizon_s))
            .flatten();
        let mut best: Option<Candidate> = None;
        let mut best_index: Option<usize> = None;
        let mut prev_makespan: Option<u64> = None;
        for n in n_min..=n_hi {
            if let (Some(b), Some(floor)) = (&best, scan_floor) {
                if floor * PRUNE_MARGIN >= b.energy.total() {
                    counters.scan_breaks += 1;
                    break;
                }
            }
            let was_cached = cache.is_cached(n);
            let makespan = cache.makespan(n);
            if let Some(e) = ex.as_deref_mut() {
                let fits = model.fits(cache, n, makespan, bound_cycles);
                e.search
                    .push(step(SearchPhase::LinearScan, n, makespan, fits, was_cached));
            }
            if let Some(prev) = prev_makespan {
                // "until increasing the number of processors no longer
                // decreases the makespan" (§4.2).
                if makespan >= prev {
                    break;
                }
            }
            prev_makespan = Some(makespan);
            let required_freq = model.required_freq(cfg, cache, n, makespan);
            let Some(granted) = meter.admit(sweep_steps(cfg, required_freq, ps)) else {
                break;
            };
            let mut detail = want_explain.then(|| candidate_detail(n, makespan, was_cached));
            counters.candidates += 1;
            let summary = cache.summary(n);
            let cand = evaluate(summary, n, required_freq, granted as usize, detail.as_mut());
            if let (Some(e), Some(d)) = (ex.as_deref_mut(), detail) {
                e.candidates.push(d);
            }
            if let Some(c) = cand {
                if best
                    .as_ref()
                    .is_none_or(|b| c.energy.total() < b.energy.total())
                {
                    best = Some(c);
                    best_index = ex.as_deref().map(|e| e.candidates.len() - 1);
                }
            }
            if meter.interrupted() {
                break;
            }
            // Once the makespan reaches the CPL no later count can
            // strictly decrease it, so the §4.2 stopping rule would end
            // the scan at the next cell anyway — end it here and skip
            // scheduling that cell.
            if prune && makespan == cpl_cycles {
                counters.scan_breaks += 1;
                break;
            }
        }
        if let Some(e) = ex.as_deref_mut() {
            e.chosen = best_index;
        }
        (best, (n_hi - n_min + 1) as u64 * levels_per_n, n_min)
    } else {
        // S&S / S&S+PS (§4.1, §4.3): employ as many processors as reduce
        // the makespan; if (anomalously) that schedule misses the
        // deadline, fall back to the minimal feasible count.
        let mut n = cache.max_useful_procs_with(&mut |n, m, hit| {
            if want_explain {
                probes.push(step(SearchPhase::MaxUseful, n, m, false, hit));
            }
        });
        for p in &mut probes {
            p.feasible = model.fits(cache, p.n_procs, p.makespan_cycles, bound_cycles);
        }
        let (mut makespan, fits) = model.probe(cache, n, bound_cycles);
        let fallback = (!fits).then(|| min_feasible(cache, SearchPhase::Fallback, &mut probes));
        if let Some(e) = ex.as_deref_mut() {
            e.search.append(&mut probes);
        }
        if let Some(found) = fallback {
            n = found.ok_or_else(|| model.infeasible(cfg, cache, n))?;
            makespan = cache.makespan(n);
        }
        let was_cached = cache.is_cached(n);
        let required_freq = model.required_freq(cfg, cache, n, makespan);
        let summary = cache.summary(n);
        let mut detail = want_explain.then(|| candidate_detail(n, makespan, was_cached));
        let cand = meter
            .admit(sweep_steps(cfg, required_freq, ps))
            .and_then(|granted| {
                counters.candidates += 1;
                evaluate(summary, n, required_freq, granted as usize, detail.as_mut())
            });
        if let (Some(e), Some(d)) = (ex, detail) {
            e.candidates.push(d);
            if cand.is_some() {
                e.chosen = Some(0);
            }
        }
        (cand, levels_per_n, n)
    };

    let Some(best) = best else {
        return Err(if meter.interrupted() {
            SolveError::BudgetExhausted {
                explored: meter.spent(),
                total,
            }
        } else {
            model.infeasible(cfg, cache, fail_n)
        });
    };
    let schedule = cache.schedule_arc(best.n_procs);
    Ok(BudgetedSolution {
        solution: Solution {
            strategy,
            n_procs: best.n_procs,
            level: best.level,
            energy: best.energy,
            makespan_cycles: best.makespan_cycles,
            makespan_s: best.makespan_cycles as f64 / best.level.freq,
            schedule,
        },
        completeness: if meter.interrupted() {
            Completeness::Degraded {
                explored: meter.spent(),
                total,
            }
        } else {
            Completeness::Complete
        },
        steps: meter.spent(),
    })
}

/// Choose the operating level for a fixed schedule, given its idle
/// summary and the slowest frequency `required_freq` that meets its
/// deadlines over `horizon_s` (the makespan over the deadline, or
/// tighter for the per-task-deadline solver in [`crate::multi`]).
///
/// Without PS: the slowest feasible level (maximal stretch, §4.1).
/// With PS: sweep every feasible level from slowest to fastest and keep
/// the least-energy one (§4.3) — the sweep is what trades slowdown
/// against shutdown. At most `limit` levels are evaluated (a budgeted
/// scan's grant). Billing goes through [`evaluate_summary`], so a level
/// costs O(procs · log gaps) instead of a walk over the schedule's
/// tasks; with `sweep` (cutoffs resolved for `cfg`) it also skips the
/// cutoff search — same levels, same billing kernel, bitwise-identical
/// results. `detail` records the sweep for the decision log and always
/// takes the per-call route (it records per-gap verdicts anyway, so it
/// is never hot).
#[allow(clippy::too_many_arguments)]
pub(crate) fn best_level(
    summary: &IdleSummary,
    n_procs: usize,
    required_freq: f64,
    horizon_s: f64,
    cfg: &SchedulerConfig,
    ps: bool,
    sweep: Option<&LevelSweep>,
    limit: usize,
    mut detail: Option<&mut CandidateExplain>,
) -> Option<Candidate> {
    let makespan_cycles = summary.makespan_cycles();
    let sleep = ps.then_some(&cfg.sleep);
    let sweep = sweep.filter(|_| detail.is_none());
    if let Some(d) = detail.as_deref_mut() {
        d.required_freq_hz = required_freq;
    }
    let mut best: Option<Candidate> = None;
    let fitting = cfg
        .levels
        .points()
        .iter()
        .enumerate()
        .filter(|(_, level)| level.freq >= required_freq);
    for (i, level) in fitting.take(limit) {
        let evaluated = match sweep {
            Some(sw) => sw.evaluate(summary, i, horizon_s, ps),
            None => evaluate_summary(summary, level, horizon_s, sleep),
        };
        if let Some(d) = detail.as_deref_mut() {
            d.levels.push(LevelExplain {
                freq_hz: level.freq,
                vdd: level.vdd,
                energy_j: evaluated.as_ref().ok().map(|e| e.total()),
                sleep_episodes: evaluated.as_ref().map_or(0, |e| e.sleep_episodes),
                ps: sleep.map(|sl| ps_explain(summary, level, sl)),
            });
        }
        if let Ok(energy) = evaluated {
            if best
                .as_ref()
                .is_none_or(|b| energy.total() < b.energy.total())
            {
                best = Some(Candidate {
                    n_procs,
                    level: *level,
                    energy,
                    makespan_cycles,
                });
                if let Some(d) = detail.as_deref_mut() {
                    d.best_level = Some(d.levels.len() - 1);
                }
            }
        }
        if !ps {
            // Without PS the paper stretches maximally: take the slowest
            // feasible level and stop.
            break;
        }
    }
    best
}

/// An empty [`CandidateExplain`] shell for the sweep to fill.
fn candidate_detail(n_procs: usize, makespan_cycles: u64, cache_hit: bool) -> CandidateExplain {
    CandidateExplain {
        n_procs,
        makespan_cycles,
        required_freq_hz: 0.0,
        cache_hit,
        levels: Vec::new(),
        best_level: None,
    }
}

/// Per-gap shutdown verdicts of `summary` at `level`'s break-even
/// cutoff (the §4.3 rule, re-derived for the decision log).
fn ps_explain(
    summary: &IdleSummary,
    level: &OperatingPoint,
    sleep: &lamps_power::SleepParams,
) -> PsExplain {
    let cutoff = min_sleep_cycles(level, sleep);
    let mut out = PsExplain {
        cutoff_cycles: cutoff,
        sleep_gaps: 0,
        awake_gaps: 0,
        sleep_cycles: 0,
        awake_cycles: 0,
        intervals: Vec::new(),
        truncated: false,
    };
    for p in 0..summary.n_procs() {
        let p = ProcId(p as u32);
        let (awake, asleep, episodes) = summary.split_gaps(p, cutoff);
        out.awake_cycles += awake;
        out.sleep_cycles += asleep;
        out.sleep_gaps += episodes;
        out.awake_gaps += summary.gap_count(p) - episodes;
        for &g in summary.gaps(p) {
            if out.intervals.len() == MAX_GAP_VERDICTS {
                out.truncated = true;
                break;
            }
            out.intervals.push(GapVerdict {
                proc: p.index(),
                len_cycles: g,
                sleeps: g >= cutoff,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::apps::mpeg;
    use lamps_taskgraph::{GraphBuilder, TaskGraph};

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    /// An explained solve on a fresh cache.
    fn explained(
        s: Strategy,
        g: &TaskGraph,
        d: f64,
    ) -> (Result<Solution, SolveError>, SolveExplain) {
        solve_with_cache_explained(s, d, &cfg(), &mut ScheduleCache::for_graph(g))
    }

    /// Fig. 4a example scaled to milliseconds of work (coarse grain).
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

    fn deadline_x(graph: &TaskGraph, factor: f64) -> f64 {
        factor * graph.critical_path_cycles() as f64 / cfg().max_frequency()
    }

    #[test]
    fn all_strategies_meet_the_deadline() {
        let g = fig4a_coarse();
        for factor in [1.5, 2.0, 4.0, 8.0] {
            let d = deadline_x(&g, factor);
            for s in Strategy::all() {
                let sol = solve(s, &g, d, &cfg()).unwrap();
                assert!(
                    sol.makespan_s <= d * (1.0 + 1e-9),
                    "{s} misses deadline at {factor}x"
                );
                sol.schedule.validate(&g).unwrap();
                assert_eq!(sol.schedule.n_procs(), sol.n_procs);
            }
        }
    }

    #[test]
    fn dominance_chain_holds() {
        // LAMPS+PS ≤ {LAMPS, S&S+PS} ≤ S&S (§4: each refinement only
        // widens the search space / applies PS where it helps).
        let g = fig4a_coarse();
        for factor in [1.5, 2.0, 4.0, 8.0] {
            let d = deadline_x(&g, factor);
            let e = |s| solve(s, &g, d, &cfg()).unwrap().energy.total();
            let ss = e(Strategy::ScheduleStretch);
            let lamps = e(Strategy::Lamps);
            let ss_ps = e(Strategy::ScheduleStretchPs);
            let lamps_ps = e(Strategy::LampsPs);
            let eps = 1e-12;
            assert!(lamps <= ss + eps, "{factor}x: LAMPS > S&S");
            assert!(ss_ps <= ss + eps, "{factor}x: S&S+PS > S&S");
            assert!(lamps_ps <= lamps + eps, "{factor}x: LAMPS+PS > LAMPS");
            assert!(lamps_ps <= ss_ps + eps, "{factor}x: LAMPS+PS > S&S+PS");
        }
    }

    #[test]
    fn lamps_uses_fewer_or_equal_processors_with_loose_deadline() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        let lamps = solve(Strategy::Lamps, &g, d, &cfg()).unwrap();
        assert!(lamps.n_procs <= ss.n_procs);
        assert!(lamps.energy.total() < ss.energy.total());
    }

    #[test]
    fn mpeg_ss_employs_max_useful_processors() {
        // Table 3 reports 7 processors for S&S; our LS-EDF tie-breaking
        // reaches the critical-path makespan with 6 already (one fewer —
        // scheduler tie-break noise, see EXPERIMENTS.md). The invariant
        // that matters: S&S employs the full useful parallelism and its
        // makespan equals the CPL.
        let g = mpeg::paper_gop();
        let sol = solve(
            Strategy::ScheduleStretch,
            &g,
            mpeg::GOP_DEADLINE_SECONDS,
            &cfg(),
        )
        .unwrap();
        assert!(
            (6..=7).contains(&sol.n_procs),
            "S&S used {} processors",
            sol.n_procs
        );
        assert_eq!(sol.makespan_cycles, g.critical_path_cycles());
    }

    #[test]
    fn mpeg_lamps_uses_fewer_processors_than_ss() {
        // Table 3: LAMPS chooses 3 processors and saves > 25% energy.
        let g = mpeg::paper_gop();
        let d = mpeg::GOP_DEADLINE_SECONDS;
        let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        let lamps = solve(Strategy::Lamps, &g, d, &cfg()).unwrap();
        assert!(lamps.n_procs < ss.n_procs, "{} procs", lamps.n_procs);
        let saving = 1.0 - lamps.energy.total() / ss.energy.total();
        assert!(saving > 0.15, "LAMPS saving {saving}");
    }

    #[test]
    fn infeasible_deadline_is_reported() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 0.9);
        match solve(Strategy::Lamps, &g, d, &cfg()) {
            Err(SolveError::Infeasible { .. }) => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn bad_deadlines_rejected() {
        let g = fig4a_coarse();
        for d in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            match solve(Strategy::ScheduleStretch, &g, d, &cfg()) {
                Err(SolveError::BadDeadline(_)) => {}
                other => panic!("expected BadDeadline for {d}, got {other:?}"),
            }
        }
    }

    #[test]
    fn tight_deadline_forces_fast_level() {
        // At exactly the CPL (feasible only at f_max for the critical
        // path), S&S must run at the nominal voltage.
        let g = fig4a_coarse();
        let d = deadline_x(&g, 1.0);
        let sol = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!((sol.level.vdd - 1.0).abs() < 1e-9);
    }

    #[test]
    fn loose_deadline_allows_slow_level() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let sol = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!(sol.level.vdd < 0.7, "vdd = {}", sol.level.vdd);
    }

    #[test]
    fn ps_sleeps_on_long_tails() {
        // Coarse-grain graph with an 8× deadline: the tail is hundreds of
        // milliseconds, far beyond break-even, so S&S+PS must sleep.
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let sol = solve(Strategy::ScheduleStretchPs, &g, d, &cfg()).unwrap();
        assert!(sol.energy.sleep_episodes > 0);
        let no_ps = solve(Strategy::ScheduleStretch, &g, d, &cfg()).unwrap();
        assert!(sol.energy.total() < no_ps.energy.total());
    }

    #[test]
    fn single_task_graph() {
        let mut b = GraphBuilder::new();
        b.add_task(3_100_000);
        let g = b.build().unwrap();
        let d = deadline_x(&g, 4.0);
        for s in Strategy::all() {
            let sol = solve(s, &g, d, &cfg()).unwrap();
            assert_eq!(sol.n_procs, 1);
        }
    }

    #[test]
    fn pruned_and_unpruned_solves_are_bitwise_identical() {
        // The tentpole soundness claim: energy-floor pruning, the scan
        // cpl-stop and the width plateau must never change the
        // solution — not even in the last bit of the energy.
        let mut graphs = lamps_taskgraph::gen::layered::stg_group(50, 4, 23)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect::<Vec<_>>();
        graphs.push(fig4a_coarse());
        for (i, g) in graphs.iter().enumerate() {
            for factor in [1.0, 1.5, 2.0, 4.0, 8.0] {
                let d = deadline_x(g, factor);
                for s in Strategy::all() {
                    let pruned = solve(s, g, d, &cfg());
                    let mut plain_cache = ScheduleCache::for_graph(g);
                    let unpruned = solve_with_cache_unpruned(s, d, &cfg(), &mut plain_cache);
                    match (pruned, unpruned) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a.n_procs, b.n_procs, "graph {i}, {s}, {factor}x");
                            assert_eq!(a.level.freq.to_bits(), b.level.freq.to_bits());
                            assert_eq!(a.makespan_cycles, b.makespan_cycles);
                            assert_eq!(
                                a.energy.total().to_bits(),
                                b.energy.total().to_bits(),
                                "graph {i}, {s}, {factor}x: pruning changed the energy"
                            );
                        }
                        (Err(a), Err(b)) => {
                            assert_eq!(format!("{a}"), format!("{b}"));
                        }
                        (a, b) => panic!("graph {i}, {s}, {factor}x: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn pruning_counters_surface_in_explain() {
        // On a wide graph with a loose deadline the scan visits several
        // counts; the scan break must fire somewhere across the sweep
        // and be visible in the decision log.
        let graphs = lamps_taskgraph::gen::layered::stg_group(60, 2, 7)
            .into_iter()
            .map(|g| g.scale_weights(310_000))
            .collect::<Vec<_>>();
        let mut any_break = 0u64;
        for g in &graphs {
            for factor in [1.5, 4.0] {
                let (res, ex) = explained(Strategy::LampsPs, g, deadline_x(g, factor));
                res.unwrap();
                any_break += ex.scan_breaks;
                // Every logged candidate ran its sweep: a feasible one
                // records its levels and keeps one of them.
                for c in &ex.candidates {
                    if c.makespan_cycles <= ex.deadline_cycles {
                        assert!(!c.levels.is_empty());
                        assert!(c.best_level.is_some());
                    }
                }
            }
        }
        assert!(any_break > 0, "pruning never fired across the suite");
    }

    #[test]
    fn explained_solve_matches_plain_and_serializes() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 2.0);
        for s in Strategy::all() {
            let plain = solve(s, &g, d, &cfg()).unwrap();
            let (res, ex) = explained(s, &g, d);
            let sol = res.unwrap();
            // The log is passive: same choice, bitwise-identical energy.
            assert_eq!(sol.n_procs, plain.n_procs);
            assert_eq!(
                sol.energy.total().to_bits(),
                plain.energy.total().to_bits(),
                "{s}: explained solve diverged"
            );
            let chosen = ex.chosen.expect("feasible solve records its winner");
            let c = &ex.candidates[chosen];
            assert_eq!(c.n_procs, sol.n_procs);
            let best = c.best_level.expect("winner has a level");
            assert_eq!(
                c.levels[best].energy_j.unwrap().to_bits(),
                sol.energy.total().to_bits()
            );
            assert!(!ex.search.is_empty(), "{s}: search path recorded");
            assert_eq!(ex.deadline_cycles, cfg().deadline_cycles(d));
            // JSON round-trips through the shared parser.
            let v = lamps_obs::json::parse(&ex.to_json()).expect("valid JSON");
            assert_eq!(v.get("schema").unwrap().as_str(), Some("lamps-explain-v3"));
            assert_eq!(v.get("strategy").unwrap().as_str(), Some(s.name()));
            let cands = v.get("candidates").unwrap().as_array().unwrap();
            assert_eq!(cands.len(), ex.candidates.len());
            assert_eq!(v.get("chosen").unwrap().as_number(), Some(chosen as f64));
            // Text rendering names the outcome.
            let txt = ex.render_text();
            assert!(txt.contains("chosen: n="), "{txt}");
        }
        // A failing solve records the error and no winner.
        let (res, ex) = explained(Strategy::Lamps, &g, deadline_x(&g, 0.5));
        assert!(res.is_err());
        assert!(ex.error.is_some());
        assert_eq!(ex.chosen, None);
        let v = lamps_obs::json::parse(&ex.to_json()).unwrap();
        assert!(v.get("error").unwrap().as_str().is_some());
    }

    #[test]
    fn explain_ps_verdicts_match_break_even() {
        let g = fig4a_coarse();
        let d = deadline_x(&g, 8.0);
        let (res, ex) = explained(Strategy::LampsPs, &g, d);
        let sol = res.unwrap();
        assert!(sol.energy.sleep_episodes > 0 || !ex.candidates.is_empty());
        let mut levels_seen = 0usize;
        for c in &ex.candidates {
            for l in &c.levels {
                let p = l.ps.as_ref().expect("+PS strategies carry verdicts");
                levels_seen += 1;
                if !p.truncated {
                    assert_eq!(p.intervals.len(), p.sleep_gaps + p.awake_gaps);
                    assert_eq!(
                        p.intervals.iter().filter(|g| g.sleeps).count(),
                        p.sleep_gaps
                    );
                    let sleep_cycles: u64 = p
                        .intervals
                        .iter()
                        .filter(|g| g.sleeps)
                        .map(|g| g.len_cycles)
                        .sum();
                    assert_eq!(sleep_cycles, p.sleep_cycles);
                }
                for g in &p.intervals {
                    assert_eq!(g.sleeps, g.len_cycles >= p.cutoff_cycles);
                }
            }
        }
        assert!(levels_seen > 1, "+PS sweeps more than one level");
        // Non-PS strategies carry no verdicts.
        let (_, no_ps) = explained(Strategy::Lamps, &g, d);
        assert!(no_ps
            .candidates
            .iter()
            .all(|c| c.levels.iter().all(|l| l.ps.is_none())));
    }

    #[test]
    fn fine_grain_ps_rarely_sleeps_inside() {
        // Fine-grain weights: gaps are microseconds, below break-even, so
        // only the end-of-schedule tail can sleep (§5.2's explanation of
        // why fine-grain gains are smaller).
        let g = {
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
            b.build().unwrap().scale_weights(31_000)
        };
        let d = deadline_x(&g, 1.5);
        let sol = solve(Strategy::ScheduleStretchPs, &g, d, &cfg()).unwrap();
        // Inner gaps are ~tens of microseconds: no sleeping pays off
        // within such a tight, fine-grain window.
        assert_eq!(sol.energy.sleep_episodes, 0);
    }

    /// Under per-task deadlines the decision log records the per-task
    /// verdict, not `makespan ≤ horizon`: on one processor the third
    /// task misses its latest finish time although the makespan fits
    /// the horizon.
    #[test]
    fn per_task_explain_records_the_per_task_verdict() {
        let unit = 3_100_000;
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_task(10);
        }
        let g = b.build().unwrap().scale_weights(unit);
        let lf = vec![10 * unit, 20 * unit, 20 * unit];
        let model = DeadlineModel::PerTask {
            horizon_cycles: 30 * unit,
            latest_cycles: 30 * unit,
        };
        for s in Strategy::all() {
            let mut cache = ScheduleCache::with_keys(&g, lf.clone());
            let mut ex = SolveExplain::new(s, 30.0 * unit as f64 / cfg().max_frequency());
            let sol = solve_impl(s, model, &cfg(), &mut cache, Some(&mut ex), None, None)
                .unwrap()
                .solution;
            assert_eq!(ex.deadline_cycles, 30 * unit);
            assert!(!ex.search.is_empty());
            for st in &ex.search {
                let schedule = cache.schedule_arc(st.n_procs);
                assert_eq!(st.makespan_cycles, schedule.makespan_cycles());
                assert_eq!(
                    st.feasible,
                    meets_latest_finish(&schedule, &lf),
                    "{s} {st:?}"
                );
            }
            let one = ex.search.iter().find(|st| st.n_procs == 1).unwrap();
            assert_eq!(
                (one.makespan_cycles, one.feasible),
                (30 * unit, false),
                "{s}"
            );
            assert!(sol.n_procs >= 2);
        }
    }

    /// Past-horizon vectors (one sink due at 3·CPL, horizon 1.5·CPL):
    /// the per-task binary search starts at a lower bound, so a linear
    /// scan from one processor up finds no feasible count below the one
    /// the search settles on.
    #[test]
    fn per_task_search_seed_is_a_lower_bound_past_the_horizon() {
        use crate::multi::DeadlineVector;
        use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
        let cfg = cfg();
        let mut below_horizon_seed = 0;
        for seed in 0..30u64 {
            let g = generate(
                &LayeredConfig {
                    n_tasks: [10, 40, 60][seed as usize % 3],
                    n_layers: 5,
                    ..LayeredConfig::default()
                },
                seed,
            )
            .scale_weights(310_000);
            let cpl = g.critical_path_cycles();
            let mut own = vec![None; g.len()];
            own[g.len() - 1] = Some(3 * cpl);
            let dv = DeadlineVector::from_kpn(own, cpl + cpl / 2);
            let lf = dv.latest_finish_times(&g);
            let mut cache = ScheduleCache::with_keys(&g, lf.clone());
            let mut ex = SolveExplain::new(Strategy::LampsPs, 0.0);
            let solved = solve_impl(
                Strategy::LampsPs,
                dv.model(),
                &cfg,
                &mut cache,
                Some(&mut ex),
                None,
                None,
            );
            let Some(n_min) = ex
                .search
                .iter()
                .filter(|st| st.phase == SearchPhase::BinaryProbe && st.feasible)
                .map(|st| st.n_procs)
                .min()
            else {
                assert!(
                    solved.is_err(),
                    "seed {seed}: a solve needs a feasible count"
                );
                continue;
            };
            let linear = (1..=g.len())
                .find(|&n| meets_latest_finish(&cache.schedule_arc(n), &lf))
                .unwrap();
            assert_eq!(
                linear, n_min,
                "seed {seed}: the search missed a smaller count"
            );
            if linear < g.min_processors_lower_bound(dv.horizon_cycles).unwrap() {
                below_horizon_seed += 1;
            }
        }
        // The corpus reaches counts that `⌈work/horizon⌉` would skip.
        assert!(below_horizon_seed > 0);
    }
}
