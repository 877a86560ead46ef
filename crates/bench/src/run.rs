//! Per-graph experiment execution: run every strategy and both limits on
//! one (graph, granularity, deadline-factor) cell.
//!
//! LS-EDF schedules are deadline-invariant above the critical path, so
//! one canonical [`ScheduleCache`] serves every strategy *and* every
//! deadline factor of a graph: [`evaluate_graph_all_factors`] schedules
//! each candidate processor count at most once for the whole sweep,
//! where the naive layout re-schedules per (factor, strategy) cell.

use crate::suite::Granularity;
use lamps_core::cache::ScheduleCache;
use lamps_core::limits::{limit_mf, limit_sf};
use lamps_core::{solve_with_cache, SchedulerConfig, SolveError, Strategy};
use lamps_taskgraph::TaskGraph;

/// Result of one strategy on one graph.
#[derive(Debug, Clone, Copy)]
pub struct StrategyOutcome {
    /// Total energy \[J\].
    pub energy_j: f64,
    /// Processors employed.
    pub n_procs: usize,
    /// Chosen supply voltage \[V\].
    pub vdd: f64,
    /// Sleep episodes taken.
    pub sleep_episodes: usize,
}

/// All strategies and limits evaluated on one graph.
#[derive(Debug, Clone)]
pub struct GraphResult {
    /// S&S — the baseline.
    pub ss: StrategyOutcome,
    /// LAMPS.
    pub lamps: StrategyOutcome,
    /// S&S+PS.
    pub ss_ps: StrategyOutcome,
    /// LAMPS+PS.
    pub lamps_ps: StrategyOutcome,
    /// LIMIT-SF energy \[J\].
    pub limit_sf_j: f64,
    /// LIMIT-MF energy \[J\].
    pub limit_mf_j: f64,
    /// Average parallelism of the (scaled) graph.
    pub parallelism: f64,
    /// Total work of the scaled graph \[cycles\].
    pub work_cycles: u64,
    /// Deadline used \[s\].
    pub deadline_s: f64,
}

impl GraphResult {
    /// Energy of a strategy relative to S&S (1.0 = baseline).
    pub fn relative(&self, which: Strategy) -> f64 {
        let e = match which {
            Strategy::ScheduleStretch => self.ss.energy_j,
            Strategy::Lamps => self.lamps.energy_j,
            Strategy::ScheduleStretchPs => self.ss_ps.energy_j,
            Strategy::LampsPs => self.lamps_ps.energy_j,
        };
        e / self.ss.energy_j
    }

    /// LIMIT-SF relative to S&S.
    pub fn relative_limit_sf(&self) -> f64 {
        self.limit_sf_j / self.ss.energy_j
    }

    /// LIMIT-MF relative to S&S.
    pub fn relative_limit_mf(&self) -> f64 {
        self.limit_mf_j / self.ss.energy_j
    }
}

fn outcome(sol: &lamps_core::Solution) -> StrategyOutcome {
    StrategyOutcome {
        energy_j: sol.energy.total(),
        n_procs: sol.n_procs,
        vdd: sol.level.vdd,
        sleep_episodes: sol.energy.sleep_episodes,
    }
}

/// Evaluate all strategies and limits on one graph.
///
/// `graph` is in STG weight units; it is scaled by the granularity and
/// given a deadline of `factor × CPL` at the maximum frequency.
pub fn evaluate_graph(
    graph: &TaskGraph,
    granularity: Granularity,
    factor: f64,
    cfg: &SchedulerConfig,
) -> Result<GraphResult, SolveError> {
    let scaled = graph.clone().scale_weights(granularity.cycles_per_unit());
    let deadline_s = factor * scaled.critical_path_cycles() as f64 / cfg.max_frequency();
    evaluate_scaled(&scaled, deadline_s, cfg)
}

/// Evaluate one graph under *every* deadline factor, sharing a single
/// schedule cache across the whole sweep. Returns one entry per factor
/// (`None` where that cell is infeasible or degenerate).
pub fn evaluate_graph_all_factors(
    graph: &TaskGraph,
    granularity: Granularity,
    factors: &[f64],
    cfg: &SchedulerConfig,
) -> Vec<Option<GraphResult>> {
    let scaled = graph.clone().scale_weights(granularity.cycles_per_unit());
    let mut cache = ScheduleCache::for_graph(&scaled);
    factors
        .iter()
        .map(|&factor| {
            let deadline_s = factor * scaled.critical_path_cycles() as f64 / cfg.max_frequency();
            evaluate_scaled_with(&scaled, deadline_s, cfg, &mut cache).ok()
        })
        .collect()
}

/// Evaluate a graph already scaled to cycles, with an explicit deadline.
pub fn evaluate_scaled(
    scaled: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
) -> Result<GraphResult, SolveError> {
    let mut cache = ScheduleCache::for_graph(scaled);
    evaluate_scaled_with(scaled, deadline_s, cfg, &mut cache)
}

/// [`evaluate_scaled`] against a caller-owned cache (which must have
/// been built for `scaled` with deadline-invariant canonical keys, e.g.
/// by [`ScheduleCache::for_graph`]).
pub fn evaluate_scaled_with(
    scaled: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Result<GraphResult, SolveError> {
    let ss = solve_with_cache(Strategy::ScheduleStretch, deadline_s, cfg, cache)?;
    let lamps = solve_with_cache(Strategy::Lamps, deadline_s, cfg, cache)?;
    let ss_ps = solve_with_cache(Strategy::ScheduleStretchPs, deadline_s, cfg, cache)?;
    let lamps_ps = solve_with_cache(Strategy::LampsPs, deadline_s, cfg, cache)?;
    let sf = limit_sf(scaled, deadline_s, cfg)?;
    let mf = limit_mf(scaled, deadline_s, cfg)?;
    Ok(GraphResult {
        ss: outcome(&ss),
        lamps: outcome(&lamps),
        ss_ps: outcome(&ss_ps),
        lamps_ps: outcome(&lamps_ps),
        limit_sf_j: sf.energy_j,
        limit_mf_j: mf.energy_j,
        parallelism: scaled.parallelism(),
        work_cycles: scaled.total_work_cycles(),
        deadline_s,
    })
}

/// Arithmetic mean of `f` over a slice of results (the aggregation used
/// for the per-group bars of Figs. 10–11).
pub fn mean_over(results: &[GraphResult], f: impl Fn(&GraphResult) -> f64) -> f64 {
    if results.is_empty() {
        return f64::NAN;
    }
    results.iter().map(f).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};

    fn small_graph() -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 40,
                n_layers: 8,
                ..LayeredConfig::default()
            },
            17,
        )
    }

    #[test]
    fn evaluates_all_strategies_consistently() {
        let g = small_graph();
        let cfg = SchedulerConfig::paper();
        let r = evaluate_graph(&g, Granularity::Coarse, 2.0, &cfg).unwrap();
        // Dominance chain as relative numbers.
        assert!((r.relative(Strategy::ScheduleStretch) - 1.0).abs() < 1e-12);
        assert!(r.relative(Strategy::Lamps) <= 1.0 + 1e-9);
        assert!(r.relative(Strategy::ScheduleStretchPs) <= 1.0 + 1e-9);
        assert!(r.relative(Strategy::LampsPs) <= r.relative(Strategy::Lamps) + 1e-9);
        assert!(r.relative_limit_sf() <= r.relative(Strategy::LampsPs) + 1e-9);
        assert!(r.relative_limit_mf() <= r.relative_limit_sf() + 1e-12);
    }

    #[test]
    fn fine_grain_uses_same_relative_lamps_as_coarse() {
        // §5.2: "For fine-grain tasks the relative differences between
        // S&S and LAMPS are the same as with coarse-grain tasks, since
        // both heuristics do not shut down processors." The schedules and
        // levels are identical up to time scaling, so the ratio matches
        // exactly.
        let g = small_graph();
        let cfg = SchedulerConfig::paper();
        let rc = evaluate_graph(&g, Granularity::Coarse, 2.0, &cfg).unwrap();
        let rf = evaluate_graph(&g, Granularity::Fine, 2.0, &cfg).unwrap();
        assert!(
            (rc.relative(Strategy::Lamps) - rf.relative(Strategy::Lamps)).abs() < 1e-9,
            "coarse {} vs fine {}",
            rc.relative(Strategy::Lamps),
            rf.relative(Strategy::Lamps)
        );
    }

    #[test]
    fn mean_over_averages() {
        let g = small_graph();
        let cfg = SchedulerConfig::paper();
        let r = evaluate_graph(&g, Granularity::Coarse, 2.0, &cfg).unwrap();
        let results = vec![r.clone(), r];
        let m = mean_over(&results, |x| x.relative(Strategy::Lamps));
        assert!((m - results[0].relative(Strategy::Lamps)).abs() < 1e-12);
        assert!(mean_over(&[], |_| 0.0).is_nan());
    }
}
