//! Fig. 6: total energy as a function of the employed processor count for
//! the three application graphs, showing the local minima that force
//! LAMPS's second phase to be a linear (not binary) search (§4.2).

use super::ExperimentOutput;
use crate::csv::{fmt, Csv};
use crate::suite::Granularity;
use lamps_core::cache::ScheduleCache;
use lamps_core::limits::limit_mf;
use lamps_core::SchedulerConfig;
use lamps_energy::evaluate_summary;
use lamps_taskgraph::apps::proxies;
use std::fmt::Write as _;

/// Energy over the processor count for one graph, normalized to the
/// LIMIT-MF lower bound (so curves of differently-sized graphs share an
/// axis, as in Fig. 6). `None` where the count cannot meet the deadline.
pub fn energy_vs_procs(
    graph: &lamps_taskgraph::TaskGraph,
    factor: f64,
    max_procs: usize,
    cfg: &SchedulerConfig,
) -> Vec<Option<f64>> {
    let deadline_s = factor * graph.critical_path_cycles() as f64 / cfg.max_frequency();
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    let mut cache = ScheduleCache::new(graph, deadline_cycles);
    let Ok(floor) = limit_mf(graph, deadline_s, cfg).map(|l| l.energy_j) else {
        return vec![None; max_procs];
    };
    (1..=max_procs)
        .map(|n| {
            let summary = cache.summary(n);
            let required = summary.makespan_cycles() as f64 / deadline_s;
            let level = cfg.levels.lowest_at_least(required)?;
            let energy = evaluate_summary(summary, level, deadline_s, None).ok()?;
            Some(energy.total() / floor)
        })
        .collect()
}

/// Count strict local minima in the defined region of a curve.
pub fn local_minima(curve: &[Option<f64>]) -> usize {
    let vals: Vec<f64> = curve.iter().flatten().copied().collect();
    vals.windows(3)
        .filter(|w| w[1] < w[0] && w[1] < w[2])
        .count()
}

/// Regenerate Fig. 6 for the three application proxies.
pub fn fig06(factor: f64, max_procs: usize) -> ExperimentOutput {
    let cfg = SchedulerConfig::paper();
    let unit = Granularity::Coarse.cycles_per_unit();

    let curves: Vec<(&str, Vec<Option<f64>>)> = proxies::all()
        .into_iter()
        .map(|(name, g)| {
            let scaled = g.scale_weights(unit);
            (name, energy_vs_procs(&scaled, factor, max_procs, &cfg))
        })
        .collect();

    let mut csv = Csv::new(&["n_procs", "fpppp", "robot", "sparse"]);
    for n in 0..max_procs {
        let cell = |c: &Vec<Option<f64>>| match c[n] {
            Some(v) => fmt(v),
            None => "".to_string(),
        };
        csv.row(&[
            (n + 1).to_string(),
            cell(&curves[0].1),
            cell(&curves[1].1),
            cell(&curves[2].1),
        ]);
    }

    let mut report = String::new();
    writeln!(
        report,
        "== Fig. 6: normalized energy vs processor count (deadline {factor} x CPL, coarse grain) =="
    )
    .unwrap();
    writeln!(
        report,
        "{:>6} {:>10} {:>10} {:>10}",
        "procs", "fpppp", "robot", "sparse"
    )
    .unwrap();
    for n in 0..max_procs {
        let cell = |c: &Vec<Option<f64>>| match c[n] {
            Some(v) => format!("{v:.3}"),
            None => "-".to_string(),
        };
        writeln!(
            report,
            "{:>6} {:>10} {:>10} {:>10}",
            n + 1,
            cell(&curves[0].1),
            cell(&curves[1].1),
            cell(&curves[2].1)
        )
        .unwrap();
    }
    for (name, c) in &curves {
        writeln!(
            report,
            "{name}: {} local minima in 1..={max_procs} processors{}",
            local_minima(c),
            if local_minima(c) > 0 {
                "  -> full (linear) search required, as §4.2 argues"
            } else {
                ""
            }
        )
        .unwrap();
    }

    let mut chart = lamps_viz::Chart::new(
        &format!("Fig. 6: normalized energy vs processor count (deadline {factor} x CPL)"),
        "processors",
        "energy / LIMIT-MF",
    );
    for (name, curve) in &curves {
        let pts: Vec<(f64, f64)> = curve
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|e| ((i + 1) as f64, e)))
            .collect();
        chart = chart.line(name, pts);
    }
    ExperimentOutput {
        report,
        csvs: vec![("fig06_energy_vs_procs.csv".into(), csv)],
        svgs: vec![("fig06_energy_vs_procs.svg".into(), chart.render())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_defined_once_feasible() {
        let out = fig06(2.0, 12);
        assert_eq!(out.csvs[0].1.len(), 12);
        // Report shows all three apps.
        for name in ["fpppp", "robot", "sparse"] {
            assert!(out.report.contains(name));
        }
    }

    #[test]
    fn local_minima_counter() {
        let curve = vec![Some(5.0), Some(3.0), Some(4.0), Some(2.0), Some(6.0), None];
        assert_eq!(local_minima(&curve), 2);
        assert_eq!(local_minima(&[None, Some(1.0)]), 0);
    }

    #[test]
    fn energy_vs_procs_infeasible_below_min() {
        // A wide graph with a tight deadline cannot run on 1 processor.
        let g = proxies::sparse().scale_weights(3_100_000);
        let cfg = SchedulerConfig::paper();
        let curve = energy_vs_procs(&g, 1.5, 20, &cfg);
        assert!(curve[0].is_none(), "1 processor cannot meet 1.5x CPL");
        assert!(curve.iter().any(Option::is_some));
    }

    #[test]
    fn curve_values_are_at_least_one() {
        // Normalized to LIMIT-MF, no value can drop below 1.
        let g = proxies::robot().scale_weights(3_100_000);
        let cfg = SchedulerConfig::paper();
        for v in energy_vs_procs(&g, 2.0, 16, &cfg).into_iter().flatten() {
            assert!(v >= 1.0 - 1e-9);
        }
    }
}
