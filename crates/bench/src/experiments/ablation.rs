//! Ablation experiments for the design choices the paper discusses but
//! does not plot:
//!
//! * §4.4/§6 — would a different list-scheduling priority than EDF help?
//!   (The LIMIT bounds say: at most marginally.)
//! * §1/§2 — what does restricting DVS to discrete 0.05 V steps cost
//!   versus a continuous voltage range (Irani et al.)?

use super::ExperimentOutput;
use crate::csv::Csv;
use crate::parallel::par_map;
use crate::suite::Granularity;
use lamps_core::cache::ScheduleCache;
use lamps_core::continuous::continuous_config;
use lamps_core::{solve, SchedulerConfig, Strategy};
use lamps_energy::evaluate;
use lamps_sched::{list_schedule, PriorityPolicy};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::TaskGraph;
use std::fmt::Write as _;

/// S&S-style energy (stretch to the slowest feasible level, no PS) of a
/// schedule produced with an arbitrary priority policy.
fn stretch_energy(
    graph: &TaskGraph,
    policy: PriorityPolicy,
    deadline_s: f64,
    cfg: &SchedulerConfig,
) -> Option<(u64, f64)> {
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    let keys = policy.keys(graph, deadline_cycles);
    // Use the same processor count EDF would employ, so only the list
    // order differs.
    let mut cache = ScheduleCache::new(graph, deadline_cycles);
    let n = cache.max_useful_procs();
    let schedule = list_schedule(graph, n, &keys);
    let makespan = schedule.makespan_cycles();
    let level = cfg.levels.lowest_at_least(makespan as f64 / deadline_s)?;
    let energy = evaluate(&schedule, level, deadline_s, None).ok()?;
    Some((makespan, energy.total()))
}

/// Run both ablations on a seeded set of random graphs.
pub fn ablation(n_graphs: usize, seed: u64) -> ExperimentOutput {
    let cfg = SchedulerConfig::paper();
    let graphs: Vec<TaskGraph> = stg_group(100, n_graphs, seed)
        .into_iter()
        .map(|g| g.scale_weights(Granularity::Coarse.cycles_per_unit()))
        .collect();

    let mut report = String::new();
    let mut csv = Csv::new(&[
        "graph",
        "policy",
        "makespan_cycles",
        "stretch_energy_j",
        "vs_edf",
    ]);

    writeln!(
        report,
        "== Ablation 1: list-scheduling priority (S&S-style, deadline 2 x CPL) =="
    )
    .unwrap();
    writeln!(
        report,
        "{:>6} {:>8} {:>16} {:>14} {:>8}",
        "graph", "policy", "makespan [cyc]", "energy [J]", "vs EDF"
    )
    .unwrap();
    type PolicyRow = Vec<(PriorityPolicy, Option<(u64, f64)>)>;
    let rows: Vec<PolicyRow> = par_map(&graphs, |g| {
        let d = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        PriorityPolicy::all()
            .into_iter()
            .map(|p| (p, stretch_energy(g, p, d, &cfg)))
            .collect()
    });
    let mut policy_means = vec![(0.0f64, 0usize); PriorityPolicy::all().len()];
    for (gi, row) in rows.iter().enumerate() {
        let edf_e = row[0].1.map(|(_, e)| e);
        for (pi, (policy, res)) in row.iter().enumerate() {
            let Some((makespan, e)) = res else { continue };
            let ratio = edf_e.map(|base| e / base).unwrap_or(f64::NAN);
            writeln!(
                report,
                "{:>6} {:>8} {:>16} {:>14.4} {:>7.3}x",
                gi,
                policy.name(),
                makespan,
                e,
                ratio
            )
            .unwrap();
            csv.row(&[
                gi.to_string(),
                policy.name().into(),
                makespan.to_string(),
                format!("{e:.6}"),
                format!("{ratio:.4}"),
            ]);
            if ratio.is_finite() {
                policy_means[pi].0 += ratio;
                policy_means[pi].1 += 1;
            }
        }
    }
    for (pi, policy) in PriorityPolicy::all().into_iter().enumerate() {
        let (sum, n) = policy_means[pi];
        if n > 0 {
            writeln!(
                report,
                "mean {}: {:.3}x EDF energy over {} graphs",
                policy.name(),
                sum / n as f64,
                n
            )
            .unwrap();
        }
    }

    writeln!(report).unwrap();
    writeln!(
        report,
        "== Ablation 2: discrete (0.05 V) vs continuous voltage, LAMPS+PS =="
    )
    .unwrap();
    let cont_cfg = continuous_config();
    let mut csv2 = Csv::new(&[
        "graph",
        "factor",
        "discrete_j",
        "continuous_j",
        "penalty_pct",
    ]);
    let mut worst: f64 = 0.0;
    for (gi, g) in graphs.iter().enumerate() {
        for factor in [1.5, 4.0] {
            let d = factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
            let (Ok(disc), Ok(cont)) = (
                solve(Strategy::LampsPs, g, d, &cfg),
                solve(Strategy::LampsPs, g, d, &cont_cfg),
            ) else {
                continue;
            };
            let e_d = disc.energy.total();
            let e_c = cont.energy.total();
            let penalty = e_d / e_c - 1.0;
            worst = worst.max(penalty);
            csv2.row(&[
                gi.to_string(),
                format!("{factor}"),
                format!("{e_d:.6}"),
                format!("{e_c:.6}"),
                format!("{:.2}", penalty * 100.0),
            ]);
        }
    }
    writeln!(
        report,
        "worst-case discretization penalty over {} cells: {:.2}%",
        csv2.len(),
        worst * 100.0
    )
    .unwrap();
    writeln!(
        report,
        "(the paper's choice of 0.05 V steps costs little — consistent with its claim that the\n discrete heuristics approach the continuous-model limits)"
    )
    .unwrap();

    writeln!(report).unwrap();
    writeln!(
        report,
        "== Ablation 3: fixed body bias (-0.7 V) vs adaptive body biasing (Martin et al., §2 refs [20-23]) =="
    )
    .unwrap();
    let abb_cfg = {
        let base = SchedulerConfig::paper();
        let levels =
            lamps_power::abb::abb_level_table(&base.tech, &lamps_power::abb::AbbGrid::default())
                .expect("ABB grid is valid");
        SchedulerConfig { levels, ..base }
    };
    let mut csv3 = Csv::new(&["graph", "factor", "fixed_j", "abb_j", "gain_pct"]);
    let mut best_gain: f64 = 0.0;
    for (gi, g) in graphs.iter().enumerate() {
        for factor in [1.5, 8.0] {
            let d = factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
            let (Ok(fixed), Ok(abb)) = (
                solve(Strategy::LampsPs, g, d, &cfg),
                solve(Strategy::LampsPs, g, d, &abb_cfg),
            ) else {
                continue;
            };
            let gain = 1.0 - abb.energy.total() / fixed.energy.total();
            best_gain = best_gain.max(gain);
            csv3.row(&[
                gi.to_string(),
                format!("{factor}"),
                format!("{:.6}", fixed.energy.total()),
                format!("{:.6}", abb.energy.total()),
                format!("{:.2}", gain * 100.0),
            ]);
        }
    }
    writeln!(
        report,
        "best ABB gain over {} cells: {:.1}% (largest at loose deadlines, where deep bias kills leakage)",
        csv3.len(),
        best_gain * 100.0
    )
    .unwrap();

    ExperimentOutput {
        report,
        csvs: vec![
            ("ablation_priorities.csv".into(), csv),
            ("ablation_continuous.csv".into(), csv2),
            ("ablation_abb.csv".into(), csv3),
        ],
        svgs: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_reports() {
        let out = ablation(2, 5);
        assert!(out.report.contains("Ablation 1"));
        assert!(out.report.contains("Ablation 2"));
        assert_eq!(out.csvs.len(), 3);
        assert!(!out.csvs[0].1.is_empty());
        assert!(!out.csvs[1].1.is_empty());
    }

    #[test]
    fn edf_vs_itself_is_one() {
        let cfg = SchedulerConfig::paper();
        let g = stg_group(60, 1, 9).remove(0).scale_weights(3_100_000);
        let d = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let a = stretch_energy(&g, PriorityPolicy::EarliestDeadlineFirst, d, &cfg).unwrap();
        let b = stretch_energy(&g, PriorityPolicy::EarliestDeadlineFirst, d, &cfg).unwrap();
        assert_eq!(a.0, b.0);
        assert!((a.1 - b.1).abs() < 1e-15);
    }
}
