//! `lamps-benchmark compare <parent-dir> <change-dir>`: per (end-to-end
//! metric, workload) verdicts between two sets of stored runs.
//!
//! The rule: the change **improved** a metric when it wins at least
//! nine tenths of the seed-paired runs (ties count for neither) and the
//! medians differ, in its favour, by more than the parent's
//! interquartile range. Otherwise the change is **regressed** when its
//! median is worse than the parent's by more than the metric's bound,
//! **unresolved** when either side's spread (interquartile range over
//! median) is wider than the bound and not every change run beats every
//! parent run, and **no worse** otherwise. Identical values on every
//! pair read as no worse.
//!
//! An [`EXACT`] metric is a property of the program's answers, not of
//! its speed, so it repeats bit for bit on one seed: it is **regressed**
//! as soon as it reads worse on any seed-paired run, whatever its bound.

use crate::spec::{Metric, Spec};
use crate::stats::quartiles;
use lamps_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by the nine-in-ten and interquartile-range rule.
    Improved,
    /// Not worse than the bound allows.
    NoWorse,
    /// Worse by more than the bound.
    Regressed,
    /// The spread is too wide to tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// End-to-end metrics that are exact for one seed. Their bound in
/// `BENCHMARK.json` covers only how much they move between seeds.
pub const EXACT: [&str; 1] = ["energy_ratio"];

/// Seed → value for one metric of one workload on one side.
pub type Runs = BTreeMap<u64, f64>;

/// Judge `change` against `parent` for a metric with the given direction
/// and bound; `exact` metrics may not read worse on any paired seed.
pub fn verdict(
    parent: &Runs,
    change: &Runs,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> Verdict {
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let p: Vec<f64> = parent.values().copied().collect();
    let c: Vec<f64> = change.values().copied().collect();
    let (pq1, pm, pq3) = quartiles(&p);
    let (cq1, cm, cq3) = quartiles(&c);

    let (mut pairs, mut wins, mut ties, mut losses) = (0usize, 0usize, 0usize, 0usize);
    for (seed, &pv) in parent {
        if let Some(&cv) = change.get(seed) {
            pairs += 1;
            if better(cv, pv) {
                wins += 1;
            } else if cv == pv {
                ties += 1;
            } else {
                losses += 1;
            }
        }
    }
    if exact && losses > 0 {
        return Verdict::Regressed;
    }
    if pairs > 0 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > pq3 - pq1 {
        return Verdict::Improved;
    }
    if pairs > 0 && ties == pairs {
        return Verdict::NoWorse;
    }
    let scale = pm.abs().max(f64::MIN_POSITIVE);
    let spread = ((pq3 - pq1) / scale).max((cq3 - cq1) / cm.abs().max(f64::MIN_POSITIVE));
    let all_better = c.iter().all(|&cv| p.iter().all(|&pv| better(cv, pv)));
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse = if higher_is_better { pm - cm } else { cm - pm } / scale;
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

/// Untraced stored runs under `dir`: workload → metric → seed → value.
pub fn load_dir(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Runs>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Runs>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let root = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed)) = (
            root.get("workload").and_then(Value::as_str),
            root.get("seed").and_then(Value::as_number),
        ) else {
            continue; // the machine block, or a foreign file
        };
        if root.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let metrics = root
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("{}: no metrics", path.display()))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_number) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .insert(seed as u64, v);
            }
        }
    }
    Ok(out)
}

/// Print one row per (end-to-end metric, workload); returns how many
/// rows regressed.
pub fn run(spec: &Spec, parent_dir: &Path, change_dir: &Path) -> Result<usize, String> {
    let parent = load_dir(parent_dir)?;
    let change = load_dir(change_dir)?;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    println!(
        "{:<12} {:<14} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in &spec.workloads {
        for Metric {
            name,
            higher_is_better,
            bound,
            ..
        } in &spec.end_to_end
        {
            let (Some(p), Some(c)) = (
                parent.get(workload).and_then(|m| m.get(name)),
                change.get(workload).and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let exact = EXACT.contains(&name.as_str());
            let v = verdict(p, c, *higher_is_better, bound.unwrap_or(0.0), exact);
            *counts.entry(v.label()).or_default() += 1;
            let side = |r: &Runs| {
                let (q1, m, q3) = quartiles(&r.values().copied().collect::<Vec<_>>());
                format!("{m:.6} [{q1:.6}, {q3:.6}]")
            };
            let better = |a: f64, b: f64| if *higher_is_better { a > b } else { a < b };
            let pairs = p.keys().filter(|s| c.contains_key(s)).count();
            let wins = p
                .iter()
                .filter(|(s, &pv)| c.get(s).is_some_and(|&cv| better(cv, pv)))
                .count();
            println!(
                "{workload:<12} {name:<14} {:>34} {:>34} {:>6}  {}",
                side(p),
                side(c),
                format!("{wins}/{pairs}"),
                v.label()
            );
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("summary: {}", summary.join(", "));
    Ok(counts.get("regressed").copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Runs {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn identical_sets_are_no_worse() {
        let a = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(verdict(&a, &a, true, 0.1, false), Verdict::NoWorse);
    }

    #[test]
    fn clear_win_is_improved_and_clear_loss_regressed() {
        let parent = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
        ]);
        let faster: Runs = parent.iter().map(|(&s, &v)| (s, v * 1.3)).collect();
        assert_eq!(
            verdict(&parent, &faster, true, 0.1, false),
            Verdict::Improved
        );
        let slower: Runs = parent.iter().map(|(&s, &v)| (s, v * 0.8)).collect();
        assert_eq!(
            verdict(&parent, &slower, true, 0.1, false),
            Verdict::Regressed
        );
        // The same numbers for a lower-is-better metric swap the verdicts.
        assert_eq!(
            verdict(&parent, &faster, false, 0.1, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&parent, &slower, false, 0.1, false),
            Verdict::Improved
        );
    }

    #[test]
    fn small_loss_within_bound_is_no_worse() {
        let parent = runs(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let change: Runs = parent.iter().map(|(&s, &v)| (s, v * 0.97)).collect();
        assert_eq!(
            verdict(&parent, &change, true, 0.1, false),
            Verdict::NoWorse
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        // Interquartile range ≈ 40% of the median against a 10% bound.
        let parent = runs(&[60.0, 140.0, 80.0, 120.0, 100.0]);
        let change = runs(&[62.0, 138.0, 82.0, 118.0, 98.0]);
        assert_eq!(
            verdict(&parent, &change, true, 0.1, false),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let change = runs(&[150.0, 160.0, 155.0, 170.0, 165.0]);
        assert_ne!(
            verdict(&parent, &change, true, 0.1, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn nine_in_ten_wins_required_for_improved() {
        let parent = runs(&[10.0; 10]);
        let mut change = runs(&[12.0; 10]);
        change.insert(0, 9.0);
        change.insert(1, 9.0);
        // 8/10 wins: medians differ by far more than the (zero) IQR, but
        // the pair rule fails, and the change is not worse.
        assert_eq!(
            verdict(&parent, &change, true, 0.1, false),
            Verdict::NoWorse
        );
        change.insert(1, 12.0);
        assert_eq!(
            verdict(&parent, &change, true, 0.1, false),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metric_regresses_on_any_worse_seed() {
        let parent = runs(&[0.54, 0.55, 0.53, 0.56, 0.54]);
        assert_eq!(
            verdict(&parent, &parent, false, 0.1, true),
            Verdict::NoWorse
        );
        // One seed a hair worse: well inside the bound, but exact.
        let mut change = parent.clone();
        change.insert(2, 0.53 * (1.0 + 1e-9));
        assert_eq!(
            verdict(&parent, &change, false, 0.1, false),
            Verdict::NoWorse
        );
        assert_eq!(
            verdict(&parent, &change, false, 0.1, true),
            Verdict::Regressed
        );
        // Better on every seed by more than the spread: improved.
        let lower: Runs = parent.iter().map(|(&s, &v)| (s, v * 0.9)).collect();
        assert_eq!(
            verdict(&parent, &lower, false, 0.1, true),
            Verdict::Improved
        );
    }
}
