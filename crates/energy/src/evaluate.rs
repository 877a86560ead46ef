//! Schedule energy evaluation at one DVS operating point.
//!
//! Two interchangeable paths produce bit-identical results:
//!
//! * [`evaluate`] / [`evaluate_detailed`] walk the schedule's tasks —
//!   the reference accounting.
//! * [`evaluate_summary`] bills a precomputed [`IdleSummary`] without
//!   touching the schedule again: per processor it needs only the busy
//!   cycles, the last finish, and one binary search over the sorted gap
//!   lengths to split them at the sleep break-even cutoff. A level sweep
//!   over the 14 operating points therefore walks the schedule once,
//!   not 14 times.
//!
//! Equality is by construction, not by tolerance: both paths first
//! accumulate per-processor *integer cycle* totals (exact,
//! order-independent sums) and classify every inner gap against the same
//! integer cutoff [`min_sleep_cycles`], then convert to joules through
//! one shared function.

use lamps_power::{OperatingPoint, SleepParams};
use lamps_sched::{IdleSummary, ProcId, Schedule};

/// Relative tolerance when checking that the stretched makespan fits the
/// horizon (guards against floating-point edge cases at exact fits).
const FIT_EPS: f64 = 1e-9;

/// Errors from energy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyError {
    /// The schedule, run at the operating point's frequency, finishes
    /// after the horizon: this (level, deadline) pair is infeasible.
    DeadlineMiss {
        /// Stretched makespan \[s\].
        makespan_s: f64,
        /// Accounting horizon (deadline) \[s\].
        horizon_s: f64,
    },
}

impl std::fmt::Display for EnergyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnergyError::DeadlineMiss {
                makespan_s,
                horizon_s,
            } => write!(
                f,
                "schedule finishes at {makespan_s} s, after the deadline {horizon_s} s"
            ),
        }
    }
}

impl std::error::Error for EnergyError {}

/// Total energy of a schedule, split by where it is spent.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Energy of executed cycles \[J\].
    pub active_j: f64,
    /// Energy of idle (on, not computing) periods \[J\].
    pub idle_j: f64,
    /// Energy drawn in the sleep state \[J\].
    pub sleep_j: f64,
    /// Shutdown/wakeup transition overheads \[J\].
    pub transition_j: f64,
    /// Number of sleep episodes taken.
    pub sleep_episodes: usize,
}

impl EnergyBreakdown {
    /// Total energy \[J\].
    pub fn total(&self) -> f64 {
        self.active_j + self.idle_j + self.sleep_j + self.transition_j
    }

    /// Add `other` component by component.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.active_j += other.active_j;
        self.idle_j += other.idle_j;
        self.sleep_j += other.sleep_j;
        self.transition_j += other.transition_j;
        self.sleep_episodes += other.sleep_episodes;
    }
}

/// Per-processor energy detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcEnergy {
    /// The processor.
    pub proc: ProcId,
    /// Its breakdown.
    pub breakdown: EnergyBreakdown,
    /// Busy time at the operating point \[s\].
    pub busy_s: f64,
    /// Idle time spent awake \[s\].
    pub idle_awake_s: f64,
    /// Time spent asleep \[s\].
    pub asleep_s: f64,
}

/// Evaluate the energy of `schedule` run entirely at `level`, accounted
/// up to `horizon_s` (the application deadline).
///
/// With `ps = Some(sleep)`, every idle interval long enough to amortize
/// the transition overhead is spent in the sleep state (the §4.3 rule);
/// with `ps = None`, idle intervals burn idle power (`P_DC + P_on`), the
/// plain S&S/LAMPS accounting.
///
/// Errors if the stretched makespan exceeds the horizon.
/// # Example
///
/// ```
/// use lamps_energy::evaluate;
/// use lamps_power::{LevelTable, SleepParams, TechnologyParams};
/// use lamps_sched::list::edf_schedule;
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_task(3_100_000); // 1 ms of work at f_max
/// let g = b.build().unwrap();
/// let s = edf_schedule(&g, 1, 10_000_000);
///
/// let tech = TechnologyParams::seventy_nm();
/// let levels = LevelTable::default_grid(&tech).unwrap();
/// let crit = levels.critical();
///
/// // Bill the schedule at the critical level over a 10 ms window, with
/// // processor shutdown available.
/// let e = evaluate(&s, crit, 0.010, Some(&SleepParams::paper())).unwrap();
/// assert!(e.total() > 0.0);
/// assert!(e.active_j > 0.0);
/// ```
pub fn evaluate(
    schedule: &Schedule,
    level: &OperatingPoint,
    horizon_s: f64,
    ps: Option<&SleepParams>,
) -> Result<EnergyBreakdown, EnergyError> {
    evaluate_detailed(schedule, level, horizon_s, ps).map(|d| {
        let mut sum = EnergyBreakdown::default();
        for p in &d {
            sum.add(&p.breakdown);
        }
        sum
    })
}

/// Like [`evaluate`], returning the per-processor detail.
pub fn evaluate_detailed(
    schedule: &Schedule,
    level: &OperatingPoint,
    horizon_s: f64,
    ps: Option<&SleepParams>,
) -> Result<Vec<ProcEnergy>, EnergyError> {
    check_fit(schedule.makespan_cycles(), level, horizon_s)?;
    let cutoff = sleep_cutoff(level, ps);
    let mut out = Vec::with_capacity(schedule.n_procs());
    for p in 0..schedule.n_procs() as u32 {
        let p = ProcId(p);
        let mut c = ProcCycles::default();
        for &t in schedule.tasks_on(p) {
            let s = schedule.start(t);
            if s > c.cursor {
                c.account_gap(s - c.cursor, cutoff);
            }
            c.busy += schedule.finish(t) - s;
            c.cursor = c.cursor.max(schedule.finish(t));
        }
        out.push(bill_proc(p, &c, level, horizon_s, ps));
    }
    Ok(out)
}

/// Bill a precomputed [`IdleSummary`] at `level` — same result as
/// [`evaluate`] on the summarized schedule, bit for bit, but in
/// O(procs · log gaps) instead of O(tasks).
pub fn evaluate_summary(
    summary: &IdleSummary,
    level: &OperatingPoint,
    horizon_s: f64,
    ps: Option<&SleepParams>,
) -> Result<EnergyBreakdown, EnergyError> {
    check_fit(summary.makespan_cycles(), level, horizon_s)?;
    Ok(bill_summary(
        summary,
        level,
        horizon_s,
        ps,
        sleep_cutoff(level, ps),
    ))
}

/// Bill every processor of `summary` at `level` with the gap cutoff
/// already resolved — the shared hot loop behind [`evaluate_summary`]
/// and the precomputed-cutoff sweep ([`crate::sweep::LevelSweep`]).
///
/// The loop runs over the summary's structure-of-arrays view (flat busy
/// / last-finish slices and the CSR gap arena) instead of per-processor
/// accessors: the integer phase per processor is one binary search plus
/// two prefix-sum lookups over contiguous memory. The float phase stays
/// a sequential per-processor accumulation in processor order — the
/// order [`EnergyBreakdown::add`] is applied in is part of the
/// bit-identity contract, so it must not be reassociated.
pub(crate) fn bill_summary(
    summary: &IdleSummary,
    level: &OperatingPoint,
    horizon_s: f64,
    ps: Option<&SleepParams>,
    cutoff: u64,
) -> EnergyBreakdown {
    let busy = summary.busy_cycles_flat();
    let last_finish = summary.last_finish_flat();
    let (gaps, offsets, prefix) = summary.gaps_csr();
    let mut sum = EnergyBreakdown::default();
    for p in 0..summary.n_procs() {
        let (lo, hi) = (offsets[p], offsets[p + 1]);
        let run = &gaps[lo..hi];
        // Processor `p`'s prefix run is one entry longer than its gap
        // run, so earlier processors shift it right by `p` entries.
        let pre = &prefix[lo + p..hi + p + 1];
        let idx = run.partition_point(|&g| g < cutoff);
        let total = *pre.last().expect("prefix is never empty");
        let awake = pre[idx];
        let c = ProcCycles {
            busy: busy[p],
            awake_gaps: awake,
            sleep_gaps: total - awake,
            episodes: run.len() - idx,
            cursor: last_finish[p],
        };
        sum.add(&bill_proc(ProcId(p as u32), &c, level, horizon_s, ps).breakdown);
    }
    sum
}

/// Smallest idle-gap length in cycles at `level.freq` for which shutting
/// down saves energy over idling — the integer form of
/// [`SleepParams::worth_sleeping`]. Returns `u64::MAX` when sleeping
/// never pays off at this level.
///
/// `worth_sleeping` is monotone in the duration and `g ↦ g as f64 /
/// freq` is non-decreasing, so for any integer gap `g`:
/// `g >= min_sleep_cycles(..)` exactly iff `worth_sleeping(idle_power,
/// g as f64 / freq)`. Classifying gaps against this cutoff is therefore
/// *identical* to applying the float predicate per gap, while enabling
/// the sorted-gaps binary search of [`evaluate_summary`].
pub fn min_sleep_cycles(level: &OperatingPoint, sleep: &SleepParams) -> u64 {
    let pays = |g: u64| sleep.worth_sleeping(level.idle_power, g as f64 / level.freq);
    let breakeven_s = sleep.breakeven_time(level.idle_power);
    if !breakeven_s.is_finite() {
        return u64::MAX;
    }
    if pays(0) {
        return 0;
    }
    // Bracket the boundary starting from the analytic break-even point,
    // then binary-search the exact integer under the float predicate.
    let guess = (breakeven_s * level.freq).ceil();
    if !guess.is_finite() || guess >= u64::MAX as f64 {
        return u64::MAX;
    }
    let mut hi = (guess as u64).saturating_add(2);
    while !pays(hi) {
        if hi >= u64::MAX / 2 {
            return u64::MAX;
        }
        hi *= 2;
    }
    let mut lo = 0u64; // invariant: !pays(lo) && pays(hi)
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pays(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Per-processor integer cycle totals — the common intermediate of both
/// evaluation paths. Integer sums are exact and order-independent, which
/// is what makes the two paths bit-identical.
#[derive(Debug, Default, Clone, Copy)]
struct ProcCycles {
    busy: u64,
    awake_gaps: u64,
    sleep_gaps: u64,
    episodes: usize,
    cursor: u64,
}

impl ProcCycles {
    #[inline]
    fn account_gap(&mut self, gap: u64, cutoff: u64) {
        if gap >= cutoff {
            self.sleep_gaps += gap;
            self.episodes += 1;
        } else {
            self.awake_gaps += gap;
        }
    }
}

/// Gap-classification cutoff for a level: gaps of at least this many
/// cycles sleep; without PS nothing does.
pub(crate) fn sleep_cutoff(level: &OperatingPoint, ps: Option<&SleepParams>) -> u64 {
    ps.map_or(u64::MAX, |sleep| min_sleep_cycles(level, sleep))
}

pub(crate) fn check_fit(
    makespan_cycles: u64,
    level: &OperatingPoint,
    horizon_s: f64,
) -> Result<(), EnergyError> {
    let makespan_s = makespan_cycles as f64 / level.freq;
    if makespan_s > horizon_s * (1.0 + FIT_EPS) {
        return Err(EnergyError::DeadlineMiss {
            makespan_s,
            horizon_s,
        });
    }
    Ok(())
}

/// Convert one processor's integer totals to joules. The single place
/// where cycles meet floating point — shared by the walk and summary
/// paths, so any rounding is common to both.
fn bill_proc(
    p: ProcId,
    c: &ProcCycles,
    level: &OperatingPoint,
    horizon_s: f64,
    ps: Option<&SleepParams>,
) -> ProcEnergy {
    let freq = level.freq;
    let mut b = EnergyBreakdown {
        active_j: c.busy as f64 * level.energy_per_cycle,
        sleep_episodes: c.episodes,
        ..EnergyBreakdown::default()
    };
    let mut idle_awake_s = c.awake_gaps as f64 / freq;
    let mut asleep_s = c.sleep_gaps as f64 / freq;
    // The tail from the last finish to the horizon is not an integer
    // cycle count (the horizon is a deadline in seconds), so it is
    // classified with the float predicate — identically in both paths.
    let tail_s = horizon_s - c.cursor as f64 / freq;
    if tail_s > 0.0 {
        match ps {
            Some(sleep) if sleep.worth_sleeping(level.idle_power, tail_s) => {
                b.sleep_episodes += 1;
                asleep_s += tail_s;
            }
            _ => idle_awake_s += tail_s,
        }
    }
    b.idle_j = level.idle_power * idle_awake_s;
    if let Some(sleep) = ps {
        b.sleep_j = sleep.sleep_power * asleep_s;
        b.transition_j = b.sleep_episodes as f64 * sleep.transition_energy;
    }
    ProcEnergy {
        proc: p,
        breakdown: b,
        busy_s: c.busy as f64 / freq,
        idle_awake_s,
        asleep_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_power::{LevelTable, TechnologyParams};
    use lamps_sched::list::edf_schedule;
    use lamps_taskgraph::{GraphBuilder, TaskGraph};

    fn tech_levels() -> (TechnologyParams, LevelTable, SleepParams) {
        let tech = TechnologyParams::seventy_nm();
        let levels = LevelTable::default_grid(&tech).unwrap();
        (tech, levels, SleepParams::paper())
    }

    /// One task of a million cycles.
    fn single_task(cycles: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        b.add_task(cycles);
        b.build().unwrap()
    }

    #[test]
    fn active_energy_is_cycles_times_energy_per_cycle() {
        let (_, levels, _) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.fastest();
        let horizon = 1_000_000.0 / lvl.freq;
        let e = evaluate(&s, lvl, horizon, None).unwrap();
        assert!((e.active_j - 1.0e6 * lvl.energy_per_cycle).abs() < 1e-12);
        assert_eq!(e.idle_j, 0.0);
        assert_eq!(e.total(), e.active_j);
    }

    #[test]
    fn tail_idle_burns_idle_power_without_ps() {
        let (_, levels, _) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.fastest();
        let run_s = 1.0e6 / lvl.freq;
        let horizon = run_s + 0.010; // 10 ms of tail
        let e = evaluate(&s, lvl, horizon, None).unwrap();
        assert!((e.idle_j - lvl.idle_power * 0.010).abs() < 1e-9);
        assert_eq!(e.sleep_episodes, 0);
    }

    #[test]
    fn long_tail_sleeps_with_ps() {
        let (_, levels, sleep) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.fastest();
        let run_s = 1.0e6 / lvl.freq;
        let horizon = run_s + 1.0; // 1 s tail, far beyond break-even
        let e = evaluate(&s, lvl, horizon, Some(&sleep)).unwrap();
        assert_eq!(e.sleep_episodes, 1);
        assert!((e.transition_j - sleep.transition_energy).abs() < 1e-15);
        assert!((e.sleep_j - sleep.sleep_power * 1.0).abs() < 1e-9);
        assert_eq!(e.idle_j, 0.0);
    }

    #[test]
    fn short_gap_stays_awake_with_ps() {
        let (_, levels, sleep) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.fastest();
        let run_s = 1.0e6 / lvl.freq;
        let horizon = run_s + 100e-6; // 100 µs — far below break-even
        let e = evaluate(&s, lvl, horizon, Some(&sleep)).unwrap();
        assert_eq!(e.sleep_episodes, 0);
        assert!(e.idle_j > 0.0);
    }

    #[test]
    fn ps_never_costs_more_than_no_ps() {
        let (_, levels, sleep) = tech_levels();
        let mut b = GraphBuilder::new();
        let a = b.add_task(3_000_000);
        let c = b.add_task(1_000_000);
        let d = b.add_task(1_000_000);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        let g = b.build().unwrap();
        for n in 1..=3usize {
            let s = edf_schedule(&g, n, 10_000_000);
            for lvl in levels.points() {
                let horizon = s.makespan_cycles() as f64 / lvl.freq + 0.05;
                let e_ps = evaluate(&s, lvl, horizon, Some(&sleep)).unwrap();
                let e_no = evaluate(&s, lvl, horizon, None).unwrap();
                assert!(
                    e_ps.total() <= e_no.total() + 1e-12,
                    "PS worse at vdd={}, n={n}",
                    lvl.vdd
                );
            }
        }
    }

    #[test]
    fn deadline_miss_detected() {
        let (_, levels, _) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.slowest();
        let horizon = 1.0e6 / lvl.freq * 0.5;
        match evaluate(&s, lvl, horizon, None) {
            Err(EnergyError::DeadlineMiss { .. }) => {}
            other => panic!("expected deadline miss, got {other:?}"),
        }
    }

    #[test]
    fn exact_fit_is_feasible() {
        let (_, levels, _) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 1, 1_000_000);
        let lvl = levels.critical();
        let horizon = 1.0e6 / lvl.freq; // exactly the makespan
        assert!(evaluate(&s, lvl, horizon, None).is_ok());
    }

    #[test]
    fn slower_level_cheaper_until_critical() {
        // For a single task with horizon exactly the stretched makespan
        // (no idle), energy is pure active energy: minimized at the
        // critical level.
        let (_, levels, _) = tech_levels();
        let g = single_task(10_000_000);
        let s = edf_schedule(&g, 1, 10_000_000);
        let crit = levels.critical();
        let e_crit = evaluate(&s, crit, 1.0e7 / crit.freq, None).unwrap().total();
        for lvl in levels.points() {
            let e = evaluate(&s, lvl, 1.0e7 / lvl.freq, None).unwrap().total();
            assert!(e >= e_crit - 1e-12, "vdd {} beats critical", lvl.vdd);
        }
    }

    #[test]
    fn detailed_sums_match_total() {
        let (_, levels, sleep) = tech_levels();
        let mut b = GraphBuilder::new();
        let a = b.add_task(2_000_000);
        let c = b.add_task(2_000_000);
        let d = b.add_task(9_000_000);
        b.add_edge(a, c).unwrap();
        let _ = d;
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 2, 20_000_000);
        let lvl = levels.critical();
        let horizon = s.makespan_cycles() as f64 / lvl.freq + 0.01;
        let detail = evaluate_detailed(&s, lvl, horizon, Some(&sleep)).unwrap();
        let total_direct = evaluate(&s, lvl, horizon, Some(&sleep)).unwrap();
        let sum: f64 = detail.iter().map(|p| p.breakdown.total()).sum();
        assert!((sum - total_direct.total()).abs() < 1e-12);
        // Time accounting: busy + awake idle + asleep == horizon per proc.
        for p in &detail {
            let t = p.busy_s + p.idle_awake_s + p.asleep_s;
            assert!((t - horizon).abs() < 1e-9, "proc {} covers {t}", p.proc);
        }
    }

    #[test]
    fn unused_processor_idles_whole_horizon() {
        let (_, levels, _) = tech_levels();
        let g = single_task(1_000_000);
        let s = edf_schedule(&g, 2, 1_000_000);
        let lvl = levels.fastest();
        let horizon = 0.01;
        let detail = evaluate_detailed(&s, lvl, horizon, None).unwrap();
        assert_eq!(detail.len(), 2);
        let idle_proc = &detail[1];
        assert_eq!(idle_proc.busy_s, 0.0);
        assert!((idle_proc.breakdown.idle_j - lvl.idle_power * horizon).abs() < 1e-9);
    }
}
