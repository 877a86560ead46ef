//! Structured solver decision log ("why did the solver pick this?").
//!
//! [`SolveExplain`] records one solve end to end: every processor count
//! the search probed (binary-search probes and linear-scan visits, with
//! makespan and cache hit/miss), every candidate's level sweep (energy
//! per feasible operating point, and — for the +PS strategies — the
//! break-even verdict of every leading/inner idle gap against the
//! [`min_sleep_cycles`] cutoff), the winning candidate, and the
//! [`ScheduleCache`](crate::cache::ScheduleCache) hit/miss deltas of the
//! solve.
//!
//! The log renders two ways: [`SolveExplain::to_json`] emits a stable
//! schema (`"lamps-explain-v3"`, validated by `lamps-verify`), and
//! [`SolveExplain::render_text`] an aligned human-readable account.
//! Collecting the log costs extra work (per-gap verdicts, level-sweep
//! bookkeeping), so it only happens on the `*_explained` entry points —
//! the plain [`solve`](crate::solve()) path never pays for it.
//!
//! [`min_sleep_cycles`]: lamps_energy::min_sleep_cycles

use crate::cache::CacheStats;
use crate::types::Strategy;
use lamps_obs::json;
use std::fmt::Write as _;

/// Schema identifier embedded in the JSON rendering.
pub const EXPLAIN_SCHEMA: &str = "lamps-explain-v3";

/// Per-gap verdict lists are capped at this many entries (the aggregate
/// counts always cover every gap).
pub const MAX_GAP_VERDICTS: usize = 64;

/// Which part of the processor-count search touched a count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchPhase {
    /// §4.2 binary search for the minimal feasible count.
    BinaryProbe,
    /// §4.2 linear scan upward while the makespan decreases.
    LinearScan,
    /// §4.1 scan for the S&S processor count.
    MaxUseful,
    /// S&S fallback to the minimal feasible count when the max-useful
    /// schedule misses the deadline.
    Fallback,
}

impl SearchPhase {
    /// Stable lower-snake name used in the JSON schema.
    pub fn name(&self) -> &'static str {
        match self {
            SearchPhase::BinaryProbe => "binary_probe",
            SearchPhase::LinearScan => "linear_scan",
            SearchPhase::MaxUseful => "max_useful",
            SearchPhase::Fallback => "fallback",
        }
    }
}

/// One processor count touched by the search.
#[derive(Debug, Clone, Copy)]
pub struct SearchStep {
    /// Search phase that touched it.
    pub phase: SearchPhase,
    /// The processor count.
    pub n_procs: usize,
    /// Its LS-EDF makespan \[cycles\].
    pub makespan_cycles: u64,
    /// Whether that makespan meets the deadline at maximum frequency.
    pub feasible: bool,
    /// Whether the schedule was already memoized when touched.
    pub cache_hit: bool,
}

/// Break-even verdict for one leading/inner idle gap.
#[derive(Debug, Clone, Copy)]
pub struct GapVerdict {
    /// Processor the gap is on.
    pub proc: usize,
    /// Gap length \[cycles\].
    pub len_cycles: u64,
    /// Whether the gap is long enough to sleep through
    /// (`len >= cutoff_cycles`).
    pub sleeps: bool,
}

/// Processor-shutdown detail for one evaluated level.
#[derive(Debug, Clone)]
pub struct PsExplain {
    /// The §4.3 break-even cutoff at this level \[cycles\]: gaps at
    /// least this long sleep.
    pub cutoff_cycles: u64,
    /// Leading/inner gaps that sleep.
    pub sleep_gaps: usize,
    /// Leading/inner gaps that stay awake.
    pub awake_gaps: usize,
    /// Total cycles spent asleep in those gaps.
    pub sleep_cycles: u64,
    /// Total cycles spent awake in those gaps.
    pub awake_cycles: u64,
    /// Per-gap verdicts, ascending by length within each processor;
    /// capped at [`MAX_GAP_VERDICTS`]. End-of-schedule tails are not
    /// listed (their sleep decision depends on the deadline horizon and
    /// shows up in the energy's `sleep_episodes` instead).
    pub intervals: Vec<GapVerdict>,
    /// True when the verdict list was capped.
    pub truncated: bool,
}

/// One operating point evaluated during a candidate's level sweep.
#[derive(Debug, Clone)]
pub struct LevelExplain {
    /// Level frequency \[Hz\].
    pub freq_hz: f64,
    /// Level supply voltage \[V\].
    pub vdd: f64,
    /// Total energy at this level \[J\]; `None` when the evaluator
    /// rejected the level (stretched makespan past the deadline).
    pub energy_j: Option<f64>,
    /// Sleep episodes taken at this level (tails included).
    pub sleep_episodes: usize,
    /// Shutdown detail (only for the +PS strategies).
    pub ps: Option<PsExplain>,
}

/// One candidate processor count: its schedule's makespan and the level
/// sweep over it.
#[derive(Debug, Clone)]
pub struct CandidateExplain {
    /// Processor count.
    pub n_procs: usize,
    /// LS-EDF makespan \[cycles\].
    pub makespan_cycles: u64,
    /// Minimum frequency that fits the makespan into the deadline
    /// \[Hz\] — the sweep starts at the slowest level at or above this.
    pub required_freq_hz: f64,
    /// Whether the schedule was served from the cache when this
    /// candidate was evaluated.
    pub cache_hit: bool,
    /// Every level the sweep evaluated, slowest first.
    pub levels: Vec<LevelExplain>,
    /// Index into `levels` of the level the candidate keeps (least
    /// energy); `None` if no level was feasible.
    pub best_level: Option<usize>,
}

/// The full decision log of one solve.
#[derive(Debug, Clone)]
pub struct SolveExplain {
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Requested deadline \[s\].
    pub deadline_s: f64,
    /// Deadline (per-task deadlines: horizon) at maximum frequency \[cycles\].
    pub deadline_cycles: u64,
    /// Processor counts the search touched, in order.
    pub search: Vec<SearchStep>,
    /// Candidates whose level sweep ran, in evaluation order.
    pub candidates: Vec<CandidateExplain>,
    /// Index into `candidates` of the winner; `None` on failure.
    pub chosen: Option<usize>,
    /// Linear scans cut short because the critical-path energy floor
    /// proved no later candidate could beat the incumbent (0 or 1 per
    /// solve).
    pub scan_breaks: u64,
    /// Schedule-cache hit/miss deltas attributable to this solve.
    pub cache: CacheStats,
    /// Error rendering when the solve failed.
    pub error: Option<String>,
}

impl SolveExplain {
    /// An empty log for a solve that has not run yet.
    pub(crate) fn new(strategy: Strategy, deadline_s: f64) -> Self {
        SolveExplain {
            strategy,
            deadline_s,
            deadline_cycles: 0,
            search: Vec::new(),
            candidates: Vec::new(),
            chosen: None,
            scan_breaks: 0,
            cache: CacheStats::default(),
            error: None,
        }
    }

    /// Serialize as `lamps-explain-v3` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": ");
        json::write_string(&mut out, EXPLAIN_SCHEMA);
        out.push_str(",\n  \"strategy\": ");
        json::write_string(&mut out, self.strategy.name());
        out.push_str(",\n  \"deadline_s\": ");
        json::write_f64(&mut out, self.deadline_s);
        let _ = write!(out, ",\n  \"deadline_cycles\": {}", self.deadline_cycles);
        out.push_str(",\n  \"search\": [");
        for (i, s) in self.search.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"phase\": \"{}\", \"n_procs\": {}, \"makespan_cycles\": {}, \"feasible\": {}, \"cache_hit\": {}}}",
                s.phase.name(),
                s.n_procs,
                s.makespan_cycles,
                s.feasible,
                s.cache_hit
            );
        }
        out.push_str("\n  ],\n  \"candidates\": [");
        for (i, c) in self.candidates.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"n_procs\": {}, \"makespan_cycles\": {}, \"required_freq_hz\": ",
                c.n_procs, c.makespan_cycles
            );
            json::write_f64(&mut out, c.required_freq_hz);
            let _ = write!(out, ", \"cache_hit\": {}, \"best_level\": ", c.cache_hit);
            match c.best_level {
                Some(b) => {
                    let _ = write!(out, "{b}");
                }
                None => out.push_str("null"),
            }
            out.push_str(", \"levels\": [");
            for (j, l) in c.levels.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                out.push_str("      {\"freq_hz\": ");
                json::write_f64(&mut out, l.freq_hz);
                out.push_str(", \"vdd\": ");
                json::write_f64(&mut out, l.vdd);
                out.push_str(", \"energy_j\": ");
                match l.energy_j {
                    Some(e) => json::write_f64(&mut out, e),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ", \"sleep_episodes\": {}, \"ps\": ", l.sleep_episodes);
                match &l.ps {
                    None => out.push_str("null"),
                    Some(p) => {
                        let _ = write!(
                            out,
                            "{{\"cutoff_cycles\": {}, \"sleep_gaps\": {}, \"awake_gaps\": {}, \"sleep_cycles\": {}, \"awake_cycles\": {}, \"truncated\": {}, \"intervals\": [",
                            p.cutoff_cycles,
                            p.sleep_gaps,
                            p.awake_gaps,
                            p.sleep_cycles,
                            p.awake_cycles,
                            p.truncated
                        );
                        for (k, g) in p.intervals.iter().enumerate() {
                            if k > 0 {
                                out.push_str(", ");
                            }
                            let _ = write!(
                                out,
                                "{{\"proc\": {}, \"len_cycles\": {}, \"sleeps\": {}}}",
                                g.proc, g.len_cycles, g.sleeps
                            );
                        }
                        out.push_str("]}");
                    }
                }
                out.push('}');
            }
            out.push_str("\n    ]}");
        }
        out.push_str("\n  ],\n  \"chosen\": ");
        match self.chosen {
            Some(c) => {
                let _ = write!(out, "{c}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\n  \"prune\": {{\"scan_breaks\": {}}}",
            self.scan_breaks
        );
        let _ = write!(
            out,
            ",\n  \"cache\": {{\"schedule_hits\": {}, \"schedule_misses\": {}, \"summary_hits\": {}, \"summary_misses\": {}, \"plateau_hits\": {}}}",
            self.cache.schedule_hits,
            self.cache.schedule_misses,
            self.cache.summary_hits,
            self.cache.summary_misses,
            self.cache.plateau_hits
        );
        out.push_str(",\n  \"error\": ");
        match &self.error {
            Some(e) => json::write_string(&mut out, e),
            None => out.push_str("null"),
        }
        out.push_str("\n}\n");
        out
    }

    /// Render as aligned human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "solve {} | deadline {:.6} s ({} cycles at f_max)",
            self.strategy, self.deadline_s, self.deadline_cycles
        );
        if let Some(e) = &self.error {
            let _ = writeln!(out, "  FAILED: {e}");
        }
        let _ = writeln!(
            out,
            "  cache: schedule {}/{} hit/miss, summary {}/{} hit/miss, {} plateau",
            self.cache.schedule_hits,
            self.cache.schedule_misses,
            self.cache.summary_hits,
            self.cache.summary_misses,
            self.cache.plateau_hits
        );
        let _ = writeln!(out, "  pruning: {} scan break(s)", self.scan_breaks);
        let _ = writeln!(out, "  search path ({} steps):", self.search.len());
        for s in &self.search {
            let _ = writeln!(
                out,
                "    {:<12} n={:<3} makespan={:>12} {} {}",
                s.phase.name(),
                s.n_procs,
                s.makespan_cycles,
                if s.feasible { "feasible" } else { "too slow" },
                if s.cache_hit {
                    "(cached)"
                } else {
                    "(scheduled)"
                }
            );
        }
        let _ = writeln!(out, "  candidates ({}):", self.candidates.len());
        for (i, c) in self.candidates.iter().enumerate() {
            let marker = if self.chosen == Some(i) { "*" } else { " " };
            let _ = writeln!(
                out,
                "  {marker} n={:<3} makespan={:>12} required {:>7.1} MHz {}",
                c.n_procs,
                c.makespan_cycles,
                c.required_freq_hz / 1e6,
                if c.cache_hit {
                    "(cached)"
                } else {
                    "(scheduled)"
                }
            );
            for (j, l) in c.levels.iter().enumerate() {
                let best = if c.best_level == Some(j) {
                    "<- best"
                } else {
                    ""
                };
                match l.energy_j {
                    Some(e) => {
                        let _ = write!(
                            out,
                            "      {:>7.1} MHz @ {:.2} V: {:>12.6} J, {} sleeps",
                            l.freq_hz / 1e6,
                            l.vdd,
                            e,
                            l.sleep_episodes
                        );
                    }
                    None => {
                        let _ = write!(
                            out,
                            "      {:>7.1} MHz @ {:.2} V: infeasible",
                            l.freq_hz / 1e6,
                            l.vdd
                        );
                    }
                }
                if let Some(p) = &l.ps {
                    let _ = write!(
                        out,
                        " | PS cutoff {} cyc: {} gap(s) sleep ({} cyc), {} awake ({} cyc)",
                        p.cutoff_cycles, p.sleep_gaps, p.sleep_cycles, p.awake_gaps, p.awake_cycles
                    );
                }
                let _ = writeln!(out, " {best}");
            }
        }
        match self.chosen.and_then(|i| self.candidates.get(i)) {
            Some(c) => {
                let l = c.best_level.and_then(|j| c.levels.get(j));
                let _ = writeln!(
                    out,
                    "  chosen: n={} at {} MHz{}",
                    c.n_procs,
                    l.map_or_else(|| "?".to_string(), |l| format!("{:.1}", l.freq_hz / 1e6)),
                    l.and_then(|l| l.energy_j)
                        .map_or_else(String::new, |e| format!(", {e:.6} J")),
                );
            }
            None => {
                let _ = writeln!(out, "  chosen: none");
            }
        }
        out
    }
}
