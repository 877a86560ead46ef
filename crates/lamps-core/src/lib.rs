//! Leakage-aware multiprocessor scheduling heuristics.
//!
//! This crate is the paper's primary contribution (§4): given a weighted
//! task DAG with a deadline, it produces a minimum-energy static schedule
//! on a DVS-capable multiprocessor, trading off three techniques:
//!
//! * **DVS** — run every employed processor at one discrete
//!   voltage/frequency level, stretched into the deadline slack;
//! * **processor count** — employ fewer processors (the rest are off and
//!   consume nothing), at the cost of a longer makespan;
//! * **processor shutdown (PS)** — put an employed processor to sleep
//!   during idle intervals long enough to amortize the wakeup overhead.
//!
//! Four strategies ([`Strategy`]):
//!
//! | strategy | processors | frequency | shutdown |
//! |---|---|---|---|
//! | [`Strategy::ScheduleStretch`] (S&S) | as many as reduce makespan | slowest feasible | no |
//! | [`Strategy::Lamps`] | searched for min energy | slowest feasible per count | no |
//! | [`Strategy::ScheduleStretchPs`] | as many as reduce makespan | swept | yes |
//! | [`Strategy::LampsPs`] | searched | swept per count | yes |
//!
//! plus the two lower bounds of §4.4 ([`limits::limit_sf`],
//! [`limits::limit_mf`]) and a continuous-voltage ablation
//! ([`continuous::dense_levels`]).
//!
//! # Example
//!
//! ```
//! use lamps_core::{solve, SchedulerConfig, Strategy};
//! use lamps_taskgraph::apps::mpeg;
//!
//! let cfg = SchedulerConfig::paper();
//! let gop = mpeg::paper_gop();
//! let sol = solve(Strategy::LampsPs, &gop, mpeg::GOP_DEADLINE_SECONDS, &cfg).unwrap();
//! assert!(sol.energy.total() > 0.0);
//! assert!(sol.makespan_s <= mpeg::GOP_DEADLINE_SECONDS);
//! ```

pub mod batch;
pub mod budget;
pub mod cache;
pub mod config;
pub mod continuous;
pub mod exact;
pub mod explain;
pub mod genetic;
pub mod limits;
pub mod multi;
pub mod pareto;
pub mod report;
pub mod solve;
pub mod suffix;
pub mod types;

pub use batch::{evaluate_graphs, BatchCell, BatchJob, BatchRows, BatchRowsIter};
pub use budget::{
    solve_with_budget_cache, BudgetedSolution, CancelToken, Completeness, SolveBudget,
};
pub use cache::{CacheBuffers, CacheStats, ScheduleCache};
pub use config::SchedulerConfig;
pub use explain::SolveExplain;
pub use suffix::{resolve_suffix_fresh, SuffixContext, SuffixPlan, SuffixSolver, SuffixSweep};

pub use solve::{solve, solve_with_cache, solve_with_cache_explained, solve_with_cache_unpruned};
pub use types::{Solution, SolveError, Strategy};

/// Serializes the tests that switch the global metrics registry on and
/// off, so one test's switch-off cannot hide another's solve.
#[cfg(test)]
pub(crate) static METRICS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
