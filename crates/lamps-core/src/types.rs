//! Strategy selection, solutions, and errors.

use lamps_energy::EnergyBreakdown;
use lamps_power::{OperatingPoint, PowerError};
use lamps_sched::Schedule;
use std::sync::Arc;

/// The four scheduling strategies of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Schedule & Stretch (§4.1): as many processors as reduce the
    /// makespan, then stretch to the slowest feasible frequency. The
    /// paper's baseline ("an approach that only employs DVS").
    ScheduleStretch,
    /// LAMPS (§4.2): additionally search the processor count for the
    /// least total energy; unemployed processors are off.
    Lamps,
    /// S&S + processor shutdown (§4.3): S&S's processor count, but the
    /// frequency is swept and idle intervals long enough to amortize the
    /// wakeup overhead are slept through.
    ScheduleStretchPs,
    /// LAMPS + processor shutdown (§4.3): full search over processor
    /// count and frequency with shutdown — the paper's best strategy.
    LampsPs,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::ScheduleStretch,
            Strategy::Lamps,
            Strategy::ScheduleStretchPs,
            Strategy::LampsPs,
        ]
    }

    /// Whether this strategy may shut processors down.
    pub fn uses_ps(&self) -> bool {
        matches!(self, Strategy::ScheduleStretchPs | Strategy::LampsPs)
    }

    /// Whether this strategy searches the processor count.
    pub fn searches_proc_count(&self) -> bool {
        matches!(self, Strategy::Lamps | Strategy::LampsPs)
    }

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::ScheduleStretch => "S&S",
            Strategy::Lamps => "LAMPS",
            Strategy::ScheduleStretchPs => "S&S+PS",
            Strategy::LampsPs => "LAMPS+PS",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete scheduling solution: the configuration chosen by a strategy
/// and its energy accounting.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Strategy that produced this solution.
    pub strategy: Strategy,
    /// Number of processors employed (turned on); the rest are off.
    pub n_procs: usize,
    /// The single DVS operating point all employed processors run at.
    pub level: OperatingPoint,
    /// Energy accounting over the whole deadline window.
    pub energy: EnergyBreakdown,
    /// Makespan in cycles (at any frequency; divide by `level.freq` for
    /// seconds).
    pub makespan_cycles: u64,
    /// Makespan in seconds at the chosen level.
    pub makespan_s: f64,
    /// The schedule itself (in cycles), shared with the solver's cache —
    /// constructing a solution never deep-copies the schedule arrays.
    pub schedule: Arc<Schedule>,
}

/// Errors from the solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No processor count and frequency meets the deadline: the deadline
    /// is below the critical path at the maximum frequency.
    Infeasible {
        /// Requested deadline \[s\].
        deadline_s: f64,
        /// Lower bound on the achievable completion time \[s\]
        /// (critical path at the maximum frequency).
        best_possible_s: f64,
    },
    /// The deadline is not a positive, finite number.
    BadDeadline(f64),
    /// The platform model rejected a computation.
    Power(PowerError),
    /// A budgeted solve ran out of steps (or was cancelled) before any
    /// feasible candidate was evaluated (see [`crate::solve_with_budget_cache`]).
    BudgetExhausted {
        /// Candidate evaluations performed before the budget expired.
        explored: u64,
        /// Upper bound on the evaluations a complete search could take.
        total: u64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible {
                deadline_s,
                best_possible_s,
            } => write!(
                f,
                "deadline {deadline_s} s infeasible: critical path needs {best_possible_s} s at maximum frequency"
            ),
            SolveError::BadDeadline(d) => write!(f, "deadline {d} is not a positive finite time"),
            SolveError::Power(e) => write!(f, "power model error: {e}"),
            SolveError::BudgetExhausted { explored, total } => write!(
                f,
                "solve budget exhausted after {explored} of ≤{total} candidate evaluations with no feasible solution yet"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<PowerError> for SolveError {
    fn from(e: PowerError) -> Self {
        SolveError::Power(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_properties() {
        assert!(!Strategy::ScheduleStretch.uses_ps());
        assert!(!Strategy::Lamps.uses_ps());
        assert!(Strategy::ScheduleStretchPs.uses_ps());
        assert!(Strategy::LampsPs.uses_ps());
        assert!(!Strategy::ScheduleStretch.searches_proc_count());
        assert!(Strategy::Lamps.searches_proc_count());
        assert!(!Strategy::ScheduleStretchPs.searches_proc_count());
        assert!(Strategy::LampsPs.searches_proc_count());
    }

    #[test]
    fn names_match_paper_figures() {
        let names: Vec<&str> = Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["S&S", "LAMPS", "S&S+PS", "LAMPS+PS"]);
    }
}
