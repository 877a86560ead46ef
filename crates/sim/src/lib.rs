//! Execution simulation: what happens when tasks finish *early*.
//!
//! The paper's schedules are static and assume worst-case execution
//! times. Its §6 names the natural next step — reclaiming the slack that
//! appears at run time when tasks under-run their WCET, as in the
//! algorithm of Zhu, Melhem & Childers (reference \[1\]) — as future work.
//! This crate implements that extension as a discrete-event simulator:
//!
//! * [`simulate`] executes a static [`lamps_core::Solution`] against *actual* cycle
//!   counts (≤ WCET), keeping the processor assignment and per-processor
//!   task order fixed (the contract of static scheduling);
//! * [`Policy::Static`] starts every task as soon as its dependences and
//!   processor allow, but keeps the planned frequency — early completion
//!   just turns into idle time (slept through when long enough);
//! * [`Policy::SlackReclaim`] additionally re-scales each task's
//!   frequency when it starts: the task may stretch its WCET into the
//!   window up to its *statically planned* finish time, so no deadline
//!   guarantee is ever weakened, but dynamic slack from early finishes
//!   upstream is converted into voltage reduction (greedy per-task
//!   reclamation in the spirit of Zhu et al.).
//!
//! Energy is metered from what actually happened: executed cycles at the
//! per-task level, idle gaps at idle power or asleep when the interval
//! beats the §3.4 break-even, up to the deadline horizon.

pub mod error;
mod exec;
pub mod faults;
pub mod online;
pub mod recovery;
pub mod runner;
pub mod workload;

pub use error::SimError;
pub use faults::{
    DvsFault, DvsFaultKind, FailStop, FaultIntensity, FaultPlan, InjectedEvent, Overrun,
};
pub use online::{
    run_online, AdmissionVerdict, FrameInput, FrameRecord, FrameTable, OnlineConfig, OnlineReport,
    OnlineStream,
};
pub use recovery::{
    run_with_faults, sort_lateness, ExecRecord, FaultyRunReport, RecoveryAction, RecoveryPolicy,
    RunOutcome, TaskLateness,
};
pub use runner::{simulate, DvsSwitchCost, Policy, SimReport, SimTask};
pub use workload::actual_cycles;
