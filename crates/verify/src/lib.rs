//! lamps-verify: the verification subsystem.
//!
//! Everything in this crate exists to distrust the rest of the
//! workspace. Three layers, each independent of the code it checks:
//!
//! * [`validator`] — re-derives per-processor timelines from nothing but
//!   per-task `(start, finish, proc)` facts and re-bills energy from
//!   first principles, then compares against what a
//!   [`lamps_core::Solution`] claims. Violations come back as a
//!   structured [`validator::Violation`] list, not a panic.
//! * [`oracle`] — exhaustively enumerates (topological order × processor
//!   count × level) on tiny instances to *prove* the heuristics never
//!   beat the optimum, rather than merely asserting they look sane.
//! * [`fuzz`] + [`case`] + [`corpus`] — a deterministic differential
//!   fuzzer over random DAGs and KPN unrollings, a self-contained text
//!   format for failing cases, greedy shrinking, and a regression corpus
//!   runner so every counterexample ever found stays fixed.
//! * [`obs`] — structural checks for the observability artifacts: Chrome
//!   trace-event JSON ([`obs::check_chrome_trace`]) and the
//!   `lamps-explain-v3` solver decision log ([`obs::check_explain`]).
//! * [`serve`] — wire-protocol checks for `lamps-serve`: internal
//!   consistency of response lines, the one bitwise served-vs-local
//!   comparison ([`check_answer`]), and replay of request/response
//!   exchanges through it.
//! * [`wire`] — a fuzzer for the `lamps-serve` request decoder
//!   (grammar-generated requests plus byte mutations of a golden corpus)
//!   and the corpus itself.
//! * [`flight`] — structural checks for `lamps-flight-v1` flight-recorder
//!   dumps: per-thread timestamp monotonicity, serve request lifecycle
//!   ordering, and event-count consistency against registry counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod corpus;
pub mod flight;
pub mod fuzz;
pub mod obs;
pub mod oracle;
pub mod runtime;
pub mod serve;
pub mod validator;
pub mod wire;

pub use case::Case;
pub use corpus::{corpus_file_name, run_corpus, CorpusResult};
pub use flight::{
    check_flight_counts, check_flight_dump, parse_flight_dump, DumpEvent, FlightDump,
};
pub use fuzz::{
    check_case, pruning_differential, run, CaseStats, FuzzConfig, FuzzFailure, FuzzOutcome,
};
pub use obs::{check_chrome_trace, check_explain};
pub use oracle::{exhaustive_optimum, OracleConfig, OracleError, OracleResult};
pub use runtime::{check_online, check_run, RunViolation};
pub use serve::{check_answer, check_exchange, check_response_line, ServeViolation};
pub use validator::{check_schedule, check_solution, rebill, RebilledEnergy, Violation};
pub use wire::{check_line, daemon_lines, run_wire, WireFailure, WireFuzzConfig, WireFuzzOutcome};
