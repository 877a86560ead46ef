//! Scheduling-as-a-service: the LAMPS solver behind a TCP socket.
//!
//! `lamps-serve` turns the warm-cache solver core into a long-running
//! daemon. Clients send line-delimited JSON requests — a task graph, a
//! deadline (absolute seconds or a critical-path factor), and a
//! strategy name — and get energy-billed schedules streamed back, one
//! JSON line per response. Like every other crate in this workspace it
//! is dependency-free: the wire protocol is hand-rolled over
//! [`lamps_obs::json`], and the networking is `std::net` plus threads.
//!
//! The three modules mirror the three layers:
//!
//! - [`protocol`] — wire format: request parsing with hard payload
//!   limits, response encoding (including the 16-hex-digit `*_bits`
//!   fields that make bitwise differential testing possible over JSON),
//!   [`protocol::answer`], the one path from a solve request to its
//!   reply, and a client-side decoder used by `loadgen` and the tests.
//! - [`queue`] — bounded admission control with an explicit drain mode
//!   for graceful shutdown.
//! - [`server`] — the daemon: accept loop, per-connection
//!   reader/writer threads, and a worker pool where each worker recycles
//!   one warm [`lamps_core::CacheBuffers`] set across requests.
//!
//! # Quickstart
//!
//! ```no_run
//! use lamps_serve::{ServeConfig, Server};
//!
//! let mut config = ServeConfig::default();
//! config.addr = "127.0.0.1:0".to_string(); // ephemeral port
//! let server = Server::start(config).unwrap();
//! println!("listening on {}", server.addr());
//! server.wait(); // blocks until a shutdown request drains the queue
//! ```
//!
//! Then, from a shell:
//!
//! ```text
//! $ printf '%s\n' '{"id":1,"op":"solve","strategy":"lamps",
//!     "deadline_factor":2.0,"graph":{"weights":[2,3,1],"edges":[[0,2],[1,2]]}}' \
//!     | nc 127.0.0.1 <port>
//! {"id":1,"status":"ok","strategy":"lamps","n_procs":2,...}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod queue;
pub mod server;

pub use protocol::{
    encode_request, encode_solve_request, parse_response, DeadlineSpec, HistogramSummary, Limits,
    Response, SolvedResponse, TelemetryBody, WireFlightEvent,
};
pub use server::{ServeConfig, Server, StatsSnapshot};
