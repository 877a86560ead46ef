//! The wire protocol: one JSON document per line, both directions.
//!
//! # Requests
//!
//! ```json
//! {"id": 1, "op": "solve", "strategy": "lamps_ps", "deadline_factor": 2.0,
//!  "graph": {"weights": [3100000, 6200000], "edges": [[0, 1]]},
//!  "budget_steps": 64}
//! ```
//!
//! * `id` — caller-chosen correlation id (non-negative integer ≤ 2⁵³);
//!   echoed verbatim on every response. Responses to pipelined requests
//!   may come back out of order; the id is the correlation mechanism.
//! * `op` — `solve` (default when absent), `ping`, `stats`,
//!   `telemetry`, `flight` (observability snapshots; see below), or
//!   `shutdown` (graceful drain; see [`crate::server`]).
//! * `strategy` — `ss`, `lamps`, `ss_ps`, or `lamps_ps`.
//! * `deadline_s` **or** `deadline_factor` — an absolute deadline in
//!   seconds, or a multiple of the graph's critical path at the maximum
//!   frequency (the paper's deadline-extension-factor convention).
//! * `graph` — `weights` in cycles (index = task id) plus `edges` as
//!   `[from, to]` pairs. Validated server-side: acyclic, non-empty,
//!   within [`Limits`].
//! * `budget_steps` — optional per-request search budget in candidate
//!   evaluations ([`lamps_core::SolveBudget`]); a truncated search
//!   returns its best feasible candidate tagged `"degraded"`.
//!
//! # Responses
//!
//! Every response carries `id` and a `status` of `ok`, `degraded`,
//! `error`, `overloaded`, `pong`, `stats`, `telemetry`, `flight`, or
//! `shutting_down`. Solved responses carry the energy-billed result;
//! `energy_bits` and `freq_bits` are the exact IEEE-754 bit patterns as
//! hex strings so clients can assert bitwise equality against a local
//! solve (JSON numbers cannot round-trip all 64 bits).
//!
//! # Observability ops
//!
//! `stats` and `telemetry` share one schema ([`TelemetryBody`], encoded
//! by [`encode_telemetry_body`]): `counters` and `gauges` as name →
//! integer maps, `histograms` as name → `{count, sum, p50, p90, p99}`
//! with quantiles estimated by within-bucket interpolation over the
//! registry's log₂ buckets (`null` while a histogram is empty). `stats`
//! reports the server's own always-on counters; `telemetry` is the full
//! process-wide metrics registry merged with them. `flight` returns the
//! last `last` events (default 256) of the in-memory flight recorder:
//! `{"id": ..., "status": "flight", "dropped": N, "events": [...]}`,
//! each event carrying `ts_us`, `tid`, `kind`, `key`, `a`, `b` exactly
//! as the `lamps-flight-v1` dump file renders them.
//!
//! The parser accepts exactly this schema; anything else comes back as a
//! structured [`ProtoError`] naming what was wrong, with the request id
//! echoed whenever it could still be extracted.

use lamps_core::{BudgetedSolution, Completeness, Strategy};
use lamps_obs::json::{parse, write_string, Value};
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};
use std::fmt::Write as _;

/// Per-request resource ceilings enforced before any solving happens.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Longest accepted request line in bytes (enforced by the server's
    /// reader before parsing; reported here so both sides agree).
    pub max_line_bytes: usize,
    /// Most tasks a request graph may carry.
    pub max_tasks: usize,
    /// Most edges a request graph may carry.
    pub max_edges: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_line_bytes: 4 << 20,
            max_tasks: 100_000,
            max_edges: 400_000,
        }
    }
}

/// How the request states its deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlineSpec {
    /// Absolute deadline \[s\].
    Seconds(f64),
    /// Multiple of the graph's critical path at the maximum frequency.
    Factor(f64),
}

/// A validated solve request.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// Correlation id, echoed on the response.
    pub id: u64,
    /// Strategy to run.
    pub strategy: Strategy,
    /// Deadline, absolute or as an extension factor.
    pub deadline: DeadlineSpec,
    /// The task graph to solve.
    pub graph: TaskGraph,
    /// Optional search budget in candidate evaluations.
    pub budget_steps: Option<u64>,
}

/// Any accepted request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Solve a graph.
    Solve(Box<SolveRequest>),
    /// Liveness probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Server counters snapshot.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Full metrics snapshot: counters, gauges, histogram quantiles.
    Telemetry {
        /// Correlation id.
        id: u64,
    },
    /// Tail of the flight-recorder event journal.
    Flight {
        /// Correlation id.
        id: u64,
        /// How many of the newest events to return.
        last: usize,
    },
    /// Graceful drain-and-exit.
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

/// Default event count for a `flight` request that omits `last`.
pub const FLIGHT_DEFAULT_LAST: usize = 256;
/// Ceiling on `last` so a flight reply stays a bounded line.
pub const FLIGHT_MAX_LAST: usize = 65_536;

/// A structured request rejection: what was wrong and, when it could be
/// extracted, which request it concerned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, if the document was intact enough to carry one.
    pub id: Option<u64>,
    /// Stable machine-readable category (`malformed_json`,
    /// `bad_request`, `bad_graph`, `oversized`).
    pub kind: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn bad(id: Option<u64>, message: impl Into<String>) -> Self {
        ProtoError {
            id,
            kind: "bad_request",
            message: message.into(),
        }
    }
}

/// Parse a strategy name as used on the wire (the `BENCH_solver.json`
/// naming: `ss`, `lamps`, `ss_ps`, `lamps_ps`).
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    match name {
        "ss" => Some(Strategy::ScheduleStretch),
        "lamps" => Some(Strategy::Lamps),
        "ss_ps" => Some(Strategy::ScheduleStretchPs),
        "lamps_ps" => Some(Strategy::LampsPs),
        _ => None,
    }
}

/// The wire name of a strategy (inverse of [`parse_strategy`]).
pub fn strategy_wire_name(s: Strategy) -> &'static str {
    match s {
        Strategy::ScheduleStretch => "ss",
        Strategy::Lamps => "lamps",
        Strategy::ScheduleStretchPs => "ss_ps",
        Strategy::LampsPs => "lamps_ps",
    }
}

/// Ids live in the exactly-representable f64 integer range so they
/// survive the JSON number round trip.
const MAX_ID: f64 = 9_007_199_254_740_992.0; // 2^53

fn extract_id(root: &Value) -> Result<u64, ProtoError> {
    match root.get("id") {
        Some(Value::Number(n)) if *n >= 0.0 && *n <= MAX_ID && n.fract() == 0.0 => Ok(*n as u64),
        Some(_) => Err(ProtoError::bad(
            None,
            "id must be a non-negative integer ≤ 2^53",
        )),
        None => Err(ProtoError::bad(None, "missing required field id")),
    }
}

fn finite_positive(v: &Value, what: &str, id: u64) -> Result<f64, ProtoError> {
    match v.as_number() {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(ProtoError::bad(
            Some(id),
            format!("{what} must be a positive finite number"),
        )),
    }
}

fn parse_graph(v: &Value, id: u64, limits: &Limits) -> Result<TaskGraph, ProtoError> {
    let bad_graph = |message: String| ProtoError {
        id: Some(id),
        kind: "bad_graph",
        message,
    };
    let weights = v
        .get("weights")
        .and_then(Value::as_array)
        .ok_or_else(|| bad_graph("graph.weights must be an array of cycle counts".into()))?;
    if weights.is_empty() {
        return Err(bad_graph("graph.weights must not be empty".into()));
    }
    if weights.len() > limits.max_tasks {
        return Err(bad_graph(format!(
            "graph has {} tasks, limit is {}",
            weights.len(),
            limits.max_tasks
        )));
    }
    let edges = match v.get("edges") {
        None => &[][..],
        Some(e) => e
            .as_array()
            .ok_or_else(|| bad_graph("graph.edges must be an array of [from, to] pairs".into()))?,
    };
    if edges.len() > limits.max_edges {
        return Err(bad_graph(format!(
            "graph has {} edges, limit is {}",
            edges.len(),
            limits.max_edges
        )));
    }
    let mut b = GraphBuilder::with_capacity(weights.len(), edges.len());
    for w in weights {
        match w.as_number() {
            // Weights are cycle counts; 2^53 cycles is ~29 days at 3.1 GHz.
            Some(x) if (0.0..=MAX_ID).contains(&x) && x.fract() == 0.0 => {
                b.add_task(x as u64);
            }
            _ => {
                return Err(bad_graph(
                    "graph.weights entries must be non-negative integers".into(),
                ))
            }
        }
    }
    let n = weights.len();
    for e in edges {
        let pair = e.as_array().unwrap_or(&[]);
        let (Some(from), Some(to)) = (
            pair.first().and_then(Value::as_number),
            pair.get(1).and_then(Value::as_number),
        ) else {
            return Err(bad_graph(
                "graph.edges entries must be [from, to] index pairs".into(),
            ));
        };
        if pair.len() != 2
            || from.fract() != 0.0
            || to.fract() != 0.0
            || !(0.0..n as f64).contains(&from)
            || !(0.0..n as f64).contains(&to)
        {
            return Err(bad_graph(format!(
                "edge [{from}, {to}] is out of range for {n} tasks"
            )));
        }
        b.add_edge(TaskId(from as u32), TaskId(to as u32))
            .map_err(|e| bad_graph(e.to_string()))?;
    }
    b.build().map_err(|e| bad_graph(e.to_string()))
}

/// Parse and validate one request line. The `oversized` kind is produced
/// by the server's reader (it never materializes the line); this parser
/// handles everything that fits in memory.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, ProtoError> {
    let root = parse(line).map_err(|e| ProtoError {
        id: None,
        kind: "malformed_json",
        message: e.to_string(),
    })?;
    if root.as_object().is_none() {
        return Err(ProtoError::bad(None, "request must be a JSON object"));
    }
    let id = extract_id(&root)?;
    let op = match root.get("op") {
        None => "solve",
        Some(v) => v
            .as_str()
            .ok_or_else(|| ProtoError::bad(Some(id), "op must be a string"))?,
    };
    match op {
        "ping" => return Ok(Request::Ping { id }),
        "stats" => return Ok(Request::Stats { id }),
        "telemetry" => return Ok(Request::Telemetry { id }),
        "flight" => {
            let last = match root.get("last") {
                None => FLIGHT_DEFAULT_LAST,
                Some(v) => match v.as_number() {
                    Some(x) if (1.0..=FLIGHT_MAX_LAST as f64).contains(&x) && x.fract() == 0.0 => {
                        x as usize
                    }
                    _ => {
                        return Err(ProtoError::bad(
                            Some(id),
                            format!("last must be an integer in 1..={FLIGHT_MAX_LAST}"),
                        ))
                    }
                },
            };
            return Ok(Request::Flight { id, last });
        }
        "shutdown" => return Ok(Request::Shutdown { id }),
        "solve" => {}
        other => {
            return Err(ProtoError::bad(
                Some(id),
                format!(
                    "unknown op {other:?} (expected solve, ping, stats, telemetry, flight, or shutdown)"
                ),
            ))
        }
    }

    let strategy = match root.get("strategy") {
        Some(Value::String(s)) => parse_strategy(s).ok_or_else(|| {
            ProtoError::bad(
                Some(id),
                format!("unknown strategy {s:?} (expected ss, lamps, ss_ps, or lamps_ps)"),
            )
        })?,
        Some(_) => return Err(ProtoError::bad(Some(id), "strategy must be a string")),
        None => return Err(ProtoError::bad(Some(id), "missing required field strategy")),
    };
    let deadline = match (root.get("deadline_s"), root.get("deadline_factor")) {
        (Some(_), Some(_)) => {
            return Err(ProtoError::bad(
                Some(id),
                "give deadline_s or deadline_factor, not both",
            ))
        }
        (Some(v), None) => DeadlineSpec::Seconds(finite_positive(v, "deadline_s", id)?),
        (None, Some(v)) => DeadlineSpec::Factor(finite_positive(v, "deadline_factor", id)?),
        (None, None) => {
            return Err(ProtoError::bad(
                Some(id),
                "missing deadline_s or deadline_factor",
            ))
        }
    };
    let budget_steps = match root.get("budget_steps") {
        None => None,
        Some(v) => match v.as_number() {
            Some(x) if (0.0..=MAX_ID).contains(&x) && x.fract() == 0.0 => Some(x as u64),
            _ => {
                return Err(ProtoError::bad(
                    Some(id),
                    "budget_steps must be a non-negative integer",
                ))
            }
        },
    };
    let graph_value = root
        .get("graph")
        .ok_or_else(|| ProtoError::bad(Some(id), "missing required field graph"))?;
    let graph = parse_graph(graph_value, id, limits)?;
    Ok(Request::Solve(Box::new(SolveRequest {
        id,
        strategy,
        deadline,
        graph,
        budget_steps,
    })))
}

fn push_id(out: &mut String, id: Option<u64>) {
    match id {
        Some(id) => {
            let _ = write!(out, "{{\"id\":{id}");
        }
        None => out.push_str("{\"id\":null"),
    }
}

/// Encode a solved (complete or degraded) response.
pub fn encode_solved(req_id: u64, strategy: Strategy, b: &BudgetedSolution) -> String {
    let s = &b.solution;
    let mut out = String::with_capacity(384);
    push_id(&mut out, Some(req_id));
    let status = if b.completeness.is_complete() {
        "ok"
    } else {
        "degraded"
    };
    let _ = write!(
        out,
        ",\"status\":\"{status}\",\"strategy\":\"{}\",\"n_procs\":{},\"vdd\":{},\"freq_hz\":{},\"freq_bits\":\"{:016x}\",\"energy_j\":{},\"energy_bits\":\"{:016x}\",\"active_j\":{},\"idle_j\":{},\"sleep_j\":{},\"transition_j\":{},\"sleep_episodes\":{},\"makespan_cycles\":{},\"makespan_s\":{},\"steps\":{}",
        strategy_wire_name(strategy),
        s.n_procs,
        s.level.vdd,
        s.level.freq,
        s.level.freq.to_bits(),
        s.energy.total(),
        s.energy.total().to_bits(),
        s.energy.active_j,
        s.energy.idle_j,
        s.energy.sleep_j,
        s.energy.transition_j,
        s.energy.sleep_episodes,
        s.makespan_cycles,
        s.makespan_s,
        b.steps,
    );
    if let Completeness::Degraded { explored, total } = b.completeness {
        let _ = write!(out, ",\"explored\":{explored},\"total\":{total}");
    }
    out.push_str("}\n");
    out
}

/// Encode a structured error response (`status: "error"`).
pub fn encode_error(id: Option<u64>, kind: &str, message: &str) -> String {
    let mut out = String::with_capacity(96 + message.len());
    push_id(&mut out, id);
    out.push_str(",\"status\":\"error\",\"kind\":");
    write_string(&mut out, kind);
    out.push_str(",\"error\":");
    write_string(&mut out, message);
    out.push_str("}\n");
    out
}

/// Encode an admission-control rejection (`status: "overloaded"`).
pub fn encode_overloaded(id: u64, queue_depth: usize, queue_capacity: usize) -> String {
    format!(
        "{{\"id\":{id},\"status\":\"overloaded\",\"queue_depth\":{queue_depth},\"queue_capacity\":{queue_capacity}}}\n"
    )
}

/// Encode the reply to a `ping`.
pub fn encode_pong(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"pong\"}}\n")
}

/// Encode the acknowledgement of a `shutdown` request.
pub fn encode_shutdown_ack(id: u64) -> String {
    format!("{{\"id\":{id},\"status\":\"shutting_down\"}}\n")
}

/// Quantile summary of one histogram, as it crosses the wire.
///
/// Quantiles are estimated from the registry's log₂ buckets by
/// within-bucket linear interpolation
/// ([`lamps_obs::quantile_from_buckets`]); `None` (wire `null`) while
/// the histogram is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Metric name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 90th percentile.
    pub p90: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

impl HistogramSummary {
    /// Summarize a registry histogram row (name, count, sum, buckets).
    pub fn from_buckets(name: String, count: u64, sum: u64, buckets: &[(u64, u64)]) -> Self {
        HistogramSummary {
            name,
            count,
            sum,
            p50: lamps_obs::quantile_from_buckets(buckets, 0.50),
            p90: lamps_obs::quantile_from_buckets(buckets, 0.90),
            p99: lamps_obs::quantile_from_buckets(buckets, 0.99),
        }
    }
}

/// The shared payload of `stats` and `telemetry` responses.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryBody {
    /// Monotonic counters, name → value.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges, name → value.
    pub gauges: Vec<(String, u64)>,
    /// Histogram quantile summaries.
    pub histograms: Vec<HistogramSummary>,
}

impl TelemetryBody {
    /// Value of the counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Summary of the histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

fn write_quantile(out: &mut String, key: &str, q: Option<f64>) {
    let _ = write!(out, ",\"{key}\":");
    match q {
        // A quantile estimate is always finite, but route through the
        // null-on-non-finite writer anyway: this feeds the wire.
        Some(v) => lamps_obs::json::write_f64(out, v),
        None => out.push_str("null"),
    }
}

/// Encode a `stats`/`telemetry` reply — one schema for both, checked by
/// `lamps_verify::serve::check_response_line`.
pub fn encode_telemetry_body(id: u64, status: &str, body: &TelemetryBody) -> String {
    let mut out = String::with_capacity(128 + (body.counters.len() + body.gauges.len()) * 32);
    let _ = write!(out, "{{\"id\":{id},\"status\":\"{status}\",\"counters\":{{");
    for (i, (name, value)) in body.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in body.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in body.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, &h.name);
        let _ = write!(out, ":{{\"count\":{},\"sum\":{}", h.count, h.sum);
        write_quantile(&mut out, "p50", h.p50);
        write_quantile(&mut out, "p90", h.p90);
        write_quantile(&mut out, "p99", h.p99);
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// Encode the reply to a `stats` request.
pub fn encode_stats(id: u64, body: &TelemetryBody) -> String {
    encode_telemetry_body(id, "stats", body)
}

/// Encode the reply to a `telemetry` request.
pub fn encode_telemetry(id: u64, body: &TelemetryBody) -> String {
    encode_telemetry_body(id, "telemetry", body)
}

/// Encode the reply to a `flight` request: the newest `events` of the
/// in-process journal, oldest first, in dump-file event schema.
pub fn encode_flight(id: u64, events: &[lamps_obs::FlightEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    let _ = write!(
        out,
        "{{\"id\":{id},\"status\":\"flight\",\"dropped\":{dropped},\"events\":["
    );
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        lamps_obs::flight::write_event_json(&mut out, ev);
    }
    out.push_str("]}\n");
    out
}

/// A parsed response, for clients (the load generator, the tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A complete or degraded solve result.
    Solved(SolvedResponse),
    /// A structured rejection.
    Error {
        /// Echoed request id, when the server could extract one.
        id: Option<u64>,
        /// Machine-readable category.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// Admission control turned the request away.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// Queue depth observed at rejection time.
        queue_depth: u64,
    },
    /// Reply to `ping`.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Reply to `stats` (server's own counters, gauges, quantiles).
    Stats {
        /// Echoed request id.
        id: u64,
        /// Snapshot payload.
        body: TelemetryBody,
    },
    /// Reply to `telemetry` (full registry snapshot, same schema).
    Telemetry {
        /// Echoed request id.
        id: u64,
        /// Snapshot payload.
        body: TelemetryBody,
    },
    /// Reply to `flight`: the journal tail.
    Flight {
        /// Echoed request id.
        id: u64,
        /// Ring-buffer overwrites since the journal started.
        dropped: u64,
        /// Events, oldest first.
        events: Vec<WireFlightEvent>,
    },
    /// Reply to `shutdown`.
    ShuttingDown {
        /// Echoed request id.
        id: u64,
    },
}

/// A flight event as decoded from the wire (`kind` is owned here; the
/// in-process recorder uses `&'static` tags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFlightEvent {
    /// Microseconds since the recorder's origin.
    pub ts_us: u64,
    /// Per-process thread id.
    pub tid: u64,
    /// Event kind tag.
    pub kind: String,
    /// Correlation key (request id, frame index).
    pub key: u64,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// The solved-response fields clients assert on.
#[derive(Debug, Clone, PartialEq)]
pub struct SolvedResponse {
    /// Echoed request id.
    pub id: u64,
    /// Whether the search was truncated by its budget.
    pub degraded: bool,
    /// Strategy wire name.
    pub strategy: String,
    /// Processors employed.
    pub n_procs: u64,
    /// Exact bit pattern of the chosen level's frequency.
    pub freq_bits: u64,
    /// Exact bit pattern of the total energy.
    pub energy_bits: u64,
    /// Total energy as printed (approximate; assert on the bits).
    pub energy_j: f64,
    /// Makespan in cycles.
    pub makespan_cycles: u64,
    /// Makespan in seconds at the chosen level.
    pub makespan_s: f64,
    /// Candidate evaluations spent.
    pub steps: u64,
}

impl Response {
    /// The echoed id, when the response carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Response::Solved(s) => Some(s.id),
            Response::Error { id, .. } => *id,
            Response::Overloaded { id, .. }
            | Response::Pong { id }
            | Response::Stats { id, .. }
            | Response::Telemetry { id, .. }
            | Response::Flight { id, .. }
            | Response::ShuttingDown { id } => Some(*id),
        }
    }
}

fn get_u64(root: &Value, key: &str) -> Result<u64, String> {
    match root.get(key).and_then(Value::as_number) {
        Some(x) if (0.0..=MAX_ID).contains(&x) && x.fract() == 0.0 => Ok(x as u64),
        _ => Err(format!("response missing integer field {key}")),
    }
}

fn get_bits(root: &Value, key: &str) -> Result<u64, String> {
    let s = root
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("response missing hex field {key}"))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("{key} is not a 64-bit hex string: {s:?}"))
}

/// Parse one response line into a typed [`Response`].
pub fn parse_response(line: &str) -> Result<Response, String> {
    let root = parse(line).map_err(|e| e.to_string())?;
    let status = root
        .get("status")
        .and_then(Value::as_str)
        .ok_or("response has no status")?;
    let id = match root.get("id") {
        Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
        Some(Value::Null) => None,
        _ => return Err("response id must be an integer or null".into()),
    };
    let require_id = || id.ok_or_else(|| format!("{status} response must echo an id"));
    match status {
        "ok" | "degraded" => Ok(Response::Solved(SolvedResponse {
            id: require_id()?,
            degraded: status == "degraded",
            strategy: root
                .get("strategy")
                .and_then(Value::as_str)
                .ok_or("solved response has no strategy")?
                .to_string(),
            n_procs: get_u64(&root, "n_procs")?,
            freq_bits: get_bits(&root, "freq_bits")?,
            energy_bits: get_bits(&root, "energy_bits")?,
            energy_j: root
                .get("energy_j")
                .and_then(Value::as_number)
                .ok_or("solved response has no energy_j")?,
            makespan_cycles: get_u64(&root, "makespan_cycles")?,
            makespan_s: root
                .get("makespan_s")
                .and_then(Value::as_number)
                .ok_or("solved response has no makespan_s")?,
            steps: get_u64(&root, "steps")?,
        })),
        "error" => Ok(Response::Error {
            id,
            kind: root
                .get("kind")
                .and_then(Value::as_str)
                .ok_or("error response has no kind")?
                .to_string(),
            message: root
                .get("error")
                .and_then(Value::as_str)
                .ok_or("error response has no error message")?
                .to_string(),
        }),
        "overloaded" => Ok(Response::Overloaded {
            id: require_id()?,
            queue_depth: get_u64(&root, "queue_depth")?,
        }),
        "pong" => Ok(Response::Pong { id: require_id()? }),
        "shutting_down" => Ok(Response::ShuttingDown { id: require_id()? }),
        "stats" => Ok(Response::Stats {
            id: require_id()?,
            body: parse_telemetry_body(&root)?,
        }),
        "telemetry" => Ok(Response::Telemetry {
            id: require_id()?,
            body: parse_telemetry_body(&root)?,
        }),
        "flight" => {
            let events = root
                .get("events")
                .and_then(Value::as_array)
                .ok_or("flight response has no events array")?
                .iter()
                .map(|ev| {
                    Ok(WireFlightEvent {
                        ts_us: get_u64(ev, "ts_us")?,
                        tid: get_u64(ev, "tid")?,
                        kind: ev
                            .get("kind")
                            .and_then(Value::as_str)
                            .ok_or_else(|| "flight event has no kind".to_string())?
                            .to_string(),
                        key: get_u64(ev, "key")?,
                        a: get_u64(ev, "a")?,
                        b: get_u64(ev, "b")?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Response::Flight {
                id: require_id()?,
                dropped: get_u64(&root, "dropped")?,
                events,
            })
        }
        other => Err(format!("unknown response status {other:?}")),
    }
}

fn parse_name_u64_map(root: &Value, key: &str) -> Result<Vec<(String, u64)>, String> {
    root.get(key)
        .and_then(Value::as_object)
        .ok_or_else(|| format!("stats/telemetry response has no {key} object"))?
        .iter()
        .map(|(k, v)| match v.as_number() {
            Some(n) if (0.0..=MAX_ID).contains(&n) && n.fract() == 0.0 => Ok((k.clone(), n as u64)),
            _ => Err(format!("{key}.{k} must be a non-negative integer")),
        })
        .collect()
}

fn get_quantile(h: &Value, name: &str, key: &str) -> Result<Option<f64>, String> {
    match h.get(key) {
        Some(Value::Null) => Ok(None),
        Some(v) => match v.as_number() {
            Some(x) if x.is_finite() && x >= 0.0 => Ok(Some(x)),
            _ => Err(format!(
                "histograms.{name}.{key} must be null or finite ≥ 0"
            )),
        },
        None => Err(format!("histograms.{name} is missing {key}")),
    }
}

fn parse_telemetry_body(root: &Value) -> Result<TelemetryBody, String> {
    let histograms = root
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or("stats/telemetry response has no histograms object")?
        .iter()
        .map(|(name, h)| {
            Ok(HistogramSummary {
                name: name.clone(),
                count: get_u64(h, "count").map_err(|e| format!("histograms.{name}: {e}"))?,
                sum: get_u64(h, "sum").map_err(|e| format!("histograms.{name}: {e}"))?,
                p50: get_quantile(h, name, "p50")?,
                p90: get_quantile(h, name, "p90")?,
                p99: get_quantile(h, name, "p99")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(TelemetryBody {
        counters: parse_name_u64_map(root, "counters")?,
        gauges: parse_name_u64_map(root, "gauges")?,
        histograms,
    })
}

/// Render a solve request line — the client-side inverse of
/// [`parse_request`], shared by the load generator and the tests so
/// both speak exactly the schema the server validates.
pub fn encode_solve_request(
    id: u64,
    strategy: Strategy,
    deadline: DeadlineSpec,
    graph: &TaskGraph,
    budget_steps: Option<u64>,
) -> String {
    let mut out = String::with_capacity(64 + graph.len() * 10 + graph.edge_count() * 8);
    let _ = write!(
        out,
        "{{\"id\":{id},\"op\":\"solve\",\"strategy\":\"{}\",",
        strategy_wire_name(strategy)
    );
    match deadline {
        DeadlineSpec::Seconds(s) => {
            let _ = write!(out, "\"deadline_s\":{s},");
        }
        DeadlineSpec::Factor(f) => {
            let _ = write!(out, "\"deadline_factor\":{f},");
        }
    }
    if let Some(steps) = budget_steps {
        let _ = write!(out, "\"budget_steps\":{steps},");
    }
    out.push_str("\"graph\":{\"weights\":[");
    for (i, w) in graph.weights().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{w}");
    }
    out.push_str("],\"edges\":[");
    for (i, (from, to)) in graph.edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", from.index(), to.index());
    }
    out.push_str("]}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve_with_budget_cache, ScheduleCache, SchedulerConfig, SolveBudget};
    use lamps_taskgraph::GraphError;

    fn diamond() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(3_100_000);
        let l = b.add_task(6_200_000);
        let r = b.add_task(6_200_000);
        let z = b.add_task(3_100_000);
        b.add_edge(a, l).unwrap();
        b.add_edge(a, r).unwrap();
        b.add_edge(l, z).unwrap();
        b.add_edge(r, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn solve_request_round_trips() {
        let g = diamond();
        let line = encode_solve_request(
            7,
            Strategy::LampsPs,
            DeadlineSpec::Factor(2.0),
            &g,
            Some(32),
        );
        let req = parse_request(line.trim_end(), &Limits::default()).unwrap();
        let Request::Solve(req) = req else {
            panic!("expected solve, got {req:?}");
        };
        assert_eq!(req.id, 7);
        assert_eq!(req.strategy, Strategy::LampsPs);
        assert_eq!(req.deadline, DeadlineSpec::Factor(2.0));
        assert_eq!(req.budget_steps, Some(32));
        assert_eq!(req.graph.len(), g.len());
        assert_eq!(req.graph.edge_count(), g.edge_count());
        assert_eq!(req.graph.weights(), g.weights());
        assert_eq!(req.graph.critical_path_cycles(), g.critical_path_cycles());
    }

    #[test]
    fn control_ops_parse() {
        let limits = Limits::default();
        for (line, want) in [
            ("{\"id\":1,\"op\":\"ping\"}", 1u64),
            ("{\"id\":2,\"op\":\"stats\"}", 2),
            ("{\"id\":3,\"op\":\"shutdown\"}", 3),
            ("{\"id\":4,\"op\":\"telemetry\"}", 4),
        ] {
            let req = parse_request(line, &limits).unwrap();
            let got = match req {
                Request::Ping { id }
                | Request::Stats { id }
                | Request::Telemetry { id }
                | Request::Shutdown { id } => id,
                other => panic!("{other:?}"),
            };
            assert_eq!(got, want);
        }
    }

    #[test]
    fn flight_op_parses_with_default_and_explicit_last() {
        let limits = Limits::default();
        let req = parse_request("{\"id\":5,\"op\":\"flight\"}", &limits).unwrap();
        assert!(
            matches!(req, Request::Flight { id: 5, last } if last == FLIGHT_DEFAULT_LAST),
            "{req:?}"
        );
        let req = parse_request("{\"id\":6,\"op\":\"flight\",\"last\":12}", &limits).unwrap();
        assert!(
            matches!(req, Request::Flight { id: 6, last: 12 }),
            "{req:?}"
        );
        for bad in [
            "{\"id\":7,\"op\":\"flight\",\"last\":0}",
            "{\"id\":7,\"op\":\"flight\",\"last\":1.5}",
            "{\"id\":7,\"op\":\"flight\",\"last\":\"many\"}",
            "{\"id\":7,\"op\":\"flight\",\"last\":100000000}",
        ] {
            assert_eq!(parse_request(bad, &limits).unwrap_err().kind, "bad_request");
        }
    }

    fn sample_body() -> TelemetryBody {
        // Name-ordered, as the server encodes and the object parser
        // (BTreeMap-backed) yields.
        TelemetryBody {
            counters: vec![("ok".into(), 11), ("requests".into(), 12)],
            gauges: vec![("queue_depth".into(), 3)],
            histograms: vec![
                HistogramSummary::from_buckets("empty_h".into(), 0, 0, &[]),
                HistogramSummary::from_buckets(
                    "serve.latency_us".into(),
                    4,
                    706,
                    &[(0, 1), (2, 2), (512, 1)],
                ),
            ],
        }
    }

    #[test]
    fn stats_and_telemetry_share_schema_and_round_trip() {
        let body = sample_body();
        type Encoder = fn(u64, &TelemetryBody) -> String;
        let cases: [(Encoder, &str); 2] =
            [(encode_stats, "stats"), (encode_telemetry, "telemetry")];
        for (encode, want_status) in cases {
            let line = encode(9, &body);
            assert!(line.ends_with('\n'));
            assert!(line.contains(&format!("\"status\":\"{want_status}\"")));
            let parsed = parse_response(line.trim_end()).unwrap();
            let (id, got) = match parsed {
                Response::Stats { id, body } => (id, body),
                Response::Telemetry { id, body } => (id, body),
                other => panic!("{other:?}"),
            };
            assert_eq!(id, 9);
            assert_eq!(got, body);
        }
        // Accessors and quantile behavior on the round-tripped body.
        assert_eq!(body.counter("requests"), Some(12));
        assert_eq!(body.gauge("queue_depth"), Some(3));
        let h = body.histogram("serve.latency_us").unwrap();
        assert_eq!(h.count, 4);
        assert!(h.p50.unwrap() <= h.p90.unwrap() && h.p90.unwrap() <= h.p99.unwrap());
        let empty = body.histogram("empty_h").unwrap();
        assert_eq!((empty.p50, empty.p90, empty.p99), (None, None, None));
    }

    #[test]
    fn flight_response_round_trips() {
        let events = [
            lamps_obs::FlightEvent {
                ts_us: 10,
                tid: 0,
                kind: lamps_obs::flight::SERVE_ADMIT,
                key: 7,
                a: 2,
                b: 0,
            },
            lamps_obs::FlightEvent {
                ts_us: 15,
                tid: 1,
                kind: lamps_obs::flight::SERVE_REPLY,
                key: 7,
                a: 0,
                b: 0,
            },
        ];
        let line = encode_flight(3, &events, 5);
        let Response::Flight {
            id,
            dropped,
            events: got,
        } = parse_response(line.trim_end()).unwrap()
        else {
            panic!("expected flight");
        };
        assert_eq!((id, dropped), (3, 5));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, "serve.admit");
        assert_eq!(got[0].key, 7);
        assert_eq!(got[1].ts_us, 15);
        // Empty journal still encodes and parses.
        let line = encode_flight(4, &[], 0);
        assert!(matches!(
            parse_response(line.trim_end()).unwrap(),
            Response::Flight { id: 4, dropped: 0, events } if events.is_empty()
        ));
    }

    #[test]
    fn rejections_name_the_problem_and_echo_the_id() {
        let limits = Limits::default();
        let cases: [(&str, &str, Option<u64>); 9] = [
            ("not json", "malformed_json", None),
            ("[1,2]", "bad_request", None),
            ("{\"op\":\"solve\"}", "bad_request", None),
            ("{\"id\":-1}", "bad_request", None),
            ("{\"id\":4,\"op\":\"nope\"}", "bad_request", Some(4)),
            (
                "{\"id\":5,\"strategy\":\"warp\",\"deadline_factor\":2,\"graph\":{\"weights\":[1]}}",
                "bad_request",
                Some(5),
            ),
            (
                "{\"id\":6,\"strategy\":\"lamps\",\"graph\":{\"weights\":[1]}}",
                "bad_request",
                Some(6),
            ),
            (
                "{\"id\":7,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[1],\"edges\":[[0,0]]}}",
                "bad_graph",
                Some(7),
            ),
            (
                "{\"id\":8,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[1,1],\"edges\":[[0,1],[1,0]]}}",
                "bad_graph",
                Some(8),
            ),
        ];
        for (line, kind, id) in cases {
            let err = parse_request(line, &limits).unwrap_err();
            assert_eq!(err.kind, kind, "{line}");
            assert_eq!(err.id, id, "{line}");
        }
    }

    #[test]
    fn work_that_overflows_u64_is_a_bad_graph() {
        // A chain of `n` 2^53-cycle tasks: every weight is a legal wire
        // integer and the graph is far under `max_tasks`, but from 2048
        // tasks on the total work (n · 2^53) no longer fits in a u64.
        let chain = |n: usize| {
            let weights = vec!["9007199254740992"; n].join(",");
            let edges = (0..n - 1)
                .map(|i| format!("[{i},{}]", i + 1))
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{{\"id\":9,\"strategy\":\"lamps\",\"deadline_factor\":2,\
                 \"graph\":{{\"weights\":[{weights}],\"edges\":[{edges}]}}}}"
            )
        };
        for n in [2049, 2048] {
            let err = parse_request(&chain(n), &Limits::default()).unwrap_err();
            assert_eq!(err.kind, "bad_graph", "{n} tasks");
            assert_eq!(err.id, Some(9));
            assert_eq!(err.message, GraphError::WorkOverflow.to_string());
        }
        let Request::Solve(req) = parse_request(&chain(2047), &Limits::default()).unwrap() else {
            panic!("expected a solve request");
        };
        assert_eq!(req.graph.total_work_cycles(), 2047 << 53);
        assert_eq!(req.graph.critical_path_cycles(), 2047 << 53);
    }

    #[test]
    fn graph_limits_enforced() {
        let limits = Limits {
            max_line_bytes: 1 << 20,
            max_tasks: 2,
            max_edges: 1,
        };
        let too_many_tasks =
            "{\"id\":1,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[1,1,1]}}";
        assert_eq!(
            parse_request(too_many_tasks, &limits).unwrap_err().kind,
            "bad_graph"
        );
        let too_many_edges = "{\"id\":1,\"strategy\":\"lamps\",\"deadline_factor\":2,\
             \"graph\":{\"weights\":[1,1,1],\"edges\":[[0,1],[1,2]]}}";
        let limits_tasks_ok = Limits {
            max_tasks: 8,
            ..limits
        };
        assert_eq!(
            parse_request(too_many_edges, &limits_tasks_ok)
                .unwrap_err()
                .kind,
            "bad_graph"
        );
    }

    #[test]
    fn solved_response_round_trips_bitwise() {
        let g = diamond();
        let cfg = SchedulerConfig::paper();
        let deadline_s = 3.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let b = solve_with_budget_cache(
            Strategy::LampsPs,
            deadline_s,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
            &SolveBudget::unlimited(),
        )
        .unwrap();
        let line = encode_solved(42, Strategy::LampsPs, &b);
        assert!(line.ends_with('\n'));
        let Response::Solved(r) = parse_response(line.trim_end()).unwrap() else {
            panic!("expected solved");
        };
        assert_eq!(r.id, 42);
        assert!(!r.degraded);
        assert_eq!(r.strategy, "lamps_ps");
        assert_eq!(r.n_procs as usize, b.solution.n_procs);
        assert_eq!(r.freq_bits, b.solution.level.freq.to_bits());
        assert_eq!(r.energy_bits, b.solution.energy.total().to_bits());
        assert_eq!(r.makespan_cycles, b.solution.makespan_cycles);
        assert_eq!(r.steps, b.steps);
    }

    #[test]
    fn error_and_control_responses_round_trip() {
        let e = encode_error(Some(9), "bad_request", "missing \"graph\"\nline two");
        let Response::Error { id, kind, message } = parse_response(e.trim_end()).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(id, Some(9));
        assert_eq!(kind, "bad_request");
        assert_eq!(message, "missing \"graph\"\nline two");

        let e = encode_error(None, "malformed_json", "oops");
        assert!(matches!(
            parse_response(e.trim_end()).unwrap(),
            Response::Error { id: None, .. }
        ));

        assert_eq!(
            parse_response(encode_overloaded(3, 17, 32).trim_end()).unwrap(),
            Response::Overloaded {
                id: 3,
                queue_depth: 17
            }
        );
        assert_eq!(
            parse_response(encode_pong(4).trim_end()).unwrap(),
            Response::Pong { id: 4 }
        );
        assert_eq!(
            parse_response(encode_shutdown_ack(5).trim_end()).unwrap(),
            Response::ShuttingDown { id: 5 }
        );
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::all() {
            assert_eq!(parse_strategy(strategy_wire_name(s)), Some(s));
        }
        assert_eq!(parse_strategy("LAMPS"), None);
    }
}
