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
//! echoed whenever it could still be extracted. Lines must be RFC 8259
//! JSON: a non-RFC number (`05`, `2.`, `-.0`, `1.e0`) or a lone `\u`
//! surrogate is `malformed_json`, and so is a line that is not UTF-8
//! (the server checks that before parsing). A key repeated in the
//! request object or in its `graph` object is a `bad_request` naming the
//! key, with no id echoed when the repeated key is `id`. Members the
//! schema does not name are ignored.

use lamps_core::{
    solve_with_budget_cache, BudgetedSolution, Completeness, ScheduleCache, SchedulerConfig,
    SolveBudget, SolveError, Strategy,
};
use lamps_obs::json::{
    parse, put_u64_before, write_hex64, write_string, write_u64, Event, ParseError, Str, Tokenizer,
    Value,
};
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};
use std::borrow::Cow;
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

impl DeadlineSpec {
    /// The deadline in seconds for `graph` on `cfg`'s platform; a factor
    /// `f` resolves to `f·CPL/f_max`.
    pub fn seconds(self, graph: &TaskGraph, cfg: &SchedulerConfig) -> f64 {
        match self {
            DeadlineSpec::Seconds(s) => s,
            DeadlineSpec::Factor(f) => {
                f * graph.critical_path_cycles() as f64 / cfg.max_frequency()
            }
        }
    }
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

impl SolveRequest {
    /// The step budget the request runs under: its own `budget_steps`,
    /// else `default_steps`; no cancellation token, no wall-clock limit.
    pub fn budget(&self, default_steps: Option<u64>) -> SolveBudget {
        SolveBudget {
            max_steps: self.budget_steps.or(default_steps),
            token: None,
            deadline: None,
        }
    }
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

/// A wire number that is an integer in `0..=MAX_ID`, as a `u64`.
fn wire_u64(x: f64) -> Option<u64> {
    // The cast saturates, so `x` round-trips exactly when it is an
    // integer in `0..2^64` (`-0.0` included).
    let i = x as u64;
    (i as f64 == x && i <= MAX_ID as u64).then_some(i)
}

/// A top-level member as the decoder keeps it: enough to apply the
/// member's rules once the whole line has been read.
#[derive(Clone, Copy)]
enum Scalar<'a> {
    Number(f64),
    Str(Str<'a>),
    /// A bool, null, array or object: wrong for every scalar member.
    Other,
}

impl<'a> Scalar<'a> {
    /// Read the next value as a scalar, skipping a container whole.
    fn read(t: &mut Tokenizer<'a>) -> Result<Self, ParseError> {
        Ok(match t.expect_event()? {
            Event::Number(n) => Scalar::Number(n.to_f64()),
            Event::String(s) => Scalar::Str(s),
            other => {
                t.skip_from(other)?;
                Scalar::Other
            }
        })
    }

    fn number(self) -> Option<f64> {
        match self {
            Scalar::Number(x) => Some(x),
            _ => None,
        }
    }
}

/// The members of a request object, collected in one pass.
#[derive(Default)]
struct Members<'a> {
    id: Option<Scalar<'a>>,
    op: Option<Scalar<'a>>,
    strategy: Option<Scalar<'a>>,
    deadline_s: Option<Scalar<'a>>,
    deadline_factor: Option<Scalar<'a>>,
    budget_steps: Option<Scalar<'a>>,
    last: Option<Scalar<'a>>,
    graph: Option<GraphDecoder>,
    /// The first key seen twice, at the top level or inside `graph`.
    duplicate: Option<&'static str>,
}

/// How a `weights` or `edges` member looked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum List {
    Absent,
    NotArray,
    /// An array of this many elements (counted past the limit, stored
    /// only up to it).
    Array(usize),
}

const WEIGHT_ENTRY: &str = "graph.weights entries must be non-negative integers";
const EDGE_ENTRY: &str = "graph.edges entries must be [from, to] index pairs";

/// Streams a `graph` object into a [`GraphBuilder`]. Errors are kept,
/// not returned, so the rest of the line is still checked for syntax
/// and control ops can ignore the graph; once the graph is known to be
/// rejected nothing more is stored, so memory stays within the limits.
struct GraphDecoder {
    builder: GraphBuilder,
    /// Stays `Absent` when `graph` is not an object.
    weights: List,
    edges: List,
    /// Edges that arrived before `weights`, checked once the task count
    /// is known.
    pending: Vec<(f64, f64)>,
    /// The first bad entry, in line order.
    entry_error: Option<String>,
    /// Whether some recorded problem already rejects the graph.
    failed: bool,
}

impl GraphDecoder {
    fn read(
        t: &mut Tokenizer<'_>,
        limits: &Limits,
        dup: &mut Option<&'static str>,
    ) -> Result<Self, ParseError> {
        let mut g = GraphDecoder {
            builder: GraphBuilder::new(),
            weights: List::Absent,
            edges: List::Absent,
            pending: Vec::new(),
            entry_error: None,
            failed: false,
        };
        let first = t.expect_event()?;
        if !matches!(first, Event::BeginObject) {
            t.skip_from(first)?;
            return Ok(g);
        }
        while let Event::Key(key) = t.expect_event()? {
            match &*key.decode() {
                "weights" if g.weights != List::Absent => {
                    dup.get_or_insert("graph.weights");
                    t.skip_value()?;
                }
                "weights" => g.read_weights(t, limits)?,
                "edges" if g.edges != List::Absent => {
                    dup.get_or_insert("graph.edges");
                    t.skip_value()?;
                }
                "edges" => g.read_edges(t, limits)?,
                _ => t.skip_value()?,
            }
        }
        Ok(g)
    }

    fn entry_error(&mut self, message: impl Into<String>) {
        self.failed = true;
        self.entry_error.get_or_insert_with(|| message.into());
    }

    fn read_weights(&mut self, t: &mut Tokenizer<'_>, limits: &Limits) -> Result<(), ParseError> {
        let first = t.expect_event()?;
        if !matches!(first, Event::BeginArray) {
            self.weights = List::NotArray;
            self.failed = true;
            return t.skip_from(first);
        }
        let mut count = 0;
        loop {
            // Weights are cycle counts; 2^53 cycles is ~29 days at 3.1 GHz.
            let weight = match t.expect_event()? {
                Event::EndArray => break,
                Event::Number(x) => wire_u64(x.to_f64()),
                other => {
                    t.skip_from(other)?;
                    None
                }
            };
            count += 1;
            if count > limits.max_tasks {
                self.failed = true;
            }
            match weight {
                _ if self.failed => {}
                Some(w) => {
                    self.builder.add_task(w);
                }
                None => self.entry_error(WEIGHT_ENTRY),
            }
        }
        self.weights = List::Array(count);
        Ok(())
    }

    fn read_edges(&mut self, t: &mut Tokenizer<'_>, limits: &Limits) -> Result<(), ParseError> {
        let first = t.expect_event()?;
        if !matches!(first, Event::BeginArray) {
            self.edges = List::NotArray;
            self.failed = true;
            return t.skip_from(first);
        }
        let mut count = 0;
        loop {
            let pair = match t.expect_event()? {
                Event::EndArray => break,
                Event::BeginArray => read_pair(t)?,
                other => {
                    t.skip_from(other)?;
                    Err(EDGE_ENTRY)
                }
            };
            count += 1;
            if count > limits.max_edges {
                self.failed = true;
            }
            if self.failed {
                continue;
            }
            match (pair, self.weights) {
                (Err(message), _) => self.entry_error(message),
                (Ok(pair), List::Array(n)) => self.add_edge(pair, n),
                (Ok(pair), _) => self.pending.push(pair),
            }
        }
        self.edges = List::Array(count);
        Ok(())
    }

    fn add_edge(&mut self, (from, to): (f64, f64), n: usize) {
        // The casts saturate, so an end round-trips exactly when it is an
        // integer in `0..2^32`.
        let (f, t) = (from as u32, to as u32);
        if f64::from(f) != from || f64::from(t) != to || f as usize >= n || t as usize >= n {
            return self.entry_error(format!("edge [{from}, {to}] is out of range for {n} tasks"));
        }
        if let Err(e) = self.builder.add_edge(TaskId(f), TaskId(t)) {
            self.entry_error(e.to_string());
        }
    }

    /// The graph, or why it is rejected. Structural problems are named
    /// before bad entries, as the checks read them.
    fn finish(mut self, limits: &Limits) -> Result<TaskGraph, String> {
        let n = match self.weights {
            List::Array(n) => n,
            _ => return Err("graph.weights must be an array of cycle counts".into()),
        };
        if n == 0 {
            return Err("graph.weights must not be empty".into());
        }
        if n > limits.max_tasks {
            return Err(format!(
                "graph has {n} tasks, limit is {}",
                limits.max_tasks
            ));
        }
        match self.edges {
            List::NotArray => {
                return Err("graph.edges must be an array of [from, to] pairs".into());
            }
            List::Array(e) if e > limits.max_edges => {
                return Err(format!(
                    "graph has {e} edges, limit is {}",
                    limits.max_edges
                ));
            }
            _ => {}
        }
        for pair in std::mem::take(&mut self.pending) {
            self.add_edge(pair, n);
        }
        if let Some(message) = self.entry_error {
            return Err(message);
        }
        self.builder.build().map_err(|e| e.to_string())
    }
}

/// Read the rest of an `edges` element whose `[` was just consumed: two
/// numbers and `]`, or the entry error it earns (the element is consumed
/// either way).
fn read_pair(t: &mut Tokenizer<'_>) -> Result<Result<(f64, f64), &'static str>, ParseError> {
    let mut ends = [0.0; 2];
    for end in &mut ends {
        match t.expect_event()? {
            Event::Number(x) => *end = x.to_f64(),
            Event::EndArray => return Ok(Err(EDGE_ENTRY)),
            other => {
                t.skip_from(other)?;
                t.skip_from(Event::BeginArray)?;
                return Ok(Err(EDGE_ENTRY));
            }
        }
    }
    match t.expect_event()? {
        Event::EndArray => Ok(Ok((ends[0], ends[1]))),
        other => {
            t.skip_from(other)?;
            t.skip_from(Event::BeginArray)?;
            Ok(Err(EDGE_ENTRY))
        }
    }
}

/// Read the whole line: its members, or `None` when the document is
/// not an object. Any syntax error anywhere wins over every other
/// problem.
fn read_members<'a>(
    t: &mut Tokenizer<'a>,
    limits: &Limits,
) -> Result<Option<Members<'a>>, ParseError> {
    let first = t.expect_event()?;
    if !matches!(first, Event::BeginObject) {
        t.skip_from(first)?;
        t.finish()?;
        return Ok(None);
    }
    let mut m = Members::default();
    while let Event::Key(key) = t.expect_event()? {
        let key = key.decode();
        let (name, slot) = match &*key {
            "id" => ("id", &mut m.id),
            "op" => ("op", &mut m.op),
            "strategy" => ("strategy", &mut m.strategy),
            "deadline_s" => ("deadline_s", &mut m.deadline_s),
            "deadline_factor" => ("deadline_factor", &mut m.deadline_factor),
            "budget_steps" => ("budget_steps", &mut m.budget_steps),
            "last" => ("last", &mut m.last),
            "graph" if m.graph.is_some() => {
                m.duplicate.get_or_insert("graph");
                t.skip_value()?;
                continue;
            }
            "graph" => {
                m.graph = Some(GraphDecoder::read(t, limits, &mut m.duplicate)?);
                continue;
            }
            // Unknown members are ignored: checked for syntax, not kept.
            _ => {
                t.skip_value()?;
                continue;
            }
        };
        if slot.is_some() {
            m.duplicate.get_or_insert(name);
            t.skip_value()?;
        } else {
            *slot = Some(Scalar::read(t)?);
        }
    }
    t.finish()?;
    Ok(Some(m))
}

/// Parse and validate one request line. The `oversized` kind is produced
/// by the server's reader (it never materializes the line); this parser
/// handles everything that fits in memory.
///
/// The line is decoded in one streaming pass with no JSON value tree:
/// weights and edges go straight into a [`GraphBuilder`], at most
/// [`Limits::max_tasks`] and [`Limits::max_edges`] of them are stored,
/// and unknown members are skipped without being kept. The whole line
/// is read before any rule is applied, so a syntax error anywhere is
/// `malformed_json`, whatever else is wrong.
///
/// A key that appears twice in the request object or in its `graph`
/// object is a `bad_request` naming the key; it echoes the id unless the
/// duplicated key is `id` itself. Objects under unknown keys are not
/// checked for duplicates.
pub fn parse_request(line: &str, limits: &Limits) -> Result<Request, ProtoError> {
    let mut t = Tokenizer::new(line);
    let members = read_members(&mut t, limits).map_err(|e| ProtoError {
        id: None,
        kind: "malformed_json",
        message: e.to_string(),
    })?;
    let Some(m) = members else {
        return Err(ProtoError::bad(None, "request must be a JSON object"));
    };
    if m.duplicate == Some("id") {
        return Err(ProtoError::bad(None, "duplicate key \"id\""));
    }
    let id = match m.id {
        Some(v) => v
            .number()
            .and_then(wire_u64)
            .ok_or_else(|| ProtoError::bad(None, "id must be a non-negative integer ≤ 2^53"))?,
        None => return Err(ProtoError::bad(None, "missing required field id")),
    };
    if let Some(key) = m.duplicate {
        return Err(ProtoError::bad(Some(id), format!("duplicate key {key:?}")));
    }
    let op = match m.op {
        None => Cow::Borrowed("solve"),
        Some(Scalar::Str(s)) => s.decode(),
        Some(_) => return Err(ProtoError::bad(Some(id), "op must be a string")),
    };
    match &*op {
        "ping" => return Ok(Request::Ping { id }),
        "stats" => return Ok(Request::Stats { id }),
        "telemetry" => return Ok(Request::Telemetry { id }),
        "flight" => {
            let last = match m.last {
                None => FLIGHT_DEFAULT_LAST,
                Some(v) => match v.number().and_then(wire_u64) {
                    Some(x) if (1..=FLIGHT_MAX_LAST as u64).contains(&x) => x as usize,
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

    let strategy = match m.strategy {
        Some(Scalar::Str(s)) => {
            let s = s.decode();
            parse_strategy(&s).ok_or_else(|| {
                ProtoError::bad(
                    Some(id),
                    format!("unknown strategy {s:?} (expected ss, lamps, ss_ps, or lamps_ps)"),
                )
            })?
        }
        Some(_) => return Err(ProtoError::bad(Some(id), "strategy must be a string")),
        None => return Err(ProtoError::bad(Some(id), "missing required field strategy")),
    };
    let finite_positive = |v: Scalar<'_>, what: &str| match v.number() {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err(ProtoError::bad(
            Some(id),
            format!("{what} must be a positive finite number"),
        )),
    };
    let deadline = match (m.deadline_s, m.deadline_factor) {
        (Some(_), Some(_)) => {
            return Err(ProtoError::bad(
                Some(id),
                "give deadline_s or deadline_factor, not both",
            ))
        }
        (Some(v), None) => DeadlineSpec::Seconds(finite_positive(v, "deadline_s")?),
        (None, Some(v)) => DeadlineSpec::Factor(finite_positive(v, "deadline_factor")?),
        (None, None) => {
            return Err(ProtoError::bad(
                Some(id),
                "missing deadline_s or deadline_factor",
            ))
        }
    };
    let budget_steps = match m.budget_steps {
        None => None,
        Some(v) => Some(v.number().and_then(wire_u64).ok_or_else(|| {
            ProtoError::bad(Some(id), "budget_steps must be a non-negative integer")
        })?),
    };
    let graph = m
        .graph
        .ok_or_else(|| ProtoError::bad(Some(id), "missing required field graph"))?
        .finish(limits)
        .map_err(|message| ProtoError {
            id: Some(id),
            kind: "bad_graph",
            message,
        })?;
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
        Some(id) => push_u64(out, "{\"id\":", id),
        None => out.push_str("{\"id\":null"),
    }
}

/// Append `prefix` (a key and its punctuation), then `value`.
fn push_u64(out: &mut String, prefix: &str, value: u64) {
    out.push_str(prefix);
    write_u64(out, value);
}

/// Append `prefix`, then `bits` as a quoted 16-digit hex string.
fn push_bits(out: &mut String, prefix: &str, bits: u64) {
    out.push_str(prefix);
    out.push('"');
    write_hex64(out, bits);
    out.push('"');
}

/// Encode a solved (complete or degraded) response.
pub fn encode_solved(req_id: u64, strategy: Strategy, b: &BudgetedSolution) -> String {
    let s = &b.solution;
    let e = &s.energy;
    let mut out = String::with_capacity(384);
    push_id(&mut out, Some(req_id));
    out.push_str(if b.completeness.is_complete() {
        ",\"status\":\"ok\",\"strategy\":\""
    } else {
        ",\"status\":\"degraded\",\"strategy\":\""
    });
    out.push_str(strategy_wire_name(strategy));
    push_u64(&mut out, "\",\"n_procs\":", s.n_procs as u64);
    let _ = write!(out, ",\"vdd\":{},\"freq_hz\":{}", s.level.vdd, s.level.freq);
    push_bits(&mut out, ",\"freq_bits\":", s.level.freq.to_bits());
    let _ = write!(out, ",\"energy_j\":{}", e.total());
    push_bits(&mut out, ",\"energy_bits\":", e.total().to_bits());
    let _ = write!(
        out,
        ",\"active_j\":{},\"idle_j\":{},\"sleep_j\":{},\"transition_j\":{}",
        e.active_j, e.idle_j, e.sleep_j, e.transition_j,
    );
    push_u64(&mut out, ",\"sleep_episodes\":", e.sleep_episodes as u64);
    push_u64(&mut out, ",\"makespan_cycles\":", s.makespan_cycles);
    let _ = write!(out, ",\"makespan_s\":{}", s.makespan_s);
    push_u64(&mut out, ",\"steps\":", b.steps);
    if let Completeness::Degraded { explored, total } = b.completeness {
        push_u64(&mut out, ",\"explored\":", explored);
        push_u64(&mut out, ",\"total\":", total);
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

/// The wire `kind` of a solver error.
pub fn error_kind(e: &SolveError) -> &'static str {
    match e {
        SolveError::Infeasible { .. } => "infeasible",
        SolveError::BadDeadline(_) => "bad_deadline",
        SolveError::Power(_) => "power",
        SolveError::BudgetExhausted { .. } => "budget_exhausted",
    }
}

/// Answer a solve request: resolve its deadline, solve through
/// [`solve_with_budget_cache`] under `budget`, and encode the reply
/// line. `cache` must be built for `req.graph` (or an identical graph).
/// The server's workers, the load generator's in-process pass and the
/// served-vs-local checks all answer through here.
pub fn answer(
    req: &SolveRequest,
    budget: &SolveBudget,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> (Result<BudgetedSolution, SolveError>, String) {
    let deadline_s = req.deadline.seconds(&req.graph, cfg);
    let result = solve_with_budget_cache(req.strategy, deadline_s, cfg, cache, budget);
    let line = match &result {
        Ok(b) => encode_solved(req.id, req.strategy, b),
        Err(e) => encode_error(Some(req.id), error_kind(e), &e.to_string()),
    };
    (result, line)
}

/// Encode an admission-control rejection (`status: "overloaded"`).
pub fn encode_overloaded(id: u64, queue_depth: usize, queue_capacity: usize) -> String {
    let mut out = String::with_capacity(96);
    push_id(&mut out, Some(id));
    push_u64(
        &mut out,
        ",\"status\":\"overloaded\",\"queue_depth\":",
        queue_depth as u64,
    );
    push_u64(&mut out, ",\"queue_capacity\":", queue_capacity as u64);
    out.push_str("}\n");
    out
}

/// A reply that is an id and a status, nothing else.
fn encode_bare_status(id: u64, tail: &str) -> String {
    let mut out = String::with_capacity(48);
    push_id(&mut out, Some(id));
    out.push_str(tail);
    out
}

/// Encode the reply to a `ping`.
pub fn encode_pong(id: u64) -> String {
    encode_bare_status(id, ",\"status\":\"pong\"}\n")
}

/// Encode the acknowledgement of a `shutdown` request.
pub fn encode_shutdown_ack(id: u64) -> String {
    encode_bare_status(id, ",\"status\":\"shutting_down\"}\n")
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
    push_id(&mut out, Some(id));
    out.push_str(",\"status\":\"");
    out.push_str(status);
    out.push_str("\",\"counters\":{");
    write_name_u64_map(&mut out, &body.counters);
    out.push_str("},\"gauges\":{");
    write_name_u64_map(&mut out, &body.gauges);
    out.push_str("},\"histograms\":{");
    for (i, h) in body.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, &h.name);
        push_u64(&mut out, ":{\"count\":", h.count);
        push_u64(&mut out, ",\"sum\":", h.sum);
        write_quantile(&mut out, "p50", h.p50);
        write_quantile(&mut out, "p90", h.p90);
        write_quantile(&mut out, "p99", h.p99);
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// The members of a `counters` or `gauges` object, without its braces.
fn write_name_u64_map(out: &mut String, entries: &[(String, u64)]) {
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, name);
        push_u64(out, ":", *value);
    }
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
    push_id(&mut out, Some(id));
    push_u64(&mut out, ",\"status\":\"flight\",\"dropped\":", dropped);
    out.push_str(",\"events\":[");
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

/// Bytes of a solve line outside its deadline number and graph arrays:
/// every key and all punctuation, the longest strategy name, and a
/// 20-digit id and budget (`u64::MAX` has 20 digits).
const SOLVE_HEAD_BYTES: usize = r#"{"id":,"op":"solve","strategy":"lamps_ps","deadline_factor":,"budget_steps":,"graph":{"weights":[],"edges":[]}}"#
    .len()
    + "\n".len()
    + 2 * 20;

/// Decimal digits of `v`.
fn decimal_digits(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Bytes `core::fmt` writes for `v`, counted without storing them.
fn display_len(v: f64) -> usize {
    struct Count(usize);
    impl std::fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = Count(0);
    let _ = write!(count, "{v}");
    count.0
}

/// Render a solve request line — the client-side inverse of
/// [`parse_request`], shared by the load generator and the tests so
/// both speak exactly the schema the server validates.
///
/// One allocation: the line is written as bytes into a buffer reserved
/// from an upper bound (the widest weight's digits for every weight,
/// the widest task index's digits for both ends of every edge), then
/// checked as UTF-8 once. Integers go through [`write_u64`]; the
/// deadline keeps `core::fmt`'s shortest round-trip digits.
pub fn encode_solve_request(
    id: u64,
    strategy: Strategy,
    deadline: DeadlineSpec,
    graph: &TaskGraph,
    budget_steps: Option<u64>,
) -> String {
    let (deadline_key, deadline) = match deadline {
        DeadlineSpec::Seconds(s) => ("\"deadline_s\":", s),
        DeadlineSpec::Factor(f) => ("\"deadline_factor\":", f),
    };
    let widest_weight = graph.weights().iter().copied().max().unwrap_or(0);
    let widest_index = graph.len().saturating_sub(1) as u64;
    // Each weight is followed by at most one comma; each edge is
    // `[from,to]` plus at most one comma.
    let bound = SOLVE_HEAD_BYTES
        + display_len(deadline)
        + graph.len() * (decimal_digits(widest_weight) + 1)
        + graph.edge_count() * (2 * decimal_digits(widest_index) + 4);
    let mut out = Vec::with_capacity(bound);
    out.extend_from_slice(b"{\"id\":");
    write_u64(&mut out, id);
    out.extend_from_slice(b",\"op\":\"solve\",\"strategy\":\"");
    out.extend_from_slice(strategy_wire_name(strategy).as_bytes());
    out.extend_from_slice(b"\",");
    out.extend_from_slice(deadline_key.as_bytes());
    let _ = std::io::Write::write_fmt(&mut out, format_args!("{deadline},"));
    if let Some(steps) = budget_steps {
        out.extend_from_slice(b"\"budget_steps\":");
        write_u64(&mut out, steps);
        out.push(b',');
    }
    out.extend_from_slice(b"\"graph\":{\"weights\":[");
    for (i, &w) in graph.weights().iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_u64(&mut out, w);
    }
    out.extend_from_slice(b"],\"edges\":[");
    // Each edge is rendered right to left as `,[from,to]` into one
    // stack buffer and appended in one copy (the first without its
    // comma), not in five appends.
    let mut edge = [0u8; 44];
    let mut skip = 1;
    for from in graph.tasks() {
        for to in graph.successors(from) {
            let mut at = edge.len() - 1;
            edge[at] = b']';
            at = put_u64_before(&mut edge, at, to.index() as u64) - 1;
            edge[at] = b',';
            at = put_u64_before(&mut edge, at, from.index() as u64) - 2;
            edge[at..at + 2].copy_from_slice(b",[");
            out.extend_from_slice(&edge[at + skip..]);
            skip = 0;
        }
    }
    out.extend_from_slice(b"]}}\n");
    debug_assert!(out.len() <= bound, "{} > {bound}", out.len());
    String::from_utf8(out).expect("ASCII keys and digits, and core::fmt's float text")
}

/// Render any request as one line (with its newline) — the client-side
/// inverse of [`parse_request`] for every op.
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Solve(s) => {
            encode_solve_request(s.id, s.strategy, s.deadline, &s.graph, s.budget_steps)
        }
        Request::Ping { id } => format!("{{\"id\":{id},\"op\":\"ping\"}}\n"),
        Request::Stats { id } => format!("{{\"id\":{id},\"op\":\"stats\"}}\n"),
        Request::Telemetry { id } => format!("{{\"id\":{id},\"op\":\"telemetry\"}}\n"),
        Request::Flight { id, last } => {
            format!("{{\"id\":{id},\"op\":\"flight\",\"last\":{last}}}\n")
        }
        Request::Shutdown { id } => format!("{{\"id\":{id},\"op\":\"shutdown\"}}\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn duplicate_keys_are_rejected_at_both_levels() {
        let limits = Limits::default();
        let base = "\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[1,2],\"edges\":[[0,1]]}";
        for (extra, key) in [
            ("\"strategy\":\"ss\"", "strategy"),
            ("\"deadline_factor\":3", "deadline_factor"),
            ("\"op\":\"solve\",\"op\":\"ping\"", "op"),
            ("\"budget_steps\":1,\"budget_steps\":2", "budget_steps"),
            ("\"graph\":{\"weights\":[1]}", "graph"),
        ] {
            let line = format!("{{\"id\":3,{base},{extra}}}");
            let err = parse_request(&line, &limits).unwrap_err();
            assert_eq!((err.kind, err.id), ("bad_request", Some(3)), "{line}");
            assert_eq!(err.message, format!("duplicate key {key:?}"), "{line}");
        }
        for (graph, key) in [
            ("{\"weights\":[1],\"weights\":[1]}", "graph.weights"),
            (
                "{\"weights\":[1,2],\"edges\":[],\"edges\":[]}",
                "graph.edges",
            ),
        ] {
            let line = format!(
                "{{\"id\":4,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{graph}}}"
            );
            let err = parse_request(&line, &limits).unwrap_err();
            assert_eq!((err.kind, err.id), ("bad_request", Some(4)));
            assert_eq!(err.message, format!("duplicate key {key:?}"));
        }
        // A duplicated id echoes no id, whichever copy is valid.
        for line in [
            "{\"id\":1,\"id\":2,\"op\":\"ping\"}",
            "{\"id\":\"x\",\"op\":\"ping\",\"id\":2}",
        ] {
            let err = parse_request(line, &limits).unwrap_err();
            assert_eq!((err.kind, err.id), ("bad_request", None), "{line}");
            assert_eq!(err.message, "duplicate key \"id\"");
        }
        // Control ops are checked too, and unknown keys stay ignored.
        let err = parse_request("{\"id\":5,\"op\":\"ping\",\"op\":\"ping\"}", &limits).unwrap_err();
        assert_eq!((err.kind, err.id), ("bad_request", Some(5)));
        assert!(parse_request(
            "{\"id\":6,\"op\":\"ping\",\"x\":1,\"x\":{\"y\":1,\"y\":2}}",
            &limits
        )
        .is_ok());
    }

    #[test]
    fn non_rfc_numbers_are_malformed_json() {
        let limits = Limits::default();
        for num in [
            "05", "2.", "-.0", "1.e0", "+1", ".5", "00", "NaN", "Infinity",
        ] {
            for line in [
                format!("{{\"id\":{num},\"op\":\"ping\"}}"),
                format!("{{\"id\":1,\"strategy\":\"lamps\",\"deadline_factor\":{num},\"graph\":{{\"weights\":[1]}}}}"),
                format!("{{\"id\":1,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{{\"weights\":[{num}]}}}}"),
                format!("{{\"id\":1,\"op\":\"ping\",\"ignored\":[{num}]}}"),
            ] {
                let err = parse_request(&line, &limits).unwrap_err();
                assert_eq!((err.kind, err.id), ("malformed_json", None), "{line}");
            }
        }
        // Exponents and fractions that name integers are still integers.
        let req = parse_request(
            "{\"id\":1e1,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[3.0,2E1]}}",
            &limits,
        )
        .unwrap();
        let Request::Solve(req) = req else {
            panic!("{req:?}")
        };
        assert_eq!((req.id, req.graph.weights()), (10, &[3, 20][..]));
    }

    #[test]
    fn syntax_errors_win_over_every_other_problem() {
        // The whole line is read before any rule is applied.
        let limits = Limits {
            max_tasks: 1,
            ..Limits::default()
        };
        for line in [
            "{\"id\":1,\"strategy\":\"warp\",\"graph\":{\"weights\":[1,2,3]},",
            "{\"id\":1,\"id\":2,\"op\":\"ping\"",
            "{\"id\":1,\"op\":\"ping\",\"graph\":{\"weights\":[1,2]}} x",
        ] {
            assert_eq!(
                parse_request(line, &limits).unwrap_err().kind,
                "malformed_json",
                "{line}"
            );
        }
    }

    #[test]
    fn edges_may_precede_weights() {
        let limits = Limits::default();
        let line = "{\"graph\":{\"edges\":[[0,2],[1,2]],\"weights\":[4,5,6]},\"deadline_s\":1,\"strategy\":\"ss\",\"id\":9}";
        let Request::Solve(req) = parse_request(line, &limits).unwrap() else {
            panic!("expected a solve");
        };
        assert_eq!(req.graph.edge_count(), 2);
        assert_eq!(req.graph.critical_path_cycles(), 11);
        for graph in [
            "{\"edges\":[[0,3]],\"weights\":[4,5,6]}",
            "{\"edges\":[[1,1]],\"weights\":[4,5,6]}",
            "{\"edges\":[[0,1]]}",
        ] {
            let line =
                format!("{{\"id\":2,\"strategy\":\"ss\",\"deadline_s\":1,\"graph\":{graph}}}");
            let err = parse_request(&line, &limits).unwrap_err();
            assert_eq!((err.kind, err.id), ("bad_graph", Some(2)), "{graph}");
        }
    }

    #[test]
    fn limits_count_every_element_but_store_none_past_them() {
        let limits = Limits {
            max_line_bytes: 1 << 20,
            max_tasks: 3,
            max_edges: 2,
        };
        let weights = vec!["1"; 5000].join(",");
        let line = format!("{{\"id\":1,\"strategy\":\"ss\",\"deadline_s\":1,\"graph\":{{\"weights\":[{weights}]}}}}");
        let err = parse_request(&line, &limits).unwrap_err();
        assert_eq!(err.message, "graph has 5000 tasks, limit is 3");
        let edges = ["[0,1]"; 7].join(",");
        let line = format!("{{\"id\":1,\"strategy\":\"ss\",\"deadline_s\":1,\"graph\":{{\"weights\":[1,1],\"edges\":[{edges}]}}}}");
        let err = parse_request(&line, &limits).unwrap_err();
        assert_eq!(err.message, "graph has 7 edges, limit is 2");
        // A control op does not care about the graph's size.
        let line = format!("{{\"id\":2,\"op\":\"ping\",\"graph\":{{\"weights\":[{weights}]}}}}");
        assert!(matches!(
            parse_request(&line, &limits),
            Ok(Request::Ping { id: 2 })
        ));
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

    /// A factor resolves as `f·CPL/f_max`, multiplied first. The
    /// diamond's CPL is 12,400,000 cycles and the paper platform's
    /// `f_max` has bits `0x41e6feb06c6b629d`; at `f = 1.61` that order
    /// gives `…c6b7`, while `f·(CPL/f_max)` gives `…c6b8` and
    /// `f/f_max·CPL` gives `…c6b9`, so the pin catches a reordering.
    #[test]
    fn factor_deadline_multiplies_before_it_divides() {
        let cfg = SchedulerConfig::paper();
        let g = diamond();
        assert_eq!(cfg.max_frequency().to_bits(), 0x41e6_feb0_6c6b_629d);
        assert_eq!(g.critical_path_cycles(), 12_400_000);
        let d = DeadlineSpec::Factor(1.61).seconds(&g, &cfg);
        assert_eq!(d.to_bits(), 0x3f7a_7ec2_9261_c6b7);
        assert_eq!(DeadlineSpec::Seconds(0.25).seconds(&g, &cfg), 0.25);
    }

    #[test]
    fn request_budget_falls_back_to_the_default() {
        let line = encode_solve_request(
            1,
            Strategy::Lamps,
            DeadlineSpec::Factor(2.0),
            &diamond(),
            None,
        );
        let Ok(Request::Solve(mut req)) = parse_request(line.trim_end(), &Limits::default()) else {
            panic!("expected a solve request");
        };
        assert_eq!(req.budget(None).max_steps, None);
        assert_eq!(req.budget(Some(9)).max_steps, Some(9));
        req.budget_steps = Some(4);
        assert_eq!(req.budget(Some(9)).max_steps, Some(4));
        let b = req.budget(None);
        assert!(b.token.is_none() && b.deadline.is_none());
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::all() {
            assert_eq!(parse_strategy(strategy_wire_name(s)), Some(s));
        }
        assert_eq!(parse_strategy("LAMPS"), None);
    }
}
