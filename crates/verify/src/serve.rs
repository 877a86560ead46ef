//! Structural and differential checks for the `lamps-serve` wire
//! protocol.
//!
//! Same philosophy as the rest of this crate: distrust the subsystem
//! under test. [`check_response_line`] re-derives every internal
//! consistency rule a response must satisfy (bit patterns agreeing with
//! the printed floats, solved invariants, degraded bookkeeping) from
//! the raw line; [`check_answer`] compares a served response with the
//! local answer to the same request bit for bit — the one served-vs-local
//! comparison, used by the load generator's differential mode — and
//! [`check_exchange`] replays a request/response pair through it.

use lamps_core::{BudgetedSolution, ScheduleCache, SchedulerConfig, SolveError, Strategy};
use lamps_serve::protocol::{
    answer, error_kind, parse_request, parse_response, strategy_wire_name, Limits, Request,
    Response, TelemetryBody,
};

/// Internal-consistency rules for the shared `stats`/`telemetry`
/// payload: quantiles present exactly when the histogram has samples,
/// monotone across p50 ≤ p90 ≤ p99; answered-request accounting never
/// exceeding admissions; queue depth within capacity.
fn check_telemetry_body(body: &TelemetryBody, v: &mut Vec<ServeViolation>) {
    let mut bad = |m: String| v.push(ServeViolation::BadSnapshot(m));
    for h in &body.histograms {
        let qs = [("p50", h.p50), ("p90", h.p90), ("p99", h.p99)];
        if h.count == 0 {
            if h.sum != 0 {
                bad(format!(
                    "histogram {} has count 0 but sum {}",
                    h.name, h.sum
                ));
            }
            for (name, q) in qs {
                if q.is_some() {
                    bad(format!("histogram {} is empty but reports {name}", h.name));
                }
            }
        } else {
            for (name, q) in qs {
                match q {
                    None => bad(format!(
                        "histogram {} has {} samples but no {name}",
                        h.name, h.count
                    )),
                    Some(x) if !(x.is_finite() && x >= 0.0) => {
                        bad(format!("histogram {} {name} = {x} is invalid", h.name))
                    }
                    Some(_) => {}
                }
            }
            if let (Some(p50), Some(p90), Some(p99)) = (h.p50, h.p90, h.p99) {
                if !(p50 <= p90 && p90 <= p99) {
                    bad(format!(
                        "histogram {} quantiles not monotone: p50 {p50}, p90 {p90}, p99 {p99}",
                        h.name
                    ));
                }
            }
        }
    }
    // The same accounting rules hold under both naming schemes: the
    // `stats` op's bare names and the registry's `serve.`-prefixed ones.
    for prefix in ["", "serve."] {
        let c = |name: &str| body.counter(&format!("{prefix}{name}"));
        if let (Some(req), Some(ok), Some(deg), Some(err)) =
            (c("requests"), c("ok"), c("degraded"), c("solve_errors"))
        {
            if ok + deg + err > req {
                bad(format!(
                    "answered {} + {} + {} requests but only {} admitted",
                    ok, deg, err, req
                ));
            }
        }
        let g = |name: &str| body.gauge(&format!("{prefix}{name}"));
        if let (Some(depth), Some(cap)) = (g("queue_depth"), g("queue_capacity")) {
            if depth > cap {
                bad(format!("queue_depth {depth} exceeds queue_capacity {cap}"));
            }
        }
    }
}

/// One protocol-level inconsistency found in a response (or an
/// exchange). `Display` gives a one-line description.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeViolation {
    /// The response line is not valid protocol JSON at all.
    Unparseable(String),
    /// A solved response broke an internal invariant.
    BadSolved(String),
    /// A stats/telemetry/flight snapshot broke an internal invariant.
    BadSnapshot(String),
    /// The response does not answer the request it is paired with.
    WrongAnswer(String),
    /// The served result differs bitwise from the local solve.
    Mismatch(String),
}

impl std::fmt::Display for ServeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeViolation::Unparseable(m) => write!(f, "unparseable response: {m}"),
            ServeViolation::BadSolved(m) => write!(f, "bad solved response: {m}"),
            ServeViolation::BadSnapshot(m) => write!(f, "bad snapshot response: {m}"),
            ServeViolation::WrongAnswer(m) => write!(f, "wrong answer: {m}"),
            ServeViolation::Mismatch(m) => write!(f, "bitwise mismatch: {m}"),
        }
    }
}

/// Check one response line for internal consistency, independent of any
/// request: parseability, and for solved responses the invariants the
/// solver guarantees (at least one processor, positive makespan, a
/// known strategy name, the hex bit patterns agreeing exactly with the
/// printed floats, step counts consistent with the degraded flag).
pub fn check_response_line(line: &str) -> Vec<ServeViolation> {
    let mut v = Vec::new();
    let resp = match parse_response(line.trim()) {
        Ok(r) => r,
        Err(e) => {
            v.push(ServeViolation::Unparseable(e));
            return v;
        }
    };
    match &resp {
        Response::Stats { body, .. } | Response::Telemetry { body, .. } => {
            check_telemetry_body(body, &mut v);
        }
        Response::Flight { events, .. } => {
            // Per-thread timestamps must be non-decreasing in event
            // order — the journal is sequential on each thread.
            let mut last_ts: Vec<(u64, u64)> = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                if ev.kind.is_empty() {
                    v.push(ServeViolation::BadSnapshot(format!(
                        "flight event {i} has an empty kind"
                    )));
                }
                match last_ts.iter_mut().find(|(tid, _)| *tid == ev.tid) {
                    Some((_, ts)) => {
                        if ev.ts_us < *ts {
                            v.push(ServeViolation::BadSnapshot(format!(
                                "flight event {i} (tid {}) goes back in time: {} < {}",
                                ev.tid, ev.ts_us, ts
                            )));
                        }
                        *ts = ev.ts_us;
                    }
                    None => last_ts.push((ev.tid, ev.ts_us)),
                }
            }
        }
        _ => {}
    }
    if let Response::Solved(s) = resp {
        let mut bad = |m: String| v.push(ServeViolation::BadSolved(m));
        if s.n_procs == 0 {
            bad("n_procs is 0".into());
        }
        if s.steps == 0 {
            bad("a solved response cannot have spent 0 steps".into());
        }
        if !(s.makespan_s.is_finite() && s.makespan_s > 0.0) {
            bad(format!("makespan_s {} is not positive", s.makespan_s));
        }
        if s.makespan_cycles == 0 {
            bad("makespan_cycles is 0".into());
        }
        // `energy_j` is printed with Rust's shortest round-trip Display
        // and re-parsed with str::parse::<f64>, so it must reproduce
        // the exact bit pattern carried in `energy_bits`.
        if f64::from_bits(s.energy_bits) != s.energy_j {
            bad(format!(
                "energy_bits {:016x} does not round-trip to energy_j {}",
                s.energy_bits, s.energy_j
            ));
        }
        if !f64::from_bits(s.freq_bits).is_finite() || f64::from_bits(s.freq_bits) <= 0.0 {
            bad(format!(
                "freq_bits {:016x} is not a positive frequency",
                s.freq_bits
            ));
        }
        if !["ss", "lamps", "ss_ps", "lamps_ps"].contains(&s.strategy.as_str()) {
            bad(format!("unknown strategy name {:?}", s.strategy));
        }
    }
    v
}

/// Compare a served response with the local answer to the same solve
/// request (id `id`, strategy `strategy`) **bit for bit**: the id echo,
/// and for a solved response the strategy name, energy and frequency
/// bit patterns, processor count, makespan, step count and degraded
/// flag; for an error response the error kind. An `overloaded`
/// response passes, since admission control is load-dependent, not
/// wrong.
///
/// Only meaningful when the server ran without a wall-clock request
/// timeout (step budgets are reproducible, time budgets are not).
pub fn check_answer(
    served: &Response,
    id: u64,
    strategy: Strategy,
    local: &Result<BudgetedSolution, SolveError>,
) -> Vec<ServeViolation> {
    let mut v = Vec::new();
    if matches!(served, Response::Overloaded { .. }) {
        return v;
    }
    if served.id() != Some(id) {
        v.push(ServeViolation::WrongAnswer(format!(
            "request id {id} echoed as {:?}",
            served.id()
        )));
    }
    let mut mismatch = |m: String| v.push(ServeViolation::Mismatch(m));
    match (served, local) {
        (Response::Solved(s), Ok(b)) => {
            let wire_name = strategy_wire_name(strategy);
            if s.strategy != wire_name {
                mismatch(format!(
                    "strategy {wire_name:?} answered as {:?}",
                    s.strategy
                ));
            }
            let sol = &b.solution;
            let bits = [
                ("energy_bits", s.energy_bits, sol.energy.total().to_bits()),
                ("freq_bits", s.freq_bits, sol.level.freq.to_bits()),
            ];
            for (name, served, local) in bits {
                if served != local {
                    mismatch(format!("served {name} {served:016x}, local {local:016x}"));
                }
            }
            let counts = [
                ("n_procs", s.n_procs, sol.n_procs as u64),
                ("makespan_cycles", s.makespan_cycles, sol.makespan_cycles),
                ("steps", s.steps, b.steps),
            ];
            for (name, served, local) in counts {
                if served != local {
                    mismatch(format!("served {name} {served}, local {local}"));
                }
            }
            let local_degraded = !b.completeness.is_complete();
            if s.degraded != local_degraded {
                mismatch(format!(
                    "served degraded={}, local degraded={local_degraded}",
                    s.degraded
                ));
            }
        }
        (Response::Error { kind, .. }, Err(e)) => {
            if kind != error_kind(e) {
                mismatch(format!(
                    "served error kind {kind:?}, local {:?}",
                    error_kind(e)
                ));
            }
        }
        (served, Ok(_)) => mismatch(format!("served {served:?} but the local solve succeeded")),
        (served, Err(e)) => mismatch(format!("served {served:?} but the local solve failed: {e}")),
    }
    v
}

/// Replay a request/response exchange: answer the request locally
/// ([`answer`] on a fresh cache, the path a server worker takes) and
/// [`check_answer`] the served response against it, after
/// [`check_response_line`]'s consistency rules. An invalid request must
/// have been answered with an error echoing its id and category;
/// control-op exchanges (ping/stats/shutdown) only check the id echo.
pub fn check_exchange(
    request_line: &str,
    response_line: &str,
    cfg: &SchedulerConfig,
    limits: &Limits,
) -> Vec<ServeViolation> {
    let mut v = check_response_line(response_line);
    let resp = match parse_response(response_line.trim()) {
        Ok(r) => r,
        Err(_) => return v, // already reported
    };
    let req = match parse_request(request_line.trim(), limits) {
        Ok(Request::Solve(req)) => req,
        Ok(
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Telemetry { id }
            | Request::Flight { id, .. }
            | Request::Shutdown { id },
        ) => {
            if resp.id() != Some(id) {
                v.push(ServeViolation::WrongAnswer(format!(
                    "control op id {id} echoed as {:?}",
                    resp.id()
                )));
            }
            return v;
        }
        Err(e) => {
            // The request itself is invalid: the server must have
            // answered with a structured error echoing the same id and
            // category.
            match resp {
                Response::Error { id, kind, .. } if id == e.id && kind == e.kind => {}
                other => v.push(ServeViolation::WrongAnswer(format!(
                    "invalid request ({} {}) answered with {other:?}",
                    e.kind, e.message
                ))),
            }
            return v;
        }
    };
    let mut cache = ScheduleCache::for_graph(&req.graph);
    let (local, _) = answer(&req, &req.budget(None), cfg, &mut cache);
    v.extend(check_answer(&resp, req.id, req.strategy, &local));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve_with_budget_cache, SolveBudget};
    use lamps_serve::protocol::{
        encode_error, encode_solve_request, encode_solved, DeadlineSpec, SolvedResponse,
    };
    use lamps_taskgraph::GraphBuilder;
    use lamps_taskgraph::TaskGraph;

    fn chain() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t0 = b.add_task(3_100_000);
        let t1 = b.add_task(6_200_000);
        b.add_edge(t0, t1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn clean_exchange_has_no_violations() {
        let cfg = SchedulerConfig::paper();
        let g = chain();
        let req = encode_solve_request(5, Strategy::Lamps, DeadlineSpec::Factor(2.0), &g, None);
        let deadline_s = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let b = solve_with_budget_cache(
            Strategy::Lamps,
            deadline_s,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
            &SolveBudget::unlimited(),
        )
        .unwrap();
        let resp = encode_solved(5, Strategy::Lamps, &b);
        assert_eq!(check_response_line(&resp), Vec::new());
        assert_eq!(
            check_exchange(&req, &resp, &cfg, &Limits::default()),
            Vec::new()
        );
    }

    #[test]
    fn wrong_id_and_wrong_bits_are_caught() {
        let cfg = SchedulerConfig::paper();
        let g = chain();
        let req = encode_solve_request(5, Strategy::Lamps, DeadlineSpec::Factor(2.0), &g, None);
        let deadline_s = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let b = solve_with_budget_cache(
            Strategy::Lamps,
            deadline_s,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
            &SolveBudget::unlimited(),
        )
        .unwrap();
        // Wrong id.
        let resp = encode_solved(6, Strategy::Lamps, &b);
        assert!(check_exchange(&req, &resp, &cfg, &Limits::default())
            .iter()
            .any(|v| matches!(v, ServeViolation::WrongAnswer(_))));
        // Wrong strategy answered (different schedule → different bits).
        let b2 = solve_with_budget_cache(
            Strategy::ScheduleStretch,
            deadline_s,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
            &SolveBudget::unlimited(),
        )
        .unwrap();
        let resp = encode_solved(5, Strategy::ScheduleStretch, &b2);
        assert!(!check_exchange(&req, &resp, &cfg, &Limits::default()).is_empty());
    }

    /// Every field the served-vs-local comparison covers, flipped one at
    /// a time, must produce a violation naming it.
    #[test]
    fn check_answer_catches_each_flipped_field() {
        let cfg = SchedulerConfig::paper();
        let g = chain();
        let cpl_s = g.critical_path_cycles() as f64 / cfg.max_frequency();
        let solve = |factor: f64| {
            solve_with_budget_cache(
                Strategy::Lamps,
                factor * cpl_s,
                &cfg,
                &mut ScheduleCache::for_graph(&g),
                &SolveBudget::unlimited(),
            )
        };
        let local = solve(2.0);
        let line = encode_solved(5, Strategy::Lamps, local.as_ref().unwrap());
        let Ok(Response::Solved(clean)) = parse_response(line.trim_end()) else {
            panic!("expected a solved response: {line}");
        };
        let served = Response::Solved(clean.clone());
        assert_eq!(
            check_answer(&served, 5, Strategy::Lamps, &local),
            Vec::new()
        );
        type Flip = fn(&mut SolvedResponse);
        let flips: [(&str, Flip); 8] = [
            ("id", |s| s.id += 1),
            ("strategy", |s| s.strategy = "ss".into()),
            ("energy_bits", |s| s.energy_bits ^= 1),
            ("freq_bits", |s| s.freq_bits ^= 1),
            ("n_procs", |s| s.n_procs += 1),
            ("makespan_cycles", |s| s.makespan_cycles += 1),
            ("steps", |s| s.steps += 1),
            ("degraded", |s| s.degraded = !s.degraded),
        ];
        for (field, flip) in flips {
            let mut s = clean.clone();
            flip(&mut s);
            let v = check_answer(&Response::Solved(s), 5, Strategy::Lamps, &local);
            assert!(
                v.iter().any(|v| v.to_string().contains(field)),
                "flipped {field}: {v:?}"
            );
        }

        // Error answers: the kind and the id echo are compared.
        let infeasible = solve(0.5);
        let error = |id: Option<u64>, kind: &str| Response::Error {
            id,
            kind: kind.to_string(),
            message: String::new(),
        };
        let served = error(Some(5), "infeasible");
        assert_eq!(
            check_answer(&served, 5, Strategy::Lamps, &infeasible),
            Vec::new()
        );
        for kind in ["bad_deadline", "power", "budget_exhausted", "bad_request"] {
            let v = check_answer(&error(Some(5), kind), 5, Strategy::Lamps, &infeasible);
            assert!(
                v.iter().any(|v| v.to_string().contains("error kind")),
                "served {kind}: {v:?}"
            );
        }
        let v = check_answer(&error(None, "infeasible"), 5, Strategy::Lamps, &infeasible);
        assert!(v
            .iter()
            .any(|v| matches!(v, ServeViolation::WrongAnswer(_))));

        // An answer of the wrong sort, either way round.
        assert!(!check_answer(&served, 5, Strategy::Lamps, &local).is_empty());
        let solved = Response::Solved(clean);
        assert!(!check_answer(&solved, 5, Strategy::Lamps, &infeasible).is_empty());

        // Admission control is load-dependent, never a mismatch.
        let overloaded = Response::Overloaded {
            id: 5,
            queue_depth: 64,
        };
        assert_eq!(
            check_answer(&overloaded, 5, Strategy::Lamps, &local),
            Vec::new()
        );
    }

    #[test]
    fn invalid_request_requires_matching_error_echo() {
        let cfg = SchedulerConfig::paper();
        let limits = Limits::default();
        let bad_req =
            "{\"id\":9,\"strategy\":\"warp\",\"deadline_factor\":2,\"graph\":{\"weights\":[1]}}";
        let good_err = encode_error(Some(9), "bad_request", "unknown strategy");
        assert_eq!(
            check_exchange(bad_req, &good_err, &cfg, &limits),
            Vec::new()
        );
        let wrong_kind = encode_error(Some(9), "bad_graph", "unknown strategy");
        assert!(!check_exchange(bad_req, &wrong_kind, &cfg, &limits).is_empty());
    }

    #[test]
    fn clean_telemetry_and_flight_lines_pass() {
        let line = "{\"id\":1,\"status\":\"telemetry\",\
                    \"counters\":{\"serve.requests\":10,\"serve.ok\":8,\"serve.degraded\":1,\"serve.solve_errors\":1},\
                    \"gauges\":{\"serve.queue_depth\":2,\"serve.queue_capacity\":32},\
                    \"histograms\":{\"serve.latency_us\":{\"count\":9,\"sum\":900,\"p50\":80.5,\"p90\":200,\"p99\":300},\
                                    \"empty\":{\"count\":0,\"sum\":0,\"p50\":null,\"p90\":null,\"p99\":null}}}";
        assert_eq!(check_response_line(line), Vec::new());
        let flight = "{\"id\":2,\"status\":\"flight\",\"dropped\":0,\"events\":[\
                      {\"ts_us\":5,\"tid\":0,\"kind\":\"serve.admit\",\"key\":1,\"a\":0,\"b\":0},\
                      {\"ts_us\":9,\"tid\":1,\"kind\":\"serve.solve.start\",\"key\":1,\"a\":0,\"b\":0},\
                      {\"ts_us\":7,\"tid\":0,\"kind\":\"serve.admit\",\"key\":2,\"a\":1,\"b\":0}]}";
        assert_eq!(check_response_line(flight), Vec::new());
    }

    #[test]
    fn snapshot_inconsistencies_are_caught() {
        // Empty histogram reporting a quantile.
        let line = "{\"id\":1,\"status\":\"stats\",\"counters\":{},\"gauges\":{},\
                    \"histograms\":{\"h\":{\"count\":0,\"sum\":0,\"p50\":3,\"p90\":null,\"p99\":null}}}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSnapshot(m) if m.contains("empty"))));
        // Non-monotone quantiles.
        let line = "{\"id\":1,\"status\":\"stats\",\"counters\":{},\"gauges\":{},\
                    \"histograms\":{\"h\":{\"count\":5,\"sum\":50,\"p50\":90,\"p90\":40,\"p99\":100}}}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSnapshot(m) if m.contains("monotone"))));
        // More answers than admissions.
        let line = "{\"id\":1,\"status\":\"stats\",\
                    \"counters\":{\"requests\":3,\"ok\":3,\"degraded\":1,\"solve_errors\":0},\
                    \"gauges\":{},\"histograms\":{}}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSnapshot(m) if m.contains("admitted"))));
        // Queue deeper than its capacity.
        let line = "{\"id\":1,\"status\":\"stats\",\"counters\":{},\
                    \"gauges\":{\"queue_depth\":40,\"queue_capacity\":32},\"histograms\":{}}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSnapshot(m) if m.contains("capacity"))));
        // A thread's clock running backwards in a flight tail.
        let line = "{\"id\":2,\"status\":\"flight\",\"dropped\":0,\"events\":[\
                    {\"ts_us\":9,\"tid\":0,\"kind\":\"serve.admit\",\"key\":1,\"a\":0,\"b\":0},\
                    {\"ts_us\":5,\"tid\":0,\"kind\":\"serve.reply\",\"key\":1,\"a\":0,\"b\":0}]}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSnapshot(m) if m.contains("back in time"))));
    }

    #[test]
    fn tampered_bits_fail_the_structural_check() {
        let line = "{\"id\":1,\"status\":\"ok\",\"strategy\":\"lamps\",\"n_procs\":1,\
                    \"freq_bits\":\"41db035cd585da2c\",\"energy_bits\":\"3f7e5abf1fa8225c\",\
                    \"energy_j\":0.999,\"makespan_cycles\":12,\"makespan_s\":0.006,\"steps\":1}";
        assert!(check_response_line(line)
            .iter()
            .any(|v| matches!(v, ServeViolation::BadSolved(m) if m.contains("round-trip"))));
    }
}
