//! The wire encoders against the `format!`-based encoders they
//! replaced, byte for byte.
//!
//! The oracles below are the encoders as they were before integers went
//! through `lamps_obs::json::write_u64`/`write_hex64`; they live only
//! here. Every request line must also decode back into the graph it
//! was encoded from, so equal bytes cannot hide a shared mistake.

use lamps_core::cache::ScheduleCache;
use lamps_core::{BudgetedSolution, Completeness, SchedulerConfig, Strategy};
use lamps_obs::FlightEvent;
use lamps_serve::protocol::{
    answer, encode_flight, encode_overloaded, encode_pong, encode_shutdown_ack,
    encode_solve_request, encode_solved, encode_telemetry_body, parse_request, strategy_wire_name,
    DeadlineSpec, HistogramSummary, Limits, Request, TelemetryBody,
};
use lamps_taskgraph::apps::proxies;
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};
use lamps_verify::wire::corpus::corpus;
use std::fmt::Write as _;

/// The request encoder before `write_u64`: one `write!` per number.
fn oracle_solve_request(
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

/// The solved-response encoder before `write_u64`/`write_hex64`.
fn oracle_solved(req_id: u64, strategy: Strategy, b: &BudgetedSolution) -> String {
    let s = &b.solution;
    let mut out = String::with_capacity(384);
    let _ = write!(out, "{{\"id\":{req_id}");
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

/// The `stats`/`telemetry` encoder before `write_u64`.
fn oracle_telemetry_body(id: u64, status: &str, body: &TelemetryBody) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"id\":{id},\"status\":\"{status}\",\"counters\":{{");
    for (i, (name, value)) in body.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        lamps_obs::json::write_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, value)) in body.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        lamps_obs::json::write_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("},\"histograms\":{");
    for (i, h) in body.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        lamps_obs::json::write_string(&mut out, &h.name);
        let _ = write!(out, ":{{\"count\":{},\"sum\":{}", h.count, h.sum);
        for (key, q) in [("p50", h.p50), ("p90", h.p90), ("p99", h.p99)] {
            let _ = write!(out, ",\"{key}\":");
            match q {
                Some(v) => lamps_obs::json::write_f64(&mut out, v),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

/// The flight encoders (response and per-event) before `write_u64`.
fn oracle_flight(id: u64, events: &[FlightEvent], dropped: u64) -> String {
    let mut out = format!("{{\"id\":{id},\"status\":\"flight\",\"dropped\":{dropped},\"events\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"ts_us\": {}, \"tid\": {}, \"kind\": ",
            ev.ts_us, ev.tid
        );
        lamps_obs::json::write_string(&mut out, ev.kind);
        let _ = write!(
            out,
            ", \"key\": {}, \"a\": {}, \"b\": {}}}",
            ev.key, ev.a, ev.b
        );
    }
    out.push_str("]}\n");
    out
}

/// A chain of `n` tasks whose middle task weighs `u64::MAX` (the rest
/// weigh 0, so the total work still fits), plus a skip edge per task:
/// the widest weight and the widest indices a graph can carry.
fn max_weight_graph(n: u32) -> TaskGraph {
    let mut b = GraphBuilder::with_capacity(n as usize, 2 * n as usize);
    for i in 0..n {
        b.add_task(if i == n / 2 { u64::MAX } else { 0 });
    }
    for i in 0..n.saturating_sub(1) {
        b.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        if i + 2 < n {
            b.add_edge(TaskId(i), TaskId(n - 1)).unwrap();
        }
    }
    b.build().unwrap()
}

/// Every request form: ids 0 and 2^53, both deadline kinds, with and
/// without a budget, every strategy.
fn request_forms() -> Vec<(u64, Strategy, DeadlineSpec, Option<u64>)> {
    let mut forms = Vec::new();
    for (i, strategy) in Strategy::all().into_iter().enumerate() {
        for id in [0, 1 << 53] {
            for deadline in [
                DeadlineSpec::Factor(1.0 + 0.37 * i as f64),
                DeadlineSpec::Seconds(0.001 * (1 + i) as f64),
            ] {
                for budget in [None, Some(7 + i as u64)] {
                    forms.push((id, strategy, deadline, budget));
                }
            }
        }
    }
    forms
}

#[test]
fn solve_requests_match_the_format_encoder_and_decode_back() {
    let mut graphs: Vec<(String, TaskGraph)> = Vec::new();
    for n in [10, 50, 200, 1000, 5000] {
        for (i, g) in stg_group(n, 2, 2006 + n as u64).into_iter().enumerate() {
            graphs.push((format!("stg_group({n})[{i}]"), g));
        }
    }
    graphs.extend(
        proxies::all()
            .into_iter()
            .map(|(name, g)| (name.to_string(), g)),
    );
    let forms = request_forms();
    for (name, g) in &graphs {
        let limits = Limits {
            max_tasks: g.len(),
            max_edges: g.edge_count(),
            ..Limits::default()
        };
        for &(id, strategy, deadline, budget) in &forms {
            let line = encode_solve_request(id, strategy, deadline, g, budget);
            assert!(
                line == oracle_solve_request(id, strategy, deadline, g, budget),
                "{name}: id {id}, {strategy:?}, {deadline:?}, budget {budget:?}: line differs"
            );
            let Ok(Request::Solve(req)) = parse_request(line.trim_end(), &limits) else {
                panic!("{name}: id {id}: the line does not decode as a solve request");
            };
            assert_eq!(
                (req.id, req.strategy, req.deadline, req.budget_steps),
                (id, strategy, deadline, budget),
                "{name}"
            );
            assert_eq!(req.graph.weights(), g.weights(), "{name}: weights");
            assert!(req.graph.edges().eq(g.edges()), "{name}: edges");
        }
    }

    // Weights past 2^53 do not survive a JSON number, so the decoder
    // refuses them; the encoder still writes every digit.
    for n in [1, 10, 1000] {
        let g = max_weight_graph(n);
        for &(id, strategy, deadline, budget) in &forms {
            let line = encode_solve_request(id, strategy, deadline, &g, budget);
            assert!(line.contains(&u64::MAX.to_string()));
            assert!(
                line == oracle_solve_request(id, strategy, deadline, &g, budget),
                "max-weight graph of {n}: id {id}, {deadline:?}, budget {budget:?}: line differs"
            );
            assert!(parse_request(line.trim_end(), &Limits::default()).is_err());
        }
    }
}

#[test]
fn solved_responses_to_the_wire_corpus_match_the_format_encoder() {
    let cfg = SchedulerConfig::paper();
    let (mut ok, mut degraded) = (0, 0);
    for entry in corpus() {
        let Ok(Request::Solve(req)) = parse_request(&entry.line, &entry.limits) else {
            continue;
        };
        let mut cache = ScheduleCache::for_graph(&req.graph);
        let (Ok(b), _) = answer(&req, &req.budget(None), &cfg, &mut cache) else {
            continue;
        };
        if b.completeness.is_complete() {
            ok += 1;
        } else {
            degraded += 1;
        }
        for id in [req.id, 0, 1 << 53] {
            assert_eq!(
                encode_solved(id, req.strategy, &b),
                oracle_solved(id, req.strategy, &b),
                "corpus line {}",
                entry.line.get(..80).unwrap_or(&entry.line)
            );
        }
    }
    assert!(
        ok > 0 && degraded > 0,
        "{ok} complete and {degraded} degraded answers"
    );
}

#[test]
fn control_and_observability_replies_match_the_format_encoders() {
    let edge_values = [0, 1, 9, 10, 99, 100, 1 << 53, u64::MAX];
    for &id in &edge_values {
        assert_eq!(
            encode_pong(id),
            format!("{{\"id\":{id},\"status\":\"pong\"}}\n")
        );
        assert_eq!(
            encode_shutdown_ack(id),
            format!("{{\"id\":{id},\"status\":\"shutting_down\"}}\n")
        );
        for &depth in &edge_values {
            let (depth, cap) = (depth as usize, (id ^ depth) as usize);
            assert_eq!(
                encode_overloaded(id, depth, cap),
                format!(
                    "{{\"id\":{id},\"status\":\"overloaded\",\"queue_depth\":{depth},\"queue_capacity\":{cap}}}\n"
                )
            );
        }
    }

    let body = TelemetryBody {
        counters: edge_values
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("c{i}\"q"), v))
            .collect(),
        gauges: vec![("g".into(), 0), ("h".into(), u64::MAX)],
        histograms: vec![
            HistogramSummary {
                name: "empty".into(),
                count: 0,
                sum: 0,
                p50: None,
                p90: None,
                p99: None,
            },
            HistogramSummary::from_buckets(
                "lat".into(),
                12,
                u64::MAX,
                &[(0, 1), (8, 4), (1 << 40, 7)],
            ),
        ],
    };
    for status in ["stats", "telemetry"] {
        for id in [0, 1 << 53] {
            assert_eq!(
                encode_telemetry_body(id, status, &body),
                oracle_telemetry_body(id, status, &body)
            );
            assert_eq!(
                encode_telemetry_body(id, status, &TelemetryBody::default()),
                oracle_telemetry_body(id, status, &TelemetryBody::default())
            );
        }
    }

    let events: Vec<FlightEvent> = edge_values
        .iter()
        .enumerate()
        .map(|(i, &v)| FlightEvent {
            ts_us: v,
            tid: i as u64,
            kind: lamps_obs::flight::SERVE_SOLVE_DONE,
            key: u64::MAX - v,
            a: v / 3,
            b: v.rotate_left(7),
        })
        .collect();
    for dropped in [0, 12_345, u64::MAX] {
        assert_eq!(
            encode_flight(7, &events, dropped),
            oracle_flight(7, &events, dropped)
        );
        assert_eq!(
            encode_flight(7, &[], dropped),
            oracle_flight(7, &[], dropped)
        );
    }
}
