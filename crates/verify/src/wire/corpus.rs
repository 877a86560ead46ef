//! A deterministic corpus of request lines for the wire decoder, and a
//! fingerprint of what the decoder makes of each.
//!
//! The corpus covers `encode_solve_request` lines over `stg_group`
//! graphs (2 to 1000 tasks, every strategy, both deadline forms, with
//! and without a budget), every op, every [`Limits`] boundary, wrong
//! types for every field, broken graphs, non-strict numbers, duplicate
//! keys, and seeded byte mutations of small valid lines.
//!
//! [`outcome`] reduces a decode result to one line: the decoded
//! request's fields (the graph by a hash of its weights and edges), or
//! the error kind plus the echoed id. The golden file
//! `tests/corpus-wire/requests.golden` holds the outcome of every entry
//! as recorded from the value-tree decoder the streaming one replaced.
//!
//! This file only uses the public protocol API, so it builds against
//! either decoder.

use lamps_core::Strategy;
use lamps_serve::protocol::{encode_solve_request, DeadlineSpec, Limits, ProtoError, Request};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::TaskGraph;

/// One corpus line and the limits it is decoded under.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Limits passed to `parse_request`.
    pub limits: Limits,
    /// The request line, without its newline.
    pub line: String,
}

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a corpus line, to notice a drifting generator.
pub fn line_hash(line: &str) -> u64 {
    fnv(FNV_OFFSET, line.as_bytes())
}

/// Hash of a graph's weights and (deduplicated, ordered) edges.
pub fn graph_hash(g: &TaskGraph) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in g.weights() {
        h = fnv(h, &w.to_le_bytes());
    }
    for (from, to) in g.edges() {
        h = fnv(h, &(from.index() as u64).to_le_bytes());
        h = fnv(h, &(to.index() as u64).to_le_bytes());
    }
    h
}

/// One-line fingerprint of a decode result.
pub fn outcome(r: &Result<Request, ProtoError>) -> String {
    match r {
        Ok(Request::Solve(s)) => {
            let deadline = match s.deadline {
                DeadlineSpec::Seconds(x) => format!("s:{:016x}", x.to_bits()),
                DeadlineSpec::Factor(x) => format!("f:{:016x}", x.to_bits()),
            };
            let budget = match s.budget_steps {
                Some(b) => b.to_string(),
                None => "-".to_string(),
            };
            format!(
                "solve id={} strategy={:?} deadline={deadline} budget={budget} n={} e={} cp={} graph={:016x}",
                s.id,
                s.strategy,
                s.graph.len(),
                s.graph.edge_count(),
                s.graph.critical_path_cycles(),
                graph_hash(&s.graph)
            )
        }
        Ok(Request::Ping { id }) => format!("ping id={id}"),
        Ok(Request::Stats { id }) => format!("stats id={id}"),
        Ok(Request::Telemetry { id }) => format!("telemetry id={id}"),
        Ok(Request::Flight { id, last }) => format!("flight id={id} last={last}"),
        Ok(Request::Shutdown { id }) => format!("shutdown id={id}"),
        Err(e) => match e.id {
            Some(id) => format!("error kind={} id={id}", e.kind),
            None => format!("error kind={} id=-", e.kind),
        },
    }
}

fn push(out: &mut Vec<Entry>, limits: Limits, line: impl Into<String>) {
    out.push(Entry {
        limits,
        line: line.into(),
    });
}

/// A small solve line with `graph` spliced in verbatim.
fn solve_with_graph(id: u64, graph: &str) -> String {
    format!("{{\"id\":{id},\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{graph}}}")
}

/// A small solve line with one member (`key`: `value`) added or
/// overriding the default.
fn solve_with(id: u64, key: &str, value: &str) -> String {
    let mut members = vec![
        ("id", id.to_string()),
        ("strategy", "\"lamps_ps\"".to_string()),
        ("deadline_factor", "2.5".to_string()),
        (
            "graph",
            "{\"weights\":[3100000,6200000,0],\"edges\":[[0,1],[1,2]]}".to_string(),
        ),
    ];
    match members.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value.to_string(),
        None => members.push((key, value.to_string())),
    }
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Values of every JSON type, for wrong-type probes.
const TYPE_PROBES: [&str; 9] = [
    "\"text\"", "true", "null", "[]", "[1]", "{}", "-1", "1.5", "1e400",
];

/// Every corpus entry, in a fixed order.
pub fn corpus() -> Vec<Entry> {
    let d = Limits::default();
    let mut out = Vec::new();

    // Encoded solve lines over STG-style graphs.
    let mut id = 0u64;
    for (n, count) in [(2usize, 2usize), (10, 3), (50, 3), (200, 2), (1000, 2)] {
        for (gi, g) in stg_group(n, count, 2006 + n as u64).iter().enumerate() {
            for (si, strategy) in Strategy::all().into_iter().enumerate() {
                if (gi + si) % 2 == 1 && n >= 200 {
                    continue;
                }
                id += 1;
                let deadline = if si % 2 == 0 {
                    DeadlineSpec::Factor(1.0 + 0.37 * (si + gi) as f64)
                } else {
                    DeadlineSpec::Seconds(0.001 * (1 + gi + si) as f64)
                };
                let budget = (gi % 2 == 1).then_some(7 + si as u64);
                let line = encode_solve_request(id, strategy, deadline, g, budget);
                push(&mut out, d, line.trim_end());
            }
        }
    }

    // Every op, and the flight `last` boundaries.
    for op in [
        "ping",
        "stats",
        "telemetry",
        "shutdown",
        "flight",
        "solve",
        "nope",
        "PING",
    ] {
        push(&mut out, d, format!("{{\"id\":3,\"op\":\"{op}\"}}"));
    }
    for last in [
        "1", "256", "65536", "0", "65537", "1.5", "-1", "\"7\"", "null", "1e3", "1e400",
    ] {
        push(
            &mut out,
            d,
            format!("{{\"id\":4,\"op\":\"flight\",\"last\":{last}}}"),
        );
    }
    for op in TYPE_PROBES {
        push(&mut out, d, format!("{{\"id\":5,\"op\":{op}}}"));
    }
    // Control ops ignore every other member, even broken ones.
    push(
        &mut out,
        d,
        "{\"id\":6,\"op\":\"ping\",\"graph\":{\"weights\":\"x\"},\"strategy\":7}",
    );
    push(
        &mut out,
        d,
        "{\"graph\":[],\"op\":\"stats\",\"deadline_s\":-1,\"id\":6}",
    );

    // Ids at and past the exactly representable range.
    for idv in [
        "0",
        "1",
        "9007199254740992",
        "9007199254740993",
        "9007199254740994",
        "-0",
        "0.0",
        "1e2",
        "-1",
        "1.5",
        "1e400",
        "\"1\"",
        "null",
        "true",
        "[1]",
        "{}",
    ] {
        push(&mut out, d, format!("{{\"id\":{idv},\"op\":\"ping\"}}"));
    }
    push(&mut out, d, "{\"op\":\"ping\"}");

    // Wrong types and edge values for every solve member.
    for key in [
        "strategy",
        "deadline_s",
        "deadline_factor",
        "budget_steps",
        "graph",
    ] {
        for v in TYPE_PROBES {
            id += 1;
            push(&mut out, d, solve_with(id, key, v));
        }
    }
    for strategy in [
        "ss",
        "lamps",
        "ss_ps",
        "lamps_ps",
        "LAMPS",
        "",
        "lamps\\u005fps",
    ] {
        id += 1;
        push(
            &mut out,
            d,
            solve_with(id, "strategy", &format!("\"{strategy}\"")),
        );
    }
    for v in [
        "0",
        "-0",
        "1e-400",
        "2",
        "0.001",
        "1e308",
        "4.9e-324",
        "9007199254740993",
    ] {
        id += 1;
        push(&mut out, d, solve_with(id, "deadline_factor", v));
        id += 1;
        push(&mut out, d, solve_with(id, "deadline_s", v));
    }
    id += 1;
    push(&mut out, d, solve_with(id, "deadline_s", "0.5"));
    for v in [
        "0",
        "1",
        "9007199254740992",
        "9007199254740993",
        "1e20",
        "1.0",
    ] {
        id += 1;
        push(&mut out, d, solve_with(id, "budget_steps", v));
    }
    id += 1;
    push(
        &mut out,
        d,
        format!("{{\"id\":{id},\"strategy\":\"lamps\",\"graph\":{{\"weights\":[1]}}}}"),
    );
    id += 1;
    push(
        &mut out,
        d,
        format!("{{\"id\":{id},\"deadline_factor\":2,\"graph\":{{\"weights\":[1]}}}}"),
    );
    id += 1;
    push(
        &mut out,
        d,
        format!("{{\"id\":{id},\"strategy\":\"lamps\",\"deadline_factor\":2}}"),
    );

    // Graph shapes: empty, broken entries, cycles, member order.
    for graph in [
        "{\"weights\":[5]}",
        "{\"weights\":[5],\"edges\":[]}",
        "{\"weights\":[]}",
        "{\"edges\":[[0,1]]}",
        "{}",
        "{\"weights\":null}",
        "{\"weights\":[1,2],\"edges\":null}",
        "{\"weights\":[1,2],\"edges\":{}}",
        "{\"weights\":[1,-2]}",
        "{\"weights\":[1,2.5]}",
        "{\"weights\":[1,\"2\"]}",
        "{\"weights\":[1,[2]]}",
        "{\"weights\":[1,1e400]}",
        "{\"weights\":[9007199254740992,0]}",
        "{\"weights\":[9007199254740993]}",
        "{\"weights\":[9007199254740994]}",
        "{\"weights\":[1e3,2E1,3.0]}",
        "{\"weights\":[-0]}",
        "{\"weights\":[1,2],\"edges\":[[0,0]]}",
        "{\"weights\":[1,2],\"edges\":[[0,1],[1,0]]}",
        "{\"weights\":[1,2],\"edges\":[[0,2]]}",
        "{\"weights\":[1,2],\"edges\":[[-1,1]]}",
        "{\"weights\":[1,2],\"edges\":[[0.5,1]]}",
        "{\"weights\":[1,2],\"edges\":[[0]]}",
        "{\"weights\":[1,2],\"edges\":[[0,1,1]]}",
        "{\"weights\":[1,2],\"edges\":[[0,\"1\"]]}",
        "{\"weights\":[1,2],\"edges\":[0,1]}",
        "{\"weights\":[1,2],\"edges\":[[]]}",
        "{\"weights\":[1,2],\"edges\":[[0,1],[0,1]]}",
        "{\"weights\":[1,2],\"edges\":[[1e0,1]]}",
        "{\"weights\":[1,2],\"edges\":[[-0,1]]}",
        "{\"edges\":[[0,1]],\"weights\":[1,2]}",
        "{\"edges\":[[0,2]],\"weights\":[1,2]}",
        "{\"edges\":[[1,1]],\"weights\":[1,2]}",
        "{\"edges\":\"x\",\"weights\":[1,2]}",
        "{\"weights\":[1,2],\"edges\":[[0,1]],\"names\":[\"a\",\"b\"]}",
        "{\"weights\":[1,2],\"meta\":{\"deep\":[[[{\"x\":null}]]]}}",
        "[]",
        "\"graph\"",
        "7",
    ] {
        id += 1;
        push(&mut out, d, solve_with_graph(id, graph));
    }

    // Limits boundaries: tasks and edges at, one under and one over.
    let g = &stg_group(40, 1, 77)[0];
    let (n, e) = (g.len(), g.edge_count());
    for (max_tasks, max_edges) in [
        (n, e),
        (n - 1, e),
        (n, e - 1),
        (n + 1, e + 1),
        (1, 0),
        (0, 0),
        (n, 0),
    ] {
        let limits = Limits {
            max_tasks,
            max_edges,
            ..d
        };
        id += 1;
        let line = encode_solve_request(id, Strategy::Lamps, DeadlineSpec::Factor(2.0), g, None);
        push(&mut out, limits, line.trim_end());
    }
    let tiny = Limits {
        max_tasks: 2,
        max_edges: 1,
        ..d
    };
    for graph in [
        "{\"weights\":[1,2]}",
        "{\"weights\":[1,2,3]}",
        "{\"weights\":[1,2],\"edges\":[[0,1]]}",
        "{\"weights\":[1,2],\"edges\":[[0,1],[0,1]]}",
        "{\"weights\":[1,2,\"x\"]}",
        "{\"weights\":[1,2],\"edges\":[[0,1],\"x\"]}",
        "{\"edges\":[[0,1],[0,1]],\"weights\":[1,2]}",
    ] {
        id += 1;
        push(&mut out, tiny, solve_with_graph(id, graph));
    }
    // Control ops are not subject to the graph limits.
    push(
        &mut out,
        tiny,
        "{\"id\":8,\"op\":\"ping\",\"graph\":{\"weights\":[1,2,3,4]}}",
    );

    // Syntax: broken documents, whitespace, escapes, nesting.
    for line in [
        "",
        "not json",
        "{",
        "{\"id\":1",
        "{\"id\":1,}",
        "{\"id\":1 \"op\":\"ping\"}",
        "{\"id\":1,\"op\":\"ping\"}x",
        "{\"id\":1,\"op\":\"ping\"} {}",
        "{\"id\":1,\"op\":\"ping\"}}",
        " \t{ \"id\" : 1 , \"op\" : \"ping\" } \r",
        "{\"i\\u0064\":1,\"op\":\"p\\u0069ng\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"\\u00e9\\n\\\"\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"\\ud800\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"\\udc00\\ud800\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"\\ud83d\\ude00\"}",
        "{\"id\":2,\"op\":\"\\ud834\\udd1e\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"\\q\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":\"tab\there\"}",
        "{\"id\":1,\"op\":\"ping\",\"x\":tru}",
        "{\"id\":1,\"op\":\"ping\",\"x\":NaN}",
        "{\"id\":1,\"op\":\"ping\",\"x\":Infinity}",
        "{\"id\":1,\"op\":\"ping\",\"x\":-Infinity}",
        "{\"id\":1,\"op\":\"ping\",\"x\":1e5e5}",
        "{\"id\":1,\"op\":\"ping\",\"x\":1-2}",
        "{\"id\":1,\"op\":\"ping\",\"x\":-}",
        "{\"id\":1,\"op\":\"ping\",\"x\":0x10}",
        "{id:1,\"op\":\"ping\"}",
        "{'id':1}",
        "[1,2]",
        "\"id\"",
        "42",
        "null",
        "{\"id\":1,\"op\":\"ping\",\"é\":\"ü\"}",
    ] {
        push(&mut out, d, line);
    }
    for depth in [62usize, 63, 64, 65, 70] {
        let nested = "[".repeat(depth) + &"]".repeat(depth);
        push(
            &mut out,
            d,
            format!("{{\"id\":9,\"op\":\"ping\",\"x\":{nested}}}"),
        );
        let nested = "[".repeat(depth) + "0" + &"]".repeat(depth);
        push(
            &mut out,
            d,
            format!("{{\"id\":9,\"op\":\"ping\",\"x\":{nested}}}"),
        );
    }

    // Non-strict numbers, each in a field the decoder reads.
    for num in ["05", "00", "2.", "-.0", "1.e0", "+1", ".5", "1.5e", "01.0"] {
        push(&mut out, d, format!("{{\"id\":{num},\"op\":\"ping\"}}"));
        id += 1;
        push(&mut out, d, solve_with(id, "deadline_factor", num));
        id += 1;
        push(
            &mut out,
            d,
            solve_with_graph(id, &format!("{{\"weights\":[{num},1]}}")),
        );
        push(
            &mut out,
            d,
            format!("{{\"id\":10,\"op\":\"ping\",\"unused\":{num}}}"),
        );
    }

    // Duplicate keys at both levels the schema defines.
    for (key, value) in [
        ("id", "99"),
        ("op", "\"solve\""),
        ("strategy", "\"ss\""),
        ("deadline_factor", "3"),
        ("deadline_s", "0.1"),
        ("budget_steps", "4"),
        ("graph", "{\"weights\":[7]}"),
    ] {
        id += 1;
        let line = solve_with(id, key, value);
        push(
            &mut out,
            d,
            format!("{},\"{key}\":{value}}}", &line[..line.len() - 1]),
        );
    }
    for graph in [
        "{\"weights\":[1],\"weights\":[2]}",
        "{\"weights\":[1,2],\"edges\":[],\"edges\":[[0,1]]}",
        "{\"weights\":[1],\"x\":1,\"x\":2}",
    ] {
        id += 1;
        push(&mut out, d, solve_with_graph(id, graph));
    }
    push(&mut out, d, "{\"id\":11,\"op\":\"ping\",\"op\":\"ping\"}");
    push(
        &mut out,
        d,
        "{\"id\":12,\"op\":\"flight\",\"last\":1,\"last\":2}",
    );
    push(&mut out, d, "{\"id\":13,\"op\":\"ping\",\"x\":1,\"x\":1}");

    // Byte mutations of small valid lines.
    let bases: Vec<String> = out
        .iter()
        .filter(|e| e.line.len() < 400 && e.line.starts_with("{\"id\":"))
        .take(12)
        .map(|e| e.line.clone())
        .chain([
            solve_with(500, "budget_steps", "3"),
            "{\"id\":501,\"op\":\"flight\",\"last\":9}".to_string(),
        ])
        .collect();
    let mut rng = Rng::seed_from_u64(0x5749_5245);
    for _ in 0..400 {
        let base = &bases[rng.gen_range(0..bases.len())];
        push(&mut out, d, mutate(&mut rng, base));
    }
    out
}

/// Bytes mutations insert or substitute: JSON structure, digits,
/// number punctuation, escape letters and one non-ASCII character.
const MUTATION_ALPHABET: &[&str] = &[
    "{", "}", "[", "]", ",", ":", "\"", "\\", "0", "1", "9", ".", "-", "+", "e", "E", " ", "u",
    "n", "t", "x", "é",
];

/// One seeded mutation of `base` (always valid UTF-8).
pub fn mutate(rng: &mut Rng, base: &str) -> String {
    let cut = |rng: &mut Rng| -> usize {
        let mut at = rng.gen_range(0..base.len() + 1);
        while !base.is_char_boundary(at) {
            at -= 1;
        }
        at
    };
    let pick = |rng: &mut Rng| MUTATION_ALPHABET[rng.gen_range(0..MUTATION_ALPHABET.len())];
    let at = cut(rng);
    match rng.gen_range(0..5u32) {
        // Substitute the character at `at`.
        0 => {
            let next = base[at..].chars().next().map_or(0, char::len_utf8);
            format!("{}{}{}", &base[..at], pick(rng), &base[at + next..])
        }
        // Delete the character at `at`.
        1 => {
            let next = base[at..].chars().next().map_or(0, char::len_utf8);
            format!("{}{}", &base[..at], &base[at + next..])
        }
        // Insert at `at`.
        2 => format!("{}{}{}", &base[..at], pick(rng), &base[at..]),
        // Truncate at `at`.
        3 => base[..at].to_string(),
        // Duplicate a span after itself.
        _ => {
            let other = cut(rng);
            let (lo, hi) = (at.min(other), at.max(other));
            format!("{}{}", &base[..hi], &base[lo..])
        }
    }
}
