//! Wire fuzzer for the `lamps-serve` request decoder.
//!
//! Each iteration derives its own seed from the run seed (SplitMix64)
//! and builds one request line in one of two ways:
//!
//! * **grammar-generated**: a request object whose every member is drawn
//!   from valid values, boundary values and wrong types — ids and
//!   weights at and past 2⁵³, negative, fractional and out-of-range
//!   numbers (`1e400`), non-JSON numbers (`05`, `NaN`), strings with
//!   escapes, surrogate pairs and lone surrogates, unknown members
//!   nested past the 64-level depth cap, duplicated members, shuffled
//!   member order and whitespace, random [`Limits`] around the graph's
//!   size — then sometimes truncated;
//! * **mutated**: one to three byte mutations
//!   ([`corpus::mutate`]) of a small line of the golden corpus.
//!
//! [`check_line`] then asserts, for that line:
//!
//! * decoding never panics;
//! * decoding twice gives the same outcome (the same error kind for the
//!   same input);
//! * the streaming decoder and [`lamps_obs::json::parse`] agree on the
//!   grammar: the line is `malformed_json` exactly when the value tree
//!   rejects it;
//! * an echoed id is the document's `id` member;
//! * every decoded request survives encode∘decode: [`encode_request`]
//!   renders it, and decoding that line gives the same outcome
//!   (for solves, the same id, strategy, deadline bits, budget and
//!   graph).
//!
//! [`daemon_lines`] hands the same stream out as raw bytes for driving a
//! live daemon, with invalid UTF-8 mixed into the byte mutations.

pub mod corpus;

use lamps_obs::json::{self, Value};
use lamps_serve::protocol::{encode_request, parse_request, Limits, Request};
use lamps_taskgraph::rng::{splitmix64, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Wire-fuzz budget.
#[derive(Debug, Clone, Copy)]
pub struct WireFuzzConfig {
    /// Number of lines to generate and check.
    pub iterations: u64,
    /// Run seed; every per-iteration seed derives from it.
    pub seed: u64,
}

/// A line that broke an invariant.
#[derive(Debug, Clone)]
pub struct WireFailure {
    /// Seed of the failing iteration.
    pub seed: u64,
    /// The offending line.
    pub line: String,
    /// The limits it was decoded under.
    pub limits: Limits,
    /// What went wrong.
    pub violation: String,
}

/// Outcome of a wire-fuzz run.
#[derive(Debug, Clone, Default)]
pub struct WireFuzzOutcome {
    /// Lines checked (including the failing one, if any).
    pub iterations_run: u64,
    /// Lines that decoded to a request (and were round-tripped).
    pub decoded: u64,
    /// Lines rejected as `malformed_json`.
    pub malformed: u64,
    /// Lines rejected as `bad_request`.
    pub bad_request: u64,
    /// Lines rejected as `bad_graph`.
    pub bad_graph: u64,
    /// The first failure, if any (the run stops at the first).
    pub failure: Option<WireFailure>,
}

impl WireFuzzOutcome {
    /// Whether the run finished with zero violations.
    pub fn is_clean(&self) -> bool {
        self.failure.is_none()
    }
}

/// Decode `line` under every invariant in the module doc. `Ok` carries
/// the outcome's error kind (`None` for a decoded request).
pub fn check_line(line: &str, limits: &Limits) -> Result<Option<&'static str>, String> {
    let decode = || catch_unwind(AssertUnwindSafe(|| parse_request(line, limits)));
    let first = decode().map_err(|_| "parse_request panicked".to_string())?;
    let again = decode().map_err(|_| "parse_request panicked on a second run".to_string())?;
    let outcome = corpus::outcome(&first);
    if corpus::outcome(&again) != outcome {
        return Err(format!(
            "two decodes disagree: {outcome} vs {}",
            corpus::outcome(&again)
        ));
    }
    let tree = catch_unwind(AssertUnwindSafe(|| json::parse(line)))
        .map_err(|_| "json::parse panicked".to_string())?;
    let malformed = matches!(&first, Err(e) if e.kind == "malformed_json");
    if malformed != tree.is_err() {
        return Err(format!(
            "grammar disagreement: decoder says {outcome}, value tree says {:?}",
            tree.as_ref().err()
        ));
    }
    match &first {
        Err(e) => {
            if !["malformed_json", "bad_request", "bad_graph"].contains(&e.kind) {
                return Err(format!("unexpected error kind {}", e.kind));
            }
            if let Some(id) = e.id {
                let member = tree.as_ref().ok().and_then(|v| v.get("id"));
                if member != Some(&Value::Number(id as f64)) {
                    return Err(format!(
                        "echoed id {id} but the document's id is {member:?}"
                    ));
                }
            }
            Ok(Some(e.kind))
        }
        Ok(req) => {
            let encoded = encode_request(req);
            let back = catch_unwind(AssertUnwindSafe(|| {
                parse_request(encoded.trim_end(), limits)
            }))
            .map_err(|_| "parse_request panicked on a re-encoded request".to_string())?;
            let round = corpus::outcome(&back);
            if round != outcome {
                return Err(format!(
                    "encode∘decode changed the request: {outcome} became {round}"
                ));
            }
            if let Request::Solve(s) = req {
                if s.graph.len() > limits.max_tasks || s.graph.edge_count() > limits.max_edges {
                    return Err("a decoded graph exceeds the limits".into());
                }
            }
            Ok(None)
        }
    }
}

/// The lines byte mutations start from: the corpus lines of at most
/// 2 KiB.
fn mutation_bases() -> Vec<String> {
    corpus::corpus()
        .into_iter()
        .filter(|e| e.line.len() <= 2048)
        .map(|e| e.line)
        .collect()
}

/// One line of the fuzz stream.
struct FuzzLine {
    /// The iteration's own seed.
    seed: u64,
    /// The iteration's generator, past the draws that built the line.
    rng: Rng,
    line: String,
    limits: Limits,
    /// Whether the line is a byte mutation of a corpus line.
    mutated: bool,
}

/// Line `it` of the fuzz stream from run seed `seed`.
fn fuzz_line(seed: u64, it: u64, bases: &[String]) -> FuzzLine {
    let mut sm = seed.wrapping_add(it.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let iter_seed = splitmix64(&mut sm);
    let mut rng = Rng::seed_from_u64(iter_seed);
    let mutated = !rng.gen_bool(0.5);
    let (line, limits) = if mutated {
        let mut line = bases[rng.gen_range(0..bases.len())].clone();
        for _ in 0..rng.gen_range(1..4usize) {
            line = corpus::mutate(&mut rng, &line);
        }
        (line, Limits::default())
    } else {
        gen_request(&mut rng)
    };
    FuzzLine {
        seed: iter_seed,
        rng,
        line,
        limits,
        mutated,
    }
}

/// Run the wire fuzzer: `iterations` lines from `seed`, stopping at the
/// first violation.
pub fn run_wire(cfg: &WireFuzzConfig) -> WireFuzzOutcome {
    let bases = mutation_bases();
    let mut out = WireFuzzOutcome::default();
    for it in 0..cfg.iterations {
        let FuzzLine {
            seed, line, limits, ..
        } = fuzz_line(cfg.seed, it, &bases);
        out.iterations_run += 1;
        match check_line(&line, &limits) {
            Ok(None) => out.decoded += 1,
            Ok(Some("malformed_json")) => out.malformed += 1,
            Ok(Some("bad_request")) => out.bad_request += 1,
            Ok(Some(_)) => out.bad_graph += 1,
            Err(violation) => {
                out.failure = Some(WireFailure {
                    seed,
                    line,
                    limits,
                    violation,
                });
                break;
            }
        }
    }
    out
}

/// Bytes that make a line invalid UTF-8 wherever they land (or almost:
/// a continuation byte can complete a truncated character).
const NOT_UTF8: &[u8] = &[0x80, 0xBF, 0xC0, 0xC3, 0xE2, 0xED, 0xF4, 0xF8, 0xFE, 0xFF];

/// The first `count` lines of the fuzz stream from `seed`, as raw bytes
/// for a live daemon's socket, one request per line: a byte-mutated
/// line is cut at its first `\n`, and a grammar-generated one has each
/// `\n` of its JSON whitespace turned into a space. Half of the
/// byte-mutated lines also get one byte from outside UTF-8. Each line is
/// meant to be decoded under the daemon's [`Limits`], not the ones the
/// stream drew for it.
pub fn daemon_lines(seed: u64, count: u64) -> Vec<Vec<u8>> {
    let bases = mutation_bases();
    (0..count)
        .map(|it| {
            let FuzzLine {
                mut rng,
                line,
                mutated,
                ..
            } = fuzz_line(seed, it, &bases);
            let mut bytes = line.into_bytes();
            if mutated && rng.gen_bool(0.5) {
                let at = rng.gen_range(0..bytes.len() + 1);
                bytes.insert(at, NOT_UTF8[rng.gen_range(0..NOT_UTF8.len())]);
            }
            if !mutated {
                bytes
                    .iter_mut()
                    .filter(|b| **b == b'\n')
                    .for_each(|b| *b = b' ');
            } else if let Some(nl) = bytes.iter().position(|&b| b == b'\n') {
                bytes.truncate(nl);
            }
            bytes
        })
        .collect()
}

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.gen_range(0..options.len())]
}

/// Numbers at the interesting edges: exact-integer boundaries, signs,
/// fractions, exponents and overflow to infinity.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "-0",
    "-1",
    "0.5",
    "1.0",
    "2.5",
    "1e3",
    "1E+2",
    "3e-2",
    "-2.5e3",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "18446744073709551616",
    "123456789012345678901234567890",
    "1e400",
    "-1e400",
    "1e-400",
    "4.9e-324",
    "65536",
    "65537",
];

/// Number spellings JSON forbids.
const LAX_NUMBERS: &[&str] = &["05", "2.", "-.0", "1.e0", "+1", "NaN", "Infinity", "-"];

/// Strings: valid, escaped, astral, lone surrogates, broken escapes.
const STRINGS: &[&str] = &[
    "\"\"",
    "\"lamps\"",
    "\"ss_ps\"",
    "\"l\\u0061mps\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud800\"",
    "\"\\udc00\"",
    "\"\\ud800\\u0041\"",
    "\"tab\\there\"",
    "\"\\x\"",
    "\"é\"",
    "\"\\u12\"",
];

/// A value of a random type for a member whose type is wrong on purpose.
fn any_value(rng: &mut Rng) -> String {
    match rng.gen_range(0..6u32) {
        0 => pick(rng, NUMBERS).to_string(),
        1 => pick(rng, STRINGS).to_string(),
        2 => pick(rng, &["true", "false", "null"]).to_string(),
        3 => "[1,[2],{}]".to_string(),
        4 => "{\"a\":1}".to_string(),
        _ => nested(rng.gen_range(60..70usize)),
    }
}

/// `depth` nested arrays/objects around a scalar.
fn nested(depth: usize) -> String {
    let mut s = String::from("0");
    for level in 0..depth {
        s = if level % 2 == 0 {
            format!("[{s}]")
        } else {
            format!("{{\"k\":{s}}}")
        };
    }
    s
}

/// A grammar-generated request line and the limits to decode it under.
fn gen_request(rng: &mut Rng) -> (String, Limits) {
    let mut members: Vec<(String, String)> = Vec::new();
    let id = rng.gen_range(0..1000u64).to_string();
    member(rng, "id", id, &mut members);
    let op = pick(
        rng,
        &[
            "\"solve\"",
            "\"solve\"",
            "\"ping\"",
            "\"stats\"",
            "\"telemetry\"",
            "\"flight\"",
            "\"shutdown\"",
            "\"nope\"",
        ],
    )
    .to_string();
    member(rng, "op", op, &mut members);
    let strategy = pick(
        rng,
        &[
            "\"ss\"",
            "\"lamps\"",
            "\"ss_ps\"",
            "\"lamps_ps\"",
            "\"warp\"",
        ],
    );
    member(rng, "strategy", strategy.to_string(), &mut members);
    let deadline_key = pick(rng, &["deadline_s", "deadline_factor"]);
    let deadline = pick(rng, &["0.001", "2", "1.5", "3e-3", "100"]).to_string();
    member(rng, deadline_key, deadline, &mut members);
    if rng.gen_bool(0.3) {
        let budget = rng.gen_range(0..100u64).to_string();
        member(rng, "budget_steps", budget, &mut members);
    }
    if rng.gen_bool(0.2) {
        let last = rng.gen_range(1..300u64).to_string();
        member(rng, "last", last, &mut members);
    }

    // A random DAG: forward edges only, so it is acyclic unless an edge
    // is flipped on purpose.
    let n = rng.gen_range(1..40usize);
    let mut weights: Vec<String> = (0..n)
        .map(|_| rng.gen_range(0..10_000_000u64).to_string())
        .collect();
    let mut edges: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a < b {
            edges.push(format!("[{a},{b}]"));
        }
    }
    if rng.gen_bool(0.2) {
        let w = weights.len();
        weights[rng.gen_range(0..w)] = pick(rng, NUMBERS).to_string();
    }
    if rng.gen_bool(0.25) {
        let bad = pick(
            rng,
            &[
                "[1,0]",
                "[0,0]",
                "[0]",
                "[0,1,2]",
                "[\"0\",1]",
                "5",
                "[0.5,1]",
                "[-1,0]",
                "[0,99]",
            ],
        );
        edges.push(bad.to_string());
    }
    let mut graph = vec![
        ("weights".to_string(), format!("[{}]", weights.join(","))),
        ("edges".to_string(), format!("[{}]", edges.join(","))),
    ];
    if rng.gen_bool(0.3) {
        graph.swap(0, 1);
    }
    if rng.gen_bool(0.1) {
        graph.push(("meta".to_string(), any_value(rng)));
    }
    if rng.gen_bool(0.05) {
        let dup = graph[0].clone();
        graph.push(dup);
    }
    let graph = format!("{{{}}}", join_members(rng, &graph));
    member(rng, "graph", graph, &mut members);

    if rng.gen_bool(0.2) {
        members.push(("extra".to_string(), any_value(rng)));
    }
    if rng.gen_bool(0.1) && !members.is_empty() {
        let dup = members[rng.gen_range(0..members.len())].clone();
        members.push(dup);
    }
    if rng.gen_bool(0.1) && !members.is_empty() {
        let at = rng.gen_range(0..members.len());
        members[at].1 = pick(rng, LAX_NUMBERS).to_string();
    }
    // Shuffle the member order.
    for i in (1..members.len()).rev() {
        members.swap(i, rng.gen_range(0..i + 1));
    }
    let mut line = format!("{{{}}}", join_members(rng, &members));
    if rng.gen_bool(0.1) {
        let mut at = rng.gen_range(0..line.len());
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        line.truncate(at);
    }
    let limits = if rng.gen_bool(0.7) {
        Limits::default()
    } else {
        Limits {
            max_tasks: rng.gen_range(0..n + 3),
            max_edges: rng.gen_range(0..edges.len() + 3),
            ..Limits::default()
        }
    };
    (line, limits)
}

/// Push `key` with its good value most of the time; otherwise leave it
/// out or give it a value of a random type or a boundary number.
fn member(rng: &mut Rng, key: &str, good: String, members: &mut Vec<(String, String)>) {
    match rng.gen_range(0..12u32) {
        0 => {}
        1 => members.push((key.to_string(), any_value(rng))),
        2 => members.push((key.to_string(), pick(rng, NUMBERS).to_string())),
        _ => members.push((key.to_string(), good)),
    }
}

/// `"key":value` pairs joined by commas, with random JSON whitespace.
fn join_members(rng: &mut Rng, members: &[(String, String)]) -> String {
    let ws = |rng: &mut Rng| pick(rng, &["", "", "", " ", "\t", " \r\n "]);
    members
        .iter()
        .map(|(k, v)| format!("{}\"{k}\"{}:{}{v}{}", ws(rng), ws(rng), ws(rng), ws(rng)))
        .collect::<Vec<_>>()
        .join(",")
}
