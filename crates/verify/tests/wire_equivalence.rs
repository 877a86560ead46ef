//! The streaming request decoder against the golden outcomes recorded
//! from the value-tree decoder it replaced.
//!
//! `tests/corpus-wire/requests.golden` holds the tree decoder's outcome
//! for every entry of [`corpus`]. The streaming decoder must reproduce
//! each one, except on the lines listed in
//! `tests/corpus-wire/divergences.txt`: there the new outcome is
//! recorded beside one of the intentional behaviour changes:
//!
//! * `duplicate_key` — a key repeated in the request or its `graph` is
//!   a `bad_request` (the tree kept the last value);
//! * `strict_number` — a number outside the RFC 8259 grammar (`05`,
//!   `2.`, `-.0`, `1.e0`) is `malformed_json` (the tree parsed it);
//! * `surrogate_pair` — a `\u` surrogate pair decodes to its astral
//!   character (the tree rejected every surrogate).
//!
//! (The third wire change, invalid UTF-8, happens in the server's
//! reader before a line is a `&str`; `crates/serve/tests/robustness.rs`
//! covers it.)

use lamps_serve::protocol::{parse_request, Request};
use lamps_verify::wire::corpus::{corpus, line_hash, outcome};
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("corpus-wire/requests.golden");
const DIVERGENCES: &str = include_str!("corpus-wire/divergences.txt");

fn table(text: &str) -> BTreeMap<usize, (String, String)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut cols = l.splitn(3, ' ');
            let idx = cols.next().unwrap().parse().expect("index");
            let tag = cols.next().unwrap().to_string();
            (idx, (tag, cols.next().unwrap_or("").to_string()))
        })
        .collect()
}

/// Which intentional change explains a divergent line, if any.
fn classify(line: &str, tree: &str, new: &str, new_message: &str) -> &'static str {
    if new_message.starts_with("duplicate key") {
        return "duplicate_key";
    }
    if tree.starts_with("error kind=malformed_json")
        && !new.starts_with("error kind=malformed_json")
        && line.contains("\\ud")
    {
        return "surrogate_pair";
    }
    if new.starts_with("error kind=malformed_json") && has_lax_number(line) {
        return "strict_number";
    }
    "UNEXPLAINED"
}

/// Whether `line` holds a number token the old scanner took and RFC
/// 8259 forbids: a leading zero before a digit, or a `.` without a
/// digit on both sides.
fn has_lax_number(line: &str) -> bool {
    let b = line.as_bytes();
    let digit = |i: usize| b.get(i).is_some_and(u8::is_ascii_digit);
    (0..b.len()).any(|i| {
        let starts_number = i == 0 || !(digit(i - 1) || b[i - 1] == b'.');
        (b[i] == b'0' && starts_number && digit(i + 1))
            || (b[i] == b'.' && (!digit(i + 1) || !digit(i.wrapping_sub(1))))
    })
}

#[test]
fn streaming_decoder_reproduces_the_tree_decoder() {
    let golden = table(GOLDEN);
    let listed = table(DIVERGENCES);
    let entries = corpus();
    assert_eq!(
        golden.len(),
        entries.len(),
        "corpus size drifted from the golden file"
    );
    let bless = std::env::var_os("LAMPS_BLESS_DIVERGENCES").is_some();
    let mut found = String::new();
    let mut failures = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        let (hash, tree) = &golden[&i];
        assert_eq!(
            hash,
            &format!("{:016x}", line_hash(&e.line)),
            "entry {i}: corpus line drifted"
        );
        let r = parse_request(&e.line, &e.limits);
        let new = outcome(&r);
        if &new == tree {
            assert!(
                bless || !listed.contains_key(&i),
                "entry {i} is listed as divergent but agrees"
            );
            continue;
        }
        let message = r.as_ref().err().map_or("", |e| e.message.as_str());
        let class = classify(&e.line, tree, &new, message);
        found.push_str(&format!("{i} {class} {new}\n"));
        match listed.get(&i) {
            Some((c, o)) if c == class && o == &new && class != "UNEXPLAINED" => {}
            _ => failures.push(format!(
                "entry {i}: tree {tree:?}, now {new:?} ({class}): {:?}",
                e.line
            )),
        }
    }
    if bless {
        let header = DIVERGENCES
            .lines()
            .take_while(|l| l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/corpus-wire/divergences.txt"
            ),
            format!("{header}\n{found}"),
        )
        .unwrap();
    }
    assert!(
        failures.is_empty(),
        "{} divergences:\n{}",
        failures.len(),
        failures.join("\n")
    );
    let by_class = |c: &str| listed.values().filter(|(k, _)| k == c).count();
    assert!(by_class("duplicate_key") >= 10 && by_class("strict_number") >= 10);
    assert!(by_class("surrogate_pair") >= 1);
    // The big encoded lines decode to solves, not errors.
    let solves = entries
        .iter()
        .filter(|e| matches!(parse_request(&e.line, &e.limits), Ok(Request::Solve(_))))
        .count();
    assert!(solves > 100, "{solves}");
}
