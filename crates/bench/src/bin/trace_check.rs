//! `trace_check` — structural validation of observability artifacts.
//!
//! ```text
//! trace_check [--trace <chrome.json>] [--explain <explain.json>]
//! ```
//!
//! Runs the `lamps-verify` checkers over the given files: Chrome
//! trace-event JSON (as written by `--trace` on the bins) and
//! `lamps-explain-v3` solver decision logs (as written by
//! `--explain-json`). Prints every problem found and exits nonzero if
//! any file fails, so CI can gate on the artifacts actually being
//! loadable rather than merely existing.

use lamps_bench::cli::Options;
use lamps_verify::{check_chrome_trace, check_explain};

fn check_file(path: &str, kind: &str, check: impl Fn(&str) -> Vec<String>) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2)
    });
    let problems = check(&text);
    if problems.is_empty() {
        println!("{path}: {kind} OK");
    } else {
        for p in &problems {
            println!("{path}: {p}");
        }
    }
    problems.len()
}

fn main() {
    let opts = Options::parse(&["trace", "explain"]);
    let trace_path = opts.string("trace", "");
    let explain_path = opts.string("explain", "");
    if trace_path.is_empty() && explain_path.is_empty() {
        eprintln!("usage: trace_check [--trace <chrome.json>] [--explain <explain.json>]");
        std::process::exit(2);
    }
    let mut problems = 0;
    if !trace_path.is_empty() {
        problems += check_file(&trace_path, "chrome trace", check_chrome_trace);
    }
    if !explain_path.is_empty() {
        problems += check_file(&explain_path, "decision log", check_explain);
    }
    if problems > 0 {
        eprintln!("trace_check: {problems} problem(s)");
        std::process::exit(1);
    }
}
