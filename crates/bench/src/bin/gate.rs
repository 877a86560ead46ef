//! Bench-regression gate: compare a fresh `throughput` run against the
//! committed baseline and fail if the solver got materially slower, the
//! pruned and unpruned engines stopped agreeing bit-for-bit, or the
//! fresh run is missing the per-stage timings / prune counters the
//! current schema requires (a sign of a stale binary).
//!
//! ```text
//! gate --baseline BENCH_solver.json --current /tmp/bench_smoke.json [--min-ratio 0.5]
//! gate --serve-baseline BENCH_serve.json --serve-current /tmp/bench_serve.json
//! ```
//!
//! Three independent sections share the binary: the solver-throughput
//! gate (`--current`, against `--baseline`), the serve gate
//! (`--serve-current`, against `--serve-baseline`) for `loadgen`
//! output — schema presence (latency percentiles, saturation
//! throughput, degraded/rejected counters), the wire-vs-local bitwise
//! differential, a zero worker-panic count, and the same `--min-ratio`
//! floor applied to saturated solves/s — and the online gate
//! (`--online-current`) for `online` output: zero panics and validator
//! violations, positive reclaimed energy, incremental re-solves cheaper
//! than from-scratch frame solves, a clean fault-free miss rate, and a
//! severe-preset miss-rate ceiling. Give any subset of the sections;
//! giving none is a usage error.
//!
//! The JSON fields are pulled out with a purpose-built scanner (the
//! workspace is dependency-free, so no serde): we only need two scalars,
//! and the files are written by our own `throughput` binary.
//!
//! `--metrics <file>` points at a metrics snapshot (written by
//! `throughput --metrics-out`); when the gate fails, one summary line of
//! those metrics is printed so the CI log carries the context — solve
//! rate, cache hit rate, and the hottest histogram bucket.
//!
//! A fourth section gates the observability surface itself:
//! `--telemetry <file>` (a raw wire `telemetry` response line, as saved
//! by `top --telemetry-out`) must parse, pass the `lamps_verify` wire
//! checker, and show a nonzero request count; `--flight <file>` (a raw
//! `flight` response line from `top --flight-out`) must parse and pass
//! the same checker; `--flight-file <file>` (a `lamps-flight-v1` dump
//! written by `serve --flight-dump`) must pass the structural dump
//! checker, and — when `--telemetry` is also given — its per-kind event
//! counts must not exceed the telemetry counters that mirror them.

use lamps_bench::cli::Options;
use lamps_obs::json::{parse, Value};
use lamps_serve::Response;

/// Extract the number following `"key":` after (optionally) the first
/// occurrence of `"section"`. Whitespace-tolerant; returns `None` if the
/// key is missing or the value does not parse.
fn json_number(text: &str, section: Option<&str>, key: &str) -> Option<f64> {
    let start = match section {
        Some(s) => {
            let needle = format!("\"{s}\"");
            text.find(&needle)? + needle.len()
        }
        None => 0,
    };
    let needle = format!("\"{key}\"");
    let at = text[start..].find(&needle)? + start + needle.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract the boolean following `"key":`.
fn json_bool(text: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// One line summarizing a metrics snapshot: solve rate, schedule-cache
/// hit rate, and the histogram bucket holding the most samples.
fn metrics_summary(text: &str) -> String {
    let Ok(root) = parse(text) else {
        return "metrics: snapshot did not parse".to_string();
    };
    let counter = |name: &str| -> f64 {
        root.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_number)
            .unwrap_or(0.0)
    };
    let solves_per_sec = root
        .get("gauges")
        .and_then(|g| g.get("bench.throughput.solves_per_sec"))
        .and_then(Value::as_number)
        .unwrap_or(0.0);
    let hits = counter("core.cache.schedule_hits");
    let misses = counter("core.cache.schedule_misses");
    let hit_rate = if hits + misses > 0.0 {
        100.0 * hits / (hits + misses)
    } else {
        0.0
    };
    // The hottest single bucket across every histogram in the snapshot.
    let mut peak: Option<(String, f64, f64)> = None; // (name, lower, count)
    if let Some(hists) = root.get("histograms").and_then(Value::as_object) {
        for (name, h) in hists {
            for b in h.get("buckets").and_then(Value::as_array).unwrap_or(&[]) {
                let bucket = b.as_array().unwrap_or(&[]);
                let (Some(lo), Some(n)) = (
                    bucket.first().and_then(Value::as_number),
                    bucket.get(1).and_then(Value::as_number),
                ) else {
                    continue;
                };
                if peak.as_ref().is_none_or(|(_, _, c)| n > *c) {
                    peak = Some((name.clone(), lo, n));
                }
            }
        }
    }
    let peak_text = match peak {
        Some((name, lo, n)) => format!("{name}[{lo}..)x{n}"),
        None => "none".to_string(),
    };
    format!(
        "metrics: {solves_per_sec:.0} solves/s, schedule cache {hit_rate:.0}% hit, peak bucket {peak_text}"
    )
}

/// Per-stage timings every fresh `throughput` run must report.
const STAGE_KEYS: [&str; 3] = [
    "schedule_seconds",
    "sweep_seconds",
    "unpruned_reference_seconds",
];

/// Prune/cache counters every fresh `throughput` run must report.
const COUNTER_KEYS: [&str; 6] = [
    "plateau_hits",
    "probes_pruned",
    "candidates",
    "scan_breaks",
    "list_schedule_runs",
    "list_schedule_tasks",
];

/// Per-stage timings every fresh `campaign` run must report.
const CAMPAIGN_STAGE_KEYS: [&str; 5] = [
    "generate_seconds",
    "batch_seconds",
    "grouped_seconds",
    "per_request_seconds",
    "unpruned_reference_seconds",
];

/// Service-model rates every fresh `campaign` run must report.
const CAMPAIGN_RATE_KEYS: [&str; 4] = [
    "batch_solves_per_sec",
    "grouped_solves_per_sec",
    "per_request_solves_per_sec",
    "ns_per_solve_batch",
];

/// Giant-graph figures every fresh `campaign` run must report.
const CAMPAIGN_GIANT_KEYS: [&str; 3] = ["tasks", "schedule_tasks_per_sec", "solve_seconds"];

/// Batch counters every fresh `campaign` run must report.
const CAMPAIGN_COUNTER_KEYS: [&str; 2] = ["batch_calls", "batch_items"];

/// The text from the first `"campaign"` key onward — the campaign
/// section is always the document's last top-level key (both in the
/// merged `BENCH_solver.json` and in a standalone campaign file), so
/// scoped lookups against this slice cannot match earlier sections.
fn campaign_slice(text: &str) -> Option<&str> {
    let at = text.find("\"campaign\"")?;
    Some(&text[at..])
}

/// Check the campaign section of `text`, printing one line per missing
/// or failing field. Returns true if anything failed.
fn check_campaign(text: &str, path: &str) -> bool {
    let Some(c) = campaign_slice(text) else {
        eprintln!("gate FAILURE: {path} has no campaign section");
        return true;
    };
    let mut failed = false;
    let mut require = |section: &str, key: &str| {
        if json_number(c, Some(section), key).is_none() {
            failed = true;
            eprintln!("gate FAILURE: {path} campaign section is missing {section}.{key}");
        }
    };
    for key in CAMPAIGN_STAGE_KEYS {
        require("stages", key);
    }
    for key in CAMPAIGN_RATE_KEYS {
        require("rates", key);
    }
    for key in CAMPAIGN_GIANT_KEYS {
        require("giant", key);
    }
    for key in CAMPAIGN_COUNTER_KEYS {
        require("counters", key);
    }
    match json_bool(c, "all_bitwise_equal") {
        Some(true) => {}
        Some(false) => {
            failed = true;
            eprintln!(
                "gate FAILURE: campaign engines no longer agree bit-for-bit (campaign all_bitwise_equal = false)"
            );
        }
        None => {
            failed = true;
            eprintln!("gate FAILURE: {path} campaign section has no all_bitwise_equal");
        }
    }
    if json_number(c, Some("workload"), "solve_calls") == Some(0.0) {
        failed = true;
        eprintln!("gate FAILURE: {path} campaign ran zero solves");
    }
    failed
}

/// The text from the first `"key"` onward, for scoped lookups inside a
/// subsection (same convention as [`campaign_slice`]).
fn section_slice<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    Some(&text[at..])
}

/// Latency percentiles every fresh `loadgen` run must report.
const SERVE_LATENCY_KEYS: [&str; 4] = ["p50", "p90", "p99", "max"];

/// Traffic counters every fresh `loadgen` run must report.
const SERVE_COUNTER_KEYS: [&str; 6] = [
    "requests",
    "ok",
    "degraded",
    "rejected",
    "errors",
    "solves_per_sec",
];

/// Saturation-phase figures every fresh `loadgen` run must report.
const SERVE_SATURATION_KEYS: [&str; 4] = ["requests", "solves_per_sec", "solved", "rejected"];

/// Check a fresh `loadgen` result (`BENCH_serve.json` schema): field
/// presence, the bitwise differential, and a clean panic counter.
/// Prints one line per failure; returns true if anything failed.
fn check_serve(text: &str, path: &str) -> bool {
    let mut failed = false;
    let fail = |msg: String| {
        eprintln!("gate FAILURE: {msg}");
    };
    if !text.contains("\"lamps-serve-bench-v1\"") {
        fail(format!(
            "{path} does not carry the lamps-serve-bench-v1 schema"
        ));
        return true;
    }
    for key in SERVE_COUNTER_KEYS {
        if json_number(text, None, key).is_none() {
            failed = true;
            fail(format!("{path} is missing {key}"));
        }
    }
    for key in SERVE_LATENCY_KEYS {
        if json_number(text, Some("latency_us"), key).is_none() {
            failed = true;
            fail(format!("{path} is missing latency_us.{key}"));
        }
    }
    match section_slice(text, "saturation") {
        None => {
            failed = true;
            fail(format!("{path} has no saturation section"));
        }
        Some(s) => {
            for key in SERVE_SATURATION_KEYS {
                if json_number(s, None, key).is_none() {
                    failed = true;
                    fail(format!("{path} saturation section is missing {key}"));
                }
            }
        }
    }
    match section_slice(text, "differential") {
        None => {
            failed = true;
            fail(format!("{path} has no differential section"));
        }
        Some(d) => {
            if json_bool(d, "enabled") != Some(true) {
                failed = true;
                fail(format!(
                    "{path} was recorded without --differential; the serve gate requires it"
                ));
            } else if json_bool(d, "all_bitwise_equal") != Some(true) {
                failed = true;
                fail(
                    "served responses no longer match local solves bit-for-bit \
                     (differential all_bitwise_equal = false)"
                        .to_string(),
                );
            }
            if json_number(d, None, "checked") == Some(0.0) {
                failed = true;
                fail(format!("{path} differential checked zero responses"));
            }
        }
    }
    match section_slice(text, "server").and_then(|s| json_number(s, None, "panics")) {
        Some(0.0) => {}
        Some(n) => {
            failed = true;
            fail(format!("server caught {n} worker panics during the run"));
        }
        None => {
            failed = true;
            fail(format!(
                "{path} server section is missing the panics counter"
            ));
        }
    }
    failed
}

/// Highest severe-preset frame-miss rate the online gate tolerates: a
/// regression driving it to 1.0 means the fault ladder stopped saving
/// *any* frame under severe injection.
const ONLINE_SEVERE_MISS_CEILING: f64 = 0.98;

/// The text from `"name": "<name>"` onward — one row of the online
/// bench's `rows` array.
fn online_row_slice<'t>(text: &'t str, name: &str) -> Option<&'t str> {
    let needle = format!("\"name\": \"{name}\"");
    let at = text.find(&needle)?;
    Some(&text[at..])
}

/// Check a fresh `online` result (`BENCH_online.json` schema): the
/// runtime must never panic, every trace must pass the independent
/// validator, reclamation must claw back energy, incremental re-solves
/// must stay cheaper than from-scratch frame solves, the fault-free
/// preset must never miss, and the severe preset must keep saving some
/// frames. Prints one line per failure; returns true if anything failed.
fn check_online_bench(text: &str, path: &str) -> bool {
    let mut failed = false;
    let fail = |msg: String| {
        eprintln!("gate FAILURE: {msg}");
    };
    if !text.contains("\"lamps-online-bench-v1\"") {
        fail(format!(
            "{path} does not carry the lamps-online-bench-v1 schema"
        ));
        return true;
    }
    for (key, expect_zero) in [("panics", true), ("violations", true), ("workloads", false)] {
        match json_number(text, None, key) {
            None => {
                failed = true;
                fail(format!("{path} is missing {key}"));
            }
            Some(n) if expect_zero && n != 0.0 => {
                failed = true;
                fail(format!("online runtime recorded {n} {key} (must be 0)"));
            }
            Some(n) if !expect_zero && n == 0.0 => {
                failed = true;
                fail(format!("{path} ran zero {key}"));
            }
            Some(_) => {}
        }
    }
    match section_slice(text, "reclaim") {
        None => {
            failed = true;
            fail(format!("{path} has no reclaim section"));
        }
        Some(r) => {
            match json_number(r, None, "reclaimed_j") {
                Some(j) if j > 0.0 => {}
                Some(j) => {
                    failed = true;
                    fail(format!(
                        "reclamation stopped saving energy (reclaimed_j = {j}; must be > 0 \
                         on under-WCET workloads)"
                    ));
                }
                None => {
                    failed = true;
                    fail(format!("{path} reclaim section is missing reclaimed_j"));
                }
            }
            match (
                json_number(r, None, "avg_resolve_steps"),
                json_number(r, None, "avg_full_solve_steps"),
            ) {
                (Some(inc), Some(full)) => {
                    if inc > full {
                        failed = true;
                        fail(format!(
                            "incremental re-solves cost more than from-scratch frame solves \
                             ({inc} vs {full} steps)"
                        ));
                    }
                }
                _ => {
                    failed = true;
                    fail(format!(
                        "{path} reclaim section is missing avg_resolve_steps/avg_full_solve_steps"
                    ));
                }
            }
        }
    }
    for (row, check) in [
        ("none", "miss_rate"),
        ("severe", "miss_rate"),
        ("overload", "shed_rate"),
    ] {
        let Some(slice) = online_row_slice(text, row) else {
            failed = true;
            fail(format!("{path} has no {row} row"));
            continue;
        };
        let Some(n) = json_number(slice, None, check) else {
            failed = true;
            fail(format!("{path} {row} row is missing {check}"));
            continue;
        };
        match row {
            "none" if n != 0.0 => {
                failed = true;
                fail(format!(
                    "fault-free online runs missed deadlines (none miss_rate = {n})"
                ));
            }
            "severe" if n > ONLINE_SEVERE_MISS_CEILING => {
                failed = true;
                fail(format!(
                    "severe-preset miss rate {n} exceeds the {ONLINE_SEVERE_MISS_CEILING} \
                     ceiling — the fault ladder stopped defending frames"
                ));
            }
            "overload" if n == 0.0 => {
                failed = true;
                fail("overload row shed nothing — admission control is not engaging".to_string());
            }
            _ => {}
        }
    }
    failed
}

/// Gate a raw wire `telemetry` response line. Returns `(failed,
/// counters)` — the counters feed the flight-dump cross-check.
fn check_telemetry_line(text: &str, path: &str) -> (bool, Vec<(String, u64)>) {
    let mut failed = false;
    let fail = |why: String| eprintln!("gate FAILURE: {path}: {why}");
    let line = text.trim();
    let counters = match lamps_serve::parse_response(line) {
        Ok(Response::Telemetry { body, .. }) => {
            if body.counter("serve.requests").unwrap_or(0) == 0 {
                failed = true;
                fail("telemetry shows zero served requests — the probe ran before any load".into());
            }
            body.counters.clone()
        }
        Ok(other) => {
            failed = true;
            fail(format!("not a telemetry response: {other:?}"));
            Vec::new()
        }
        Err(e) => {
            failed = true;
            fail(format!("unparseable telemetry line: {e}"));
            Vec::new()
        }
    };
    for v in lamps_verify::check_response_line(line) {
        failed = true;
        fail(format!("wire checker: {v}"));
    }
    (failed, counters)
}

/// Gate a raw wire `flight` response line.
fn check_flight_line(text: &str, path: &str) -> bool {
    let mut failed = false;
    let fail = |why: String| eprintln!("gate FAILURE: {path}: {why}");
    let line = text.trim();
    match lamps_serve::parse_response(line) {
        Ok(Response::Flight { events, .. }) => {
            if events.is_empty() {
                failed = true;
                fail("flight journal is empty — the recorder never saw the load".into());
            }
        }
        Ok(other) => {
            failed = true;
            fail(format!("not a flight response: {other:?}"));
        }
        Err(e) => {
            failed = true;
            fail(format!("unparseable flight line: {e}"));
        }
    }
    for v in lamps_verify::check_response_line(line) {
        failed = true;
        fail(format!("wire checker: {v}"));
    }
    failed
}

/// Gate a `lamps-flight-v1` dump file against the structural checker
/// and (when available) the telemetry counters.
fn check_flight_dump_file(text: &str, path: &str, counters: &[(String, u64)]) -> bool {
    let mut failed = false;
    let fail = |why: String| eprintln!("gate FAILURE: {path}: {why}");
    for v in lamps_verify::check_flight_dump(text) {
        failed = true;
        fail(v);
    }
    if !counters.is_empty() {
        match lamps_verify::parse_flight_dump(text) {
            Ok(dump) => {
                for v in lamps_verify::check_flight_counts(&dump, counters) {
                    failed = true;
                    fail(v);
                }
            }
            Err(e) => {
                failed = true;
                fail(e);
            }
        }
    }
    failed
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let opts = Options::parse(&[
        "baseline",
        "current",
        "min-ratio",
        "metrics",
        "campaign",
        "serve-baseline",
        "serve-current",
        "online-current",
        "telemetry",
        "flight",
        "flight-file",
    ]);
    let baseline_path = opts.string("baseline", "BENCH_solver.json");
    let current_path = opts.string("current", "");
    let min_ratio = opts.f64("min-ratio", 0.5);
    let metrics_path = opts.string("metrics", "");
    let campaign_path = opts.string("campaign", "");
    let serve_baseline_path = opts.string("serve-baseline", "BENCH_serve.json");
    let serve_current_path = opts.string("serve-current", "");
    let online_current_path = opts.string("online-current", "");
    let telemetry_path = opts.string("telemetry", "");
    let flight_path = opts.string("flight", "");
    let flight_file_path = opts.string("flight-file", "");

    if current_path.is_empty()
        && serve_current_path.is_empty()
        && online_current_path.is_empty()
        && telemetry_path.is_empty()
        && flight_path.is_empty()
        && flight_file_path.is_empty()
    {
        eprintln!(
            "error: nothing to gate — give --current, --serve-current, --online-current, \
             and/or --telemetry/--flight/--flight-file"
        );
        std::process::exit(2);
    }

    let mut failed = false;

    if !current_path.is_empty() {
        let baseline = read(&baseline_path);
        let current = read(&current_path);

        let base_rate =
            json_number(&baseline, Some("after"), "solves_per_sec").unwrap_or_else(|| {
                eprintln!("error: {baseline_path} has no after.solves_per_sec");
                std::process::exit(2);
            });
        let cur_rate =
            json_number(&current, Some("after"), "solves_per_sec").unwrap_or_else(|| {
                eprintln!("error: {current_path} has no after.solves_per_sec");
                std::process::exit(2);
            });
        let cur_equal = json_bool(&current, "all_bitwise_equal").unwrap_or_else(|| {
            eprintln!("error: {current_path} has no all_bitwise_equal");
            std::process::exit(2);
        });

        let ratio = cur_rate / base_rate;
        eprintln!(
            "gate: baseline {base_rate:.1} solves/s, current {cur_rate:.1} solves/s, ratio {ratio:.2} (floor {min_ratio})"
        );
        if !cur_equal {
            failed = true;
            eprintln!(
                "gate FAILURE: engines no longer agree bit-for-bit (all_bitwise_equal = false)"
            );
        }
        // Schema check: a current file without the per-stage timings or
        // the prune counters came from a stale binary — fail loudly
        // instead of gating on a number whose provenance is unknown.
        // (The *baseline* may predate the schema; only the fresh run is
        // held to it.)
        for key in STAGE_KEYS {
            if json_number(&current, Some("stages"), key).is_none() {
                failed = true;
                eprintln!("gate FAILURE: {current_path} is missing stages.{key}");
            }
        }
        for key in COUNTER_KEYS {
            if json_number(&current, Some("counters"), key).is_none() {
                failed = true;
                eprintln!("gate FAILURE: {current_path} is missing counters.{key}");
            }
        }
        if json_number(&current, Some("after"), "ns_per_solve").is_none() {
            failed = true;
            eprintln!("gate FAILURE: {current_path} is missing after.ns_per_solve");
        }
        // NaN (corrupt input) must fail, so test for the passing
        // condition.
        let fast_enough = ratio >= min_ratio;
        if !fast_enough {
            failed = true;
            eprintln!(
                "gate FAILURE: throughput regressed below {min_ratio}x of the committed baseline"
            );
        }
    }
    // Campaign schema: only checked when a campaign file is supplied
    // (CI supplies one; local gate runs against an old throughput-only
    // JSON still work).
    if !campaign_path.is_empty() {
        failed |= check_campaign(&read(&campaign_path), &campaign_path);
    }

    if !serve_current_path.is_empty() {
        let baseline = read(&serve_baseline_path);
        let current = read(&serve_current_path);
        failed |= check_serve(&current, &serve_current_path);
        // Regression floor on *saturated* throughput — the paced phase
        // only echoes the arrival rate when the server keeps up.
        let sat = |text: &str, path: &str| {
            section_slice(text, "saturation")
                .and_then(|s| json_number(s, None, "solves_per_sec"))
                .unwrap_or_else(|| {
                    eprintln!("error: {path} has no saturation.solves_per_sec");
                    std::process::exit(2);
                })
        };
        let base_rate = sat(&baseline, &serve_baseline_path);
        let cur_rate = sat(&current, &serve_current_path);
        let ratio = cur_rate / base_rate;
        eprintln!(
            "serve gate: baseline {base_rate:.1} saturated solves/s, current {cur_rate:.1}, ratio {ratio:.2} (floor {min_ratio})"
        );
        // NaN (a zero/zero ratio from a corrupt file) must fail, not pass.
        if ratio.is_nan() || ratio < min_ratio {
            failed = true;
            eprintln!(
                "gate FAILURE: serve throughput regressed below {min_ratio}x of the committed baseline"
            );
        }
    }

    if !online_current_path.is_empty() {
        failed |= check_online_bench(&read(&online_current_path), &online_current_path);
    }

    let mut telemetry_counters: Vec<(String, u64)> = Vec::new();
    if !telemetry_path.is_empty() {
        let (tf, counters) = check_telemetry_line(&read(&telemetry_path), &telemetry_path);
        failed |= tf;
        telemetry_counters = counters;
        if !tf {
            eprintln!("telemetry gate: {telemetry_path} parses and passes the wire checker");
        }
    }
    if !flight_path.is_empty() {
        let ff = check_flight_line(&read(&flight_path), &flight_path);
        failed |= ff;
        if !ff {
            eprintln!("flight gate: {flight_path} parses and passes the wire checker");
        }
    }
    if !flight_file_path.is_empty() {
        let ff = check_flight_dump_file(
            &read(&flight_file_path),
            &flight_file_path,
            &telemetry_counters,
        );
        failed |= ff;
        if !ff {
            eprintln!("flight gate: {flight_file_path} passes the structural dump checker");
        }
    }

    if failed {
        if !metrics_path.is_empty() {
            eprintln!("{}", metrics_summary(&read(&metrics_path)));
        }
        std::process::exit(1);
    }
    eprintln!("gate clean");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "before": { "seconds": 2.0, "solves_per_sec": 400.5 },
  "after": { "seconds": 0.5, "solves_per_sec": 1601.25 },
  "speedup": 4.0,
  "all_bitwise_equal": true
}"#;

    #[test]
    fn extracts_sectioned_numbers() {
        assert_eq!(
            json_number(SAMPLE, Some("after"), "solves_per_sec"),
            Some(1601.25)
        );
        assert_eq!(
            json_number(SAMPLE, Some("before"), "solves_per_sec"),
            Some(400.5)
        );
        assert_eq!(json_number(SAMPLE, None, "speedup"), Some(4.0));
        assert_eq!(json_number(SAMPLE, Some("after"), "missing"), None);
        assert_eq!(json_number(SAMPLE, Some("nope"), "speedup"), None);
    }

    #[test]
    fn extracts_bools() {
        assert_eq!(json_bool(SAMPLE, "all_bitwise_equal"), Some(true));
        assert_eq!(json_bool(SAMPLE, "missing"), None);
        assert_eq!(
            json_bool("{\"all_bitwise_equal\": false}", "all_bitwise_equal"),
            Some(false)
        );
    }

    #[test]
    fn metrics_summary_renders_one_line() {
        let snap = r#"{
  "counters": {"core.cache.schedule_hits": 30, "core.cache.schedule_misses": 10},
  "gauges": {"bench.throughput.solves_per_sec": 1250},
  "histograms": {
    "bench.par_map.worker_busy_us": {"count": 4, "sum": 100, "buckets": [[16, 1], [32, 3]]}
  }
}"#;
        let line = metrics_summary(snap);
        assert!(line.contains("1250 solves/s"), "{line}");
        assert!(line.contains("75% hit"), "{line}");
        assert!(
            line.contains("bench.par_map.worker_busy_us[32..)x3"),
            "{line}"
        );
        assert!(!line.contains('\n'), "must be one line: {line}");
        assert!(metrics_summary("not json").contains("did not parse"));
    }

    #[test]
    fn new_schema_keys_extract() {
        let sample = r#"{
  "after": {
    "solves_per_sec": 4400.0,
    "stages": {"schedule_seconds": 0.09, "sweep_seconds": 0.04, "unpruned_reference_seconds": 0.6},
    "counters": {"plateau_hits": 1710, "probes_pruned": 0, "candidates": 2786, "scan_breaks": 216, "list_schedule_runs": 506, "list_schedule_tasks": 650000}
  },
  "all_bitwise_equal": true
}"#;
        for key in STAGE_KEYS {
            assert!(
                json_number(sample, Some("stages"), key).is_some(),
                "missing stage {key}"
            );
        }
        for key in COUNTER_KEYS {
            assert!(
                json_number(sample, Some("counters"), key).is_some(),
                "missing counter {key}"
            );
        }
        // The pre-rework schema must be recognizably incomplete.
        assert!(json_number(SAMPLE, Some("stages"), "schedule_seconds").is_none());
    }

    #[test]
    fn campaign_schema_passes_on_complete_section() {
        let sample = r#"{
  "after": {"solves_per_sec": 4400.0},
  "all_bitwise_equal": true,
  "campaign": {
    "workload": {"solve_calls": 1000000, "solved": 1000000},
    "stages": {"generate_seconds": 1.0, "batch_seconds": 20.0, "grouped_seconds": 30.0,
               "per_request_seconds": 2.0, "unpruned_reference_seconds": 5.0},
    "rates": {"batch_solves_per_sec": 50000.0, "grouped_solves_per_sec": 33000.0,
              "per_request_solves_per_sec": 12000.0, "ns_per_solve_batch": 20000.0},
    "giant": {"tasks": 100000, "schedule_tasks_per_sec": 7000000.0, "solve_seconds": 2.5},
    "counters": {"batch_calls": 16, "batch_items": 62500},
    "all_bitwise_equal": true
  }
}"#;
        assert!(!check_campaign(sample, "sample"));
    }

    #[test]
    fn campaign_schema_fails_on_missing_or_false_fields() {
        // No campaign section at all.
        assert!(check_campaign("{\"after\": {}}", "sample"));
        // Present but missing the batch rate and with a false equality.
        let broken = r#"{
  "campaign": {
    "workload": {"solve_calls": 10},
    "stages": {"generate_seconds": 1.0, "batch_seconds": 20.0, "grouped_seconds": 30.0,
               "per_request_seconds": 2.0, "unpruned_reference_seconds": 5.0},
    "rates": {"grouped_solves_per_sec": 33000.0,
              "per_request_solves_per_sec": 12000.0, "ns_per_solve_batch": 20000.0},
    "giant": {"tasks": 100000, "schedule_tasks_per_sec": 7000000.0, "solve_seconds": 2.5},
    "counters": {"batch_calls": 16, "batch_items": 62500},
    "all_bitwise_equal": false
  }
}"#;
        assert!(check_campaign(broken, "sample"));
        // A campaign that reports zero solves must fail even if the
        // schema is otherwise complete.
        let empty = broken.replace("\"solve_calls\": 10", "\"solve_calls\": 0");
        assert!(check_campaign(&empty, "sample"));
    }

    #[test]
    fn campaign_slice_scopes_to_the_last_section() {
        let merged = r#"{"after": {"stages": {"schedule_seconds": 1}},
                         "all_bitwise_equal": false,
                         "campaign": {"all_bitwise_equal": true}}"#;
        let c = campaign_slice(merged).expect("campaign present");
        // The slice must not see the outer (false) flag.
        assert_eq!(json_bool(c, "all_bitwise_equal"), Some(true));
        assert!(campaign_slice("{\"after\": {}}").is_none());
    }

    const SERVE_SAMPLE: &str = r#"{
  "schema": "lamps-serve-bench-v1",
  "smoke": true,
  "requests": 96,
  "solves_per_sec": 400.0,
  "ok": 200,
  "degraded": 20,
  "rejected": 120,
  "errors": 0,
  "latency_us": {"p50": 150, "p90": 210, "p99": 270, "max": 450},
  "saturation": {"requests": 256, "elapsed_seconds": 0.016, "solves_per_sec": 8200.0, "solved": 136, "rejected": 120},
  "differential": {"enabled": true, "checked": 232, "all_bitwise_equal": true},
  "server": {"connections": 2, "requests": 232, "panics": 0}
}"#;

    #[test]
    fn serve_schema_passes_on_complete_file() {
        assert!(!check_serve(SERVE_SAMPLE, "sample"));
    }

    #[test]
    fn serve_schema_fails_on_missing_or_bad_fields() {
        // Wrong schema marker.
        assert!(check_serve("{\"schema\": \"other\"}", "sample"));
        // Differential disabled.
        assert!(check_serve(
            &SERVE_SAMPLE.replace("\"enabled\": true", "\"enabled\": false"),
            "sample"
        ));
        // Bitwise mismatch.
        assert!(check_serve(
            &SERVE_SAMPLE.replace(
                "\"all_bitwise_equal\": true",
                "\"all_bitwise_equal\": false"
            ),
            "sample"
        ));
        // A caught worker panic.
        assert!(check_serve(
            &SERVE_SAMPLE.replace("\"panics\": 0", "\"panics\": 1"),
            "sample"
        ));
        // Missing saturation section.
        assert!(check_serve(
            &SERVE_SAMPLE.replace("saturation", "saturation_gone"),
            "sample"
        ));
        // Zero differential coverage.
        assert!(check_serve(
            &SERVE_SAMPLE.replace("\"checked\": 232", "\"checked\": 0"),
            "sample"
        ));
    }

    #[test]
    fn section_slice_scopes_serve_lookups() {
        // "rejected" appears at top level and inside saturation; the
        // scoped lookup must see the saturation one.
        let s = section_slice(SERVE_SAMPLE, "saturation").expect("present");
        assert_eq!(json_number(s, None, "rejected"), Some(120.0));
        assert_eq!(json_number(s, None, "solves_per_sec"), Some(8200.0));
        assert!(section_slice(SERVE_SAMPLE, "absent").is_none());
    }

    const ONLINE_SAMPLE: &str = r#"{
  "schema": "lamps-online-bench-v1",
  "smoke": true,
  "workloads": 3,
  "frames": 4,
  "seed": 2006,
  "reclaim": {"baseline_j": 0.2675, "reclaim_j": 0.2662, "reclaimed_j": 0.0013, "reclaimed_frac": 0.0049, "resolves": 45, "avg_resolve_steps": 1.15, "avg_full_solve_steps": 8.33},
  "rows": [
    {"name": "none", "miss_rate": 0, "shed_rate": 0, "degraded_frames": 0, "resolves": 44, "frames": 12},
    {"name": "mild", "miss_rate": 0, "shed_rate": 0, "degraded_frames": 0, "resolves": 43, "frames": 12},
    {"name": "moderate", "miss_rate": 0.41, "shed_rate": 0, "degraded_frames": 0, "resolves": 46, "frames": 12},
    {"name": "severe", "miss_rate": 0.91, "shed_rate": 0, "degraded_frames": 0, "resolves": 35, "frames": 12},
    {"name": "overload", "miss_rate": 0.55, "shed_rate": 0.25, "degraded_frames": 0, "resolves": 33, "frames": 12}
  ],
  "panics": 0,
  "violations": 0
}"#;

    #[test]
    fn online_schema_passes_on_complete_file() {
        assert!(!check_online_bench(ONLINE_SAMPLE, "sample"));
    }

    #[test]
    fn online_schema_fails_on_missing_or_bad_fields() {
        // Wrong schema marker.
        assert!(check_online_bench("{\"schema\": \"other\"}", "sample"));
        // A caught panic.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"panics\": 0", "\"panics\": 1"),
            "sample"
        ));
        // A validator violation.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"violations\": 0", "\"violations\": 3"),
            "sample"
        ));
        // Reclamation stopped saving energy.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"reclaimed_j\": 0.0013", "\"reclaimed_j\": -0.002"),
            "sample"
        ));
        // Incremental re-solves costlier than from-scratch solves.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"avg_resolve_steps\": 1.15", "\"avg_resolve_steps\": 9.5"),
            "sample"
        ));
        // Fault-free runs missing deadlines.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace(
                "{\"name\": \"none\", \"miss_rate\": 0",
                "{\"name\": \"none\", \"miss_rate\": 0.1"
            ),
            "sample"
        ));
        // Severe preset losing every frame.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace(
                "{\"name\": \"severe\", \"miss_rate\": 0.91",
                "{\"name\": \"severe\", \"miss_rate\": 1.0"
            ),
            "sample"
        ));
        // Overload row not shedding.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"shed_rate\": 0.25", "\"shed_rate\": 0"),
            "sample"
        ));
        // Missing a row entirely.
        assert!(check_online_bench(
            &ONLINE_SAMPLE.replace("\"name\": \"severe\"", "\"name\": \"renamed\""),
            "sample"
        ));
    }

    #[test]
    fn online_row_slice_scopes_to_one_row() {
        let s = online_row_slice(ONLINE_SAMPLE, "moderate").expect("present");
        assert_eq!(json_number(s, None, "miss_rate"), Some(0.41));
        assert!(online_row_slice(ONLINE_SAMPLE, "absent").is_none());
    }

    #[test]
    fn scientific_notation_parses() {
        let t = "{\"after\": {\"solves_per_sec\": 2.5315e3}}";
        assert_eq!(
            json_number(t, Some("after"), "solves_per_sec"),
            Some(2531.5)
        );
    }

    const TELEMETRY_SAMPLE: &str = r#"{"id":9,"status":"telemetry","counters":{"serve.ok":4,"serve.requests":5},"gauges":{"serve.queue_capacity":64,"serve.queue_depth":1},"histograms":{"serve.latency_us":{"count":5,"sum":900,"p50":120.0,"p90":300.0,"p99":410.0}}}"#;

    const FLIGHT_WIRE_SAMPLE: &str = r#"{"id":10,"status":"flight","dropped":0,"events":[{"ts_us":5,"tid":0,"kind":"serve.admit","key":1,"a":1,"b":0},{"ts_us":9,"tid":1,"kind":"serve.reply","key":1,"a":0,"b":0}]}"#;

    const FLIGHT_DUMP_SAMPLE: &str = "{\"schema\": \"lamps-flight-v1\", \"reason\": \"shutdown\", \"events\": 2, \"dropped\": 0}\n\
        {\"ts_us\": 5, \"tid\": 0, \"kind\": \"serve.admit\", \"key\": 1, \"a\": 1, \"b\": 0}\n\
        {\"ts_us\": 9, \"tid\": 1, \"kind\": \"serve.reply\", \"key\": 1, \"a\": 0, \"b\": 0}\n";

    #[test]
    fn telemetry_section_accepts_a_good_line_and_exports_counters() {
        let (failed, counters) = check_telemetry_line(TELEMETRY_SAMPLE, "t.json");
        assert!(!failed);
        assert!(counters.contains(&("serve.requests".to_string(), 5)));
        // Zero requests means the probe raced the load — a gate failure.
        let idle = TELEMETRY_SAMPLE.replace("\"serve.requests\":5", "\"serve.requests\":0");
        assert!(check_telemetry_line(&idle, "t.json").0);
        assert!(check_telemetry_line("{\"id\":1,\"status\":\"pong\"}", "t.json").0);
        assert!(check_telemetry_line("not json", "t.json").0);
    }

    #[test]
    fn flight_section_accepts_wire_line_and_dump_file() {
        assert!(!check_flight_line(FLIGHT_WIRE_SAMPLE, "f.json"));
        let empty = r#"{"id":10,"status":"flight","dropped":0,"events":[]}"#;
        assert!(check_flight_line(empty, "f.json"));

        assert!(!check_flight_dump_file(FLIGHT_DUMP_SAMPLE, "f.jsonl", &[]));
        let ok_counters = vec![("serve.requests".to_string(), 5u64)];
        assert!(!check_flight_dump_file(
            FLIGHT_DUMP_SAMPLE,
            "f.jsonl",
            &ok_counters
        ));
        // More admits than the counter ever saw → fabricated events.
        let low_counters = vec![("serve.requests".to_string(), 0u64)];
        assert!(check_flight_dump_file(
            FLIGHT_DUMP_SAMPLE,
            "f.jsonl",
            &low_counters
        ));
        // Time travel inside the dump is caught even without counters.
        let warped =
            FLIGHT_DUMP_SAMPLE.replace("\"ts_us\": 9, \"tid\": 1", "\"ts_us\": 2, \"tid\": 0");
        assert!(check_flight_dump_file(&warped, "f.jsonl", &[]));
    }
}
