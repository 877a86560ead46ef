//! Bench-regression gate: check fresh benchmark results against their
//! schemas and the committed baselines, and exit 1 if anything fails.
//!
//! ```text
//! gate --baseline BENCH_solver.json --current /tmp/bench_smoke.json [--min-ratio 0.5]
//! gate --campaign /tmp/campaign_smoke.json
//! gate --serve-baseline BENCH_serve.json --serve-current /tmp/bench_serve.json
//! gate --online-current /tmp/online_smoke.json
//! ```
//!
//! Each benchmark file is parsed once with [`lamps_obs::json::parse`]; a
//! file that is not JSON fails in one line and its rules are skipped.
//! Each section's checks are the rows of a rule table, one string per
//! row: `path [op operand] [| message]`. The path is dotted object keys,
//! where `rows[name=severe]` picks the array element whose `name` is
//! `severe`. A bare path must hold a number; otherwise `op` is `==`,
//! `!=`, `>` or `<=` and the operand a JSON literal or another path. A
//! missing value fails its row. The sections (give any subset; none is
//! a usage error):
//!
//! * solver (`--current`, [`SOLVER_RULES`]): `all_bitwise_equal`, the
//!   three stage timings, six prune/cache counters and `ns_per_solve`;
//!   the same-run `ratios.unpruned_over_pruned` above 1 (the pruned
//!   engine beats its unpruned reference on the file's own workload);
//!   and `after.solves_per_sec` at least `--min-ratio` (default 0.5) of
//!   the `--baseline` file's.
//! * campaign (`--campaign`, [`CAMPAIGN_RULES`]): five stage timings,
//!   four rates, three giant-graph figures, two batch counters,
//!   `all_bitwise_equal` and a nonzero `workload.solve_calls`.
//! * serve (`--serve-current`, [`SERVE_RULES`]): the schema, six traffic
//!   counters, four latency percentiles, four saturation figures, a
//!   differential that ran, checked a nonzero count and matched bit for
//!   bit, zero server panics; the same-run
//!   `ratios.saturated_over_inprocess` above 0.3 (the median served
//!   saturated rate over seven bursts against the median in-process pass
//!   over the same bursts' request lines); and
//!   `saturation.solves_per_sec` at least `--min-ratio` of the
//!   `--serve-baseline` file's.
//! * online (`--online-current`, [`ONLINE_RULES`]): the schema, zero
//!   panics and violations, nonzero workloads, positive reclaimed
//!   energy, re-solves no costlier than full solves, and the `none`,
//!   `severe` and `overload` rows' miss and shed rates.
//!
//! Both rates a floor compares must be positive and finite; anything
//! else is a usage error (exit 2), as is an unreadable file.
//!
//! `--metrics <file>` points at a metrics snapshot (written by
//! `throughput --metrics-out`); when the gate fails, one summary line of
//! those metrics is printed so the CI log carries the context — solve
//! rate, cache hit rate, and the hottest histogram bucket.
//!
//! A last section gates the observability surface itself:
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

/// The fresh `throughput` run. A file without the stage timings or the
/// prune counters came from a stale binary; the baseline may predate the
/// schema, so only the fresh run is held to it.
const SOLVER_RULES: &[&str] = &[
    "all_bitwise_equal == true | engines no longer agree bit-for-bit",
    "after.ns_per_solve",
    "after.stages.schedule_seconds",
    "after.stages.sweep_seconds",
    "after.stages.unpruned_reference_seconds",
    "after.counters.plateau_hits",
    "after.counters.candidates",
    "after.counters.scan_breaks",
    "after.counters.list_schedule_runs",
    "after.counters.list_schedule_tasks",
    "ratios.unpruned_over_pruned > 1 | the pruned engine is no faster than its unpruned reference",
];

/// The `campaign` section, of a merged `BENCH_solver.json` or of a
/// standalone `campaign` file.
const CAMPAIGN_RULES: &[&str] = &[
    "campaign.stages.generate_seconds",
    "campaign.stages.batch_seconds",
    "campaign.stages.grouped_seconds",
    "campaign.stages.per_request_seconds",
    "campaign.stages.unpruned_reference_seconds",
    "campaign.rates.batch_solves_per_sec",
    "campaign.rates.grouped_solves_per_sec",
    "campaign.rates.per_request_solves_per_sec",
    "campaign.rates.ns_per_solve_batch",
    "campaign.giant.tasks",
    "campaign.giant.schedule_tasks_per_sec",
    "campaign.giant.solve_seconds",
    "campaign.counters.batch_calls",
    "campaign.counters.batch_items",
    "campaign.all_bitwise_equal == true | campaign engines no longer agree bit-for-bit",
    "campaign.workload.solve_calls != 0 | campaign ran zero solves",
];

/// A fresh `loadgen` result (`BENCH_serve.json` schema).
const SERVE_RULES: &[&str] = &[
    r#"schema == "lamps-serve-bench-v1" | does not carry the lamps-serve-bench-v1 schema"#,
    "requests",
    "ok",
    "degraded",
    "rejected",
    "errors",
    "solves_per_sec",
    "latency_us.p50",
    "latency_us.p90",
    "latency_us.p99",
    "latency_us.max",
    "saturation.requests",
    "saturation.solves_per_sec",
    "saturation.solved",
    "saturation.rejected",
    "differential.enabled == true | was recorded without --differential; the serve gate requires it",
    "differential.all_bitwise_equal == true | served responses no longer match local solves bit-for-bit",
    "differential.checked != 0 | differential checked zero responses",
    "server.panics == 0 | server caught worker panics during the run",
    "ratios.saturated_over_inprocess > 0.3 | the served saturated rate fell below 0.3x the same run's in-process solve rate",
];

/// A fresh `online` result (`BENCH_online.json` schema).
const ONLINE_RULES: &[&str] = &[
    r#"schema == "lamps-online-bench-v1" | does not carry the lamps-online-bench-v1 schema"#,
    "panics == 0 | online runtime recorded panics",
    "violations == 0 | online runtime recorded validator violations",
    "workloads != 0 | ran zero workloads",
    "reclaim.reclaimed_j > 0 | reclamation stopped saving energy on under-WCET workloads",
    "reclaim.avg_resolve_steps <= reclaim.avg_full_solve_steps | incremental re-solves cost more than from-scratch frame solves",
    "rows[name=none].miss_rate == 0 | fault-free online runs missed deadlines",
    // At 1.0 the fault ladder saves no frame at all under severe injection.
    "rows[name=severe].miss_rate <= 0.98 | severe-preset miss rate exceeds its ceiling — the fault ladder stopped defending frames",
    "rows[name=overload].shed_rate != 0 | overload row shed nothing — admission control is not engaging",
];

/// The value at `path`: object keys joined by dots, where a segment
/// `key[field=want]` picks the first element of the array `key` whose
/// string `field` is `want`.
fn lookup<'v>(root: &'v Value, path: &str) -> Option<&'v Value> {
    path.split('.')
        .try_fold(root, |v, seg| match seg.split_once('[') {
            None => v.get(seg),
            Some((key, select)) => {
                let (field, want) = select.strip_suffix(']')?.split_once('=')?;
                let rows = v.get(key)?.as_array()?;
                rows.iter()
                    .find(|row| row.get(field).and_then(Value::as_str) == Some(want))
            }
        })
}

/// Whether the condition `path [op operand]` holds in `root`, or the
/// path whose value is missing (a bare path must hold a number).
fn holds<'r>(root: &Value, cond: &'r str) -> Result<bool, &'r str> {
    let mut words = cond.splitn(3, ' ');
    let path = words.next().unwrap_or(cond);
    let found = lookup(root, path).ok_or(path)?;
    let (Some(op), Some(operand)) = (words.next(), words.next()) else {
        return found.as_number().map(|_| true).ok_or(path);
    };
    let want = match parse(operand) {
        Ok(literal) => literal,
        Err(_) => lookup(root, operand).ok_or(operand)?.clone(),
    };
    Ok(match (found.as_number(), want.as_number(), op) {
        (Some(a), Some(b), "!=") => a != b,
        (Some(a), Some(b), ">") => a > b,
        (Some(a), Some(b), "<=") => a <= b,
        (_, _, "==") => *found == want,
        _ => false,
    })
}

/// The failure line of every rule that `root`, read from `file`, breaks.
fn violations(root: &Value, file: &str, rules: &[&str]) -> Vec<String> {
    let mut lines = Vec::new();
    for rule in rules {
        let (cond, why) = rule.split_once(" | ").unwrap_or((rule, ""));
        match holds(root, cond) {
            Ok(true) => {}
            Ok(false) => {
                let found = match lookup(root, cond.split(' ').next().unwrap_or(cond)) {
                    Some(Value::Number(n)) => n.to_string(),
                    Some(Value::Bool(b)) => b.to_string(),
                    Some(Value::String(s)) => format!("{s:?}"),
                    other => format!("{other:?}"),
                };
                lines.push(format!("{file}: {why} (want {cond}, found {found})"));
            }
            Err(missing) => lines.push(format!("{file} is missing {missing}")),
        }
    }
    lines
}

/// Parse `text`, read from `file`; print one failure line if it is not
/// JSON.
fn parse_file(text: &str, file: &str) -> Option<Value> {
    parse(text)
        .map_err(|e| eprintln!("gate FAILURE: {file} is not JSON: {e}"))
        .ok()
}

/// Print one line per rule that `root` breaks. True if any did, or if
/// the file did not parse (`None`, already reported).
fn check_rules(root: Option<&Value>, file: &str, rules: &[&str]) -> bool {
    let Some(root) = root else {
        return true;
    };
    let lines = violations(root, file, rules);
    for line in &lines {
        eprintln!("gate FAILURE: {line}");
    }
    !lines.is_empty()
}

/// The rate at `path` in `root`, read from `file`. A missing, zero,
/// negative or non-finite rate is an error: no ratio against it means
/// anything.
fn rate(root: &Value, file: &str, path: &str) -> Result<f64, String> {
    match lookup(root, path).and_then(Value::as_number) {
        Some(r) if r.is_finite() && r > 0.0 => Ok(r),
        Some(r) => Err(format!(
            "{file} has {path} = {r}; a rate must be positive and finite"
        )),
        None => Err(format!("{file} has no {path}")),
    }
}

/// True (after saying why) if the rate at `path` in `current` fell below
/// `min_ratio` of the `baseline` file's, or if that file did not parse
/// (`None`, already reported). A bad rate exits 2.
fn below_floor(
    path: &str,
    (baseline, base_file): (Option<Value>, &str),
    (current, cur_file): (&Value, &str),
    min_ratio: f64,
) -> bool {
    let Some(baseline) = baseline else {
        return true;
    };
    let base_rate = rate(&baseline, base_file, path).unwrap_or_else(|e| usage(&e));
    let cur_rate = rate(current, cur_file, path).unwrap_or_else(|e| usage(&e));
    let ratio = cur_rate / base_rate;
    eprintln!(
        "gate: {path} baseline {base_rate:.1}, current {cur_rate:.1}, ratio {ratio:.2} (floor {min_ratio})"
    );
    // A NaN --min-ratio must fail, so test for the passing condition.
    let fast_enough = ratio >= min_ratio;
    if !fast_enough {
        eprintln!("gate FAILURE: {path} regressed below {min_ratio}x of the committed baseline");
    }
    !fast_enough
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

/// Print a usage error and exit 2.
fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")))
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
    let min_ratio = opts.f64("min-ratio", 0.5);
    let metrics_path = opts.string("metrics", "");
    let telemetry_path = opts.string("telemetry", "");
    let flight_path = opts.string("flight", "");
    let flight_file_path = opts.string("flight-file", "");
    // Each benchmark section: its file, its rules, and the baseline file
    // and rate path of its regression floor. The serve floor is on the
    // *saturated* rate: the paced phase only echoes the arrival rate.
    let solver_floor = (
        opts.string("baseline", "BENCH_solver.json"),
        "after.solves_per_sec",
    );
    let serve_floor = (
        opts.string("serve-baseline", "BENCH_serve.json"),
        "saturation.solves_per_sec",
    );
    let sections = [
        (opts.string("current", ""), SOLVER_RULES, Some(solver_floor)),
        (opts.string("campaign", ""), CAMPAIGN_RULES, None),
        (
            opts.string("serve-current", ""),
            SERVE_RULES,
            Some(serve_floor),
        ),
        (opts.string("online-current", ""), ONLINE_RULES, None),
    ];

    let files = sections.iter().map(|s| &s.0);
    if files
        .chain([&telemetry_path, &flight_path, &flight_file_path])
        .all(|f| f.is_empty())
    {
        usage(
            "nothing to gate — give --current, --campaign, --serve-current, --online-current, \
             and/or --telemetry/--flight/--flight-file",
        );
    }

    let load = |path: &str| parse_file(&read(path), path);
    let mut failed = false;
    for (file, rules, floor) in &sections {
        if file.is_empty() {
            continue;
        }
        let current = load(file);
        failed |= check_rules(current.as_ref(), file, rules);
        if let (Some(current), Some((baseline, path))) = (&current, floor) {
            let base = (load(baseline), baseline.as_str());
            failed |= below_floor(path, base, (current, file), min_ratio);
        }
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

    const BENCH_SOLVER: &str = include_str!("../../../../BENCH_solver.json");
    const BENCH_SERVE: &str = include_str!("../../../../BENCH_serve.json");
    const BENCH_ONLINE: &str = include_str!("../../../../BENCH_online.json");

    /// Each rule table with the committed file it gates in CI's
    /// self-gate step (`BENCH_solver.json` serves as both `--current`
    /// and `--campaign`).
    const SECTIONS: [(&str, &[&str]); 4] = [
        (BENCH_SOLVER, SOLVER_RULES),
        (BENCH_SOLVER, CAMPAIGN_RULES),
        (BENCH_SERVE, SERVE_RULES),
        (BENCH_ONLINE, ONLINE_RULES),
    ];

    fn json(text: &str) -> Value {
        parse(text).expect("sample parses")
    }

    /// Whether `rules` fail on `text`, parsed the way `main` parses a file.
    fn fails(text: &str, rules: &[&str]) -> bool {
        check_rules(parse_file(text, "sample").as_ref(), "sample", rules)
    }

    /// The value at `path`, mutably: [`lookup`] for test edits.
    fn lookup_mut<'v>(root: &'v mut Value, path: &str) -> Option<&'v mut Value> {
        path.split('.').try_fold(root, |v, seg| {
            let (key, select) = match seg.split_once('[') {
                None => (seg, None),
                Some((key, select)) => (key, select.strip_suffix(']')?.split_once('=')),
            };
            let Value::Object(map) = v else { return None };
            match (map.get_mut(key)?, select) {
                (v, None) => Some(v),
                (Value::Array(rows), Some((field, want))) => rows
                    .iter_mut()
                    .find(|row| row.get(field).and_then(Value::as_str) == Some(want)),
                _ => None,
            }
        })
    }

    /// `root` without the field at `path`.
    fn without(root: &Value, path: &str) -> Value {
        let mut out = root.clone();
        let (parent, key) = match path.rsplit_once('.') {
            Some((parent, key)) => (lookup_mut(&mut out, parent), key),
            None => (Some(&mut out), path),
        };
        let Some(Value::Object(map)) = parent else {
            panic!("{path} has no parent object");
        };
        assert!(map.remove(key).is_some(), "{path} is not in the file");
        out
    }

    /// A value for the path of `cond` (`path [op operand]`) that fails it.
    fn failing(root: &Value, cond: &str) -> Value {
        let words: Vec<&str> = cond.split(' ').collect();
        let [_, op, operand] = words[..] else {
            return Value::String("not a number".to_string());
        };
        let want = parse(operand).unwrap_or_else(|_| lookup(root, operand).unwrap().clone());
        match (op, want) {
            ("==", Value::Bool(b)) => Value::Bool(!b),
            ("==", Value::String(_)) => Value::String("lamps-other-bench-v1".to_string()),
            ("==" | "<=", Value::Number(n)) => Value::Number(n + 1.0),
            // `!=` and `>` fail at the operand itself.
            (_, want) => want,
        }
    }

    #[test]
    fn committed_files_pass_every_rule_table() {
        for (text, rules) in SECTIONS {
            assert_eq!(violations(&json(text), "f", rules), Vec::<String>::new());
        }
        let solver = json(BENCH_SOLVER);
        assert!(rate(&solver, "f", "after.solves_per_sec").is_ok());
        assert!(rate(&json(BENCH_SERVE), "f", "saturation.solves_per_sec").is_ok());
    }

    #[test]
    fn every_rule_bites() {
        for (text, rules) in SECTIONS {
            let root = json(text);
            for rule in rules {
                let cond = rule.split(" | ").next().unwrap();
                let words: Vec<&str> = cond.split(' ').collect();
                let mut broken = vec![without(&root, words[0])];
                if let [_, _, operand] = words[..] {
                    if parse(operand).is_err() {
                        broken.push(without(&root, operand));
                    }
                }
                let mut bad = root.clone();
                *lookup_mut(&mut bad, words[0]).unwrap() = failing(&root, cond);
                broken.push(bad);
                for b in &broken {
                    let lines = violations(b, "f", rules);
                    assert_eq!(lines.len(), 1, "{rule}: {lines:?}");
                }
            }
        }
    }

    // One test per defect of the substring scanner this gate replaced:
    // each input passed that scanner.

    /// `root` with the value at `path` replaced by `value`.
    fn with(root: &Value, path: &str, value: Value) -> Value {
        let mut out = root.clone();
        *lookup_mut(&mut out, path).unwrap_or_else(|| panic!("{path} is not in the file")) = value;
        out
    }

    #[test]
    fn severe_row_without_miss_rate_fails() {
        // The scanner read the next row's (overload's) miss_rate.
        let broken = without(&json(BENCH_ONLINE), "rows[name=severe].miss_rate");
        assert!(!violations(&broken, "f", ONLINE_RULES).is_empty());
    }

    #[test]
    fn serve_counters_are_read_at_top_level() {
        // The scanner found saturation.requests and server.degraded.
        let serve = json(BENCH_SERVE);
        for path in ["requests", "degraded"] {
            let broken = without(&serve, path);
            assert!(!violations(&broken, "f", SERVE_RULES).is_empty(), "{path}");
        }
    }

    #[test]
    fn solver_counters_are_not_read_from_the_campaign() {
        // The scanner found campaign.counters.candidates.
        let broken = without(&json(BENCH_SOLVER), "after.counters.candidates");
        assert!(!violations(&broken, "f", SOLVER_RULES).is_empty());
    }

    #[test]
    fn campaign_without_solve_calls_fails() {
        let broken = without(&json(BENCH_SOLVER), "campaign.workload.solve_calls");
        assert!(!violations(&broken, "f", CAMPAIGN_RULES).is_empty());
    }

    #[test]
    fn serve_without_differential_checked_fails() {
        let broken = without(&json(BENCH_SERVE), "differential.checked");
        assert!(!violations(&broken, "f", SERVE_RULES).is_empty());
    }

    #[test]
    fn pruned_engine_slower_than_its_reference_fails() {
        // The rate floor compares a smoke run with the committed full
        // workload; the same-run ratio does not depend on either.
        let path = "ratios.unpruned_over_pruned";
        let slower = with(&json(BENCH_SOLVER), path, Value::Number(0.9));
        assert!(!violations(&slower, "f", SOLVER_RULES).is_empty());
    }

    #[test]
    fn served_saturation_far_below_its_inprocess_pass_fails() {
        // The rate floor compares a smoke run with the committed full
        // workload; the same-run ratio does not depend on either.
        let path = "ratios.saturated_over_inprocess";
        let slower = with(&json(BENCH_SERVE), path, Value::Number(0.29));
        assert!(!violations(&slower, "f", SERVE_RULES).is_empty());
    }

    #[test]
    fn zero_baseline_rate_is_a_usage_error() {
        // A zero baseline made the ratio inf, which cleared any floor.
        for (text, path) in [
            (BENCH_SOLVER, "after.solves_per_sec"),
            (BENCH_SERVE, "saturation.solves_per_sec"),
        ] {
            let root = json(text);
            assert!(rate(&root, "f", path).is_ok(), "{path}");
            for bad in [0.0, -1.0, f64::INFINITY] {
                let broken = with(&root, path, Value::Number(bad));
                assert!(rate(&broken, "f", path).is_err(), "{path} = {bad}");
            }
        }
        assert!(rate(&json(BENCH_SERVE), "f", "saturation.absent").is_err());
    }

    #[test]
    fn truncated_files_fail() {
        for (text, rules) in [(BENCH_ONLINE, ONLINE_RULES), (BENCH_SERVE, SERVE_RULES)] {
            let cut = text
                .trim_end()
                .strip_suffix('}')
                .expect("the file ends its object");
            assert!(parse(cut).is_err());
            assert!(fails(cut, rules));
        }
    }

    const SAMPLE: &str = r#"{
  "before": { "seconds": 2.0, "solves_per_sec": 400.5 },
  "after": { "seconds": 0.5, "solves_per_sec": 1601.25 },
  "speedup": 4.0,
  "all_bitwise_equal": true
}"#;

    #[test]
    fn extracts_sectioned_numbers() {
        let root = json(SAMPLE);
        let number = |path| lookup(&root, path).and_then(Value::as_number);
        assert_eq!(number("after.solves_per_sec"), Some(1601.25));
        assert_eq!(number("before.solves_per_sec"), Some(400.5));
        assert_eq!(number("speedup"), Some(4.0));
        assert_eq!(number("after.missing"), None);
        assert_eq!(number("nope.speedup"), None);
        // A path through a scalar is missing too.
        assert_eq!(number("speedup.seconds"), None);
    }

    #[test]
    fn extracts_bools() {
        let root = json(SAMPLE);
        assert_eq!(
            lookup(&root, "all_bitwise_equal").and_then(Value::as_bool),
            Some(true)
        );
        assert!(lookup(&root, "missing").is_none());
        let false_flag = json("{\"all_bitwise_equal\": false}");
        assert_eq!(
            lookup(&false_flag, "all_bitwise_equal").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(holds(&false_flag, "all_bitwise_equal == false"), Ok(true));
        // A bool is not a number, so a bare-path rule finds it missing.
        assert_eq!(
            holds(&false_flag, "all_bitwise_equal"),
            Err("all_bitwise_equal")
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
    "counters": {"plateau_hits": 1710, "candidates": 2786, "scan_breaks": 216, "list_schedule_runs": 506, "list_schedule_tasks": 650000}
  },
  "all_bitwise_equal": true
}"#;
        let root = json(sample);
        for path in SOLVER_RULES {
            if path.starts_with("after.stages.") || path.starts_with("after.counters.") {
                assert_eq!(holds(&root, path), Ok(true), "missing {path}");
            }
        }
        // The pre-rework schema must be recognizably incomplete.
        assert!(lookup(&json(SAMPLE), "after.stages.schedule_seconds").is_none());
        assert!(fails(SAMPLE, SOLVER_RULES));
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
        assert!(!fails(sample, CAMPAIGN_RULES));
    }

    #[test]
    fn campaign_schema_fails_on_missing_or_false_fields() {
        // No campaign section at all.
        assert!(fails("{\"after\": {}}", CAMPAIGN_RULES));
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
        assert!(fails(broken, CAMPAIGN_RULES));
        // A campaign that reports zero solves must fail even if the
        // schema is otherwise complete.
        let empty = broken.replace("\"solve_calls\": 10", "\"solve_calls\": 0");
        assert!(fails(&empty, CAMPAIGN_RULES));
    }

    #[test]
    fn lookup_scopes_the_campaign_flag() {
        let merged = json(
            r#"{"after": {"stages": {"schedule_seconds": 1}},
                "all_bitwise_equal": false,
                "campaign": {"all_bitwise_equal": true}}"#,
        );
        // The campaign's flag, not the outer (false) one.
        assert_eq!(
            holds(&merged, "campaign.all_bitwise_equal == true"),
            Ok(true)
        );
        assert_eq!(holds(&merged, "all_bitwise_equal == true"), Ok(false));
        assert!(lookup(&json("{\"after\": {}}"), "campaign").is_none());
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
  "inprocess": {"lines": 256, "elapsed_seconds": 0.0128, "solves_per_sec": 20000.0},
  "ratios": {"saturated_over_inprocess": 0.41},
  "differential": {"enabled": true, "checked": 232, "all_bitwise_equal": true},
  "server": {"connections": 2, "requests": 232, "panics": 0}
}"#;

    #[test]
    fn serve_schema_passes_on_complete_file() {
        assert!(!fails(SERVE_SAMPLE, SERVE_RULES));
    }

    #[test]
    fn serve_schema_fails_on_missing_or_bad_fields() {
        // Wrong schema marker.
        assert!(fails("{\"schema\": \"other\"}", SERVE_RULES));
        // Differential disabled.
        assert!(fails(
            &SERVE_SAMPLE.replace("\"enabled\": true", "\"enabled\": false"),
            SERVE_RULES
        ));
        // Bitwise mismatch.
        assert!(fails(
            &SERVE_SAMPLE.replace(
                "\"all_bitwise_equal\": true",
                "\"all_bitwise_equal\": false"
            ),
            SERVE_RULES
        ));
        // A caught worker panic.
        assert!(fails(
            &SERVE_SAMPLE.replace("\"panics\": 0", "\"panics\": 1"),
            SERVE_RULES
        ));
        // Missing saturation section.
        assert!(fails(
            &SERVE_SAMPLE.replace("saturation", "saturation_gone"),
            SERVE_RULES
        ));
        // Zero differential coverage.
        assert!(fails(
            &SERVE_SAMPLE.replace("\"checked\": 232", "\"checked\": 0"),
            SERVE_RULES
        ));
    }

    #[test]
    fn lookup_scopes_serve_keys() {
        // "requests" appears at top level, in saturation and in server;
        // each path reads its own.
        let root = json(SERVE_SAMPLE);
        let number = |path| lookup(&root, path).and_then(Value::as_number);
        assert_eq!(number("requests"), Some(96.0));
        assert_eq!(number("saturation.requests"), Some(256.0));
        assert_eq!(number("server.requests"), Some(232.0));
        assert_eq!(number("saturation.solves_per_sec"), Some(8200.0));
        assert_eq!(number("absent.requests"), None);
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
        assert!(!fails(ONLINE_SAMPLE, ONLINE_RULES));
    }

    #[test]
    fn online_schema_fails_on_missing_or_bad_fields() {
        // Wrong schema marker.
        assert!(fails("{\"schema\": \"other\"}", ONLINE_RULES));
        // A caught panic.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"panics\": 0", "\"panics\": 1"),
            ONLINE_RULES
        ));
        // A validator violation.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"violations\": 0", "\"violations\": 3"),
            ONLINE_RULES
        ));
        // Reclamation stopped saving energy.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"reclaimed_j\": 0.0013", "\"reclaimed_j\": -0.002"),
            ONLINE_RULES
        ));
        // Incremental re-solves costlier than from-scratch solves.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"avg_resolve_steps\": 1.15", "\"avg_resolve_steps\": 9.5"),
            ONLINE_RULES
        ));
        // Fault-free runs missing deadlines.
        assert!(fails(
            &ONLINE_SAMPLE.replace(
                "{\"name\": \"none\", \"miss_rate\": 0",
                "{\"name\": \"none\", \"miss_rate\": 0.1"
            ),
            ONLINE_RULES
        ));
        // Severe preset losing every frame.
        assert!(fails(
            &ONLINE_SAMPLE.replace(
                "{\"name\": \"severe\", \"miss_rate\": 0.91",
                "{\"name\": \"severe\", \"miss_rate\": 1.0"
            ),
            ONLINE_RULES
        ));
        // Overload row not shedding.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"shed_rate\": 0.25", "\"shed_rate\": 0"),
            ONLINE_RULES
        ));
        // Missing a row entirely.
        assert!(fails(
            &ONLINE_SAMPLE.replace("\"name\": \"severe\"", "\"name\": \"renamed\""),
            ONLINE_RULES
        ));
    }

    #[test]
    fn row_selector_scopes_to_one_row() {
        let root = json(ONLINE_SAMPLE);
        let number = |path| lookup(&root, path).and_then(Value::as_number);
        assert_eq!(number("rows[name=moderate].miss_rate"), Some(0.41));
        assert_eq!(number("rows[name=overload].shed_rate"), Some(0.25));
        assert_eq!(number("rows[name=absent].miss_rate"), None);
        assert_eq!(number("rows[name=moderate].absent"), None);
        // A selector on a non-array, or a malformed one, finds nothing.
        assert_eq!(number("reclaim[name=none].resolves"), None);
        assert_eq!(number("rows[name].miss_rate"), None);
    }

    #[test]
    fn scientific_notation_parses() {
        let root = json("{\"after\": {\"solves_per_sec\": 2.5315e3}}");
        assert_eq!(
            lookup(&root, "after.solves_per_sec").and_then(Value::as_number),
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
