//! Structural checks for the observability artifacts.
//!
//! Two validators, both built on the dependency-free parser in
//! [`lamps_obs::json`], so the checks share no code with the writers
//! they distrust:
//!
//! * [`check_chrome_trace`] — is this document a Chrome trace-event
//!   JSON file Perfetto / `chrome://tracing` will accept? (Object form
//!   with a `traceEvents` array; every event carries `name`/`ph`/`ts`/
//!   `pid`/`tid`, complete events carry a non-negative `dur`.)
//! * [`check_explain`] — does this document conform to the
//!   `lamps-explain-v3` schema emitted by
//!   [`lamps_core::explain::SolveExplain::to_json`]? (Field presence,
//!   types, and cross-references: `chosen` and `best_level` indices in
//!   range, verdicts consistent with the recorded cutoff, and the
//!   pruning accounting — per-candidate `pruned` flags, the `prune`
//!   counter object, and the cache's plateau/probe counters.)
//!
//! Violations come back as a list of human-readable strings, not a
//! panic, in document order.

use lamps_obs::json::{self, Value};

/// Check `text` as Chrome trace-event JSON. Returns the violations
/// (empty = acceptable).
pub fn check_chrome_trace(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    let Some(events) = v.get("traceEvents") else {
        out.push("missing \"traceEvents\"".to_string());
        return out;
    };
    let Some(events) = events.as_array() else {
        out.push("\"traceEvents\" is not an array".to_string());
        return out;
    };
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("traceEvents[{i}]: {field}");
        if ev.as_object().is_none() {
            out.push(format!("traceEvents[{i}] is not an object"));
            continue;
        }
        if ev.get("name").and_then(Value::as_str).is_none() {
            out.push(ctx("missing string \"name\""));
        }
        let ph = ev.get("ph").and_then(Value::as_str);
        match ph {
            None => out.push(ctx("missing string \"ph\"")),
            Some(ph) if ph.len() != 1 => out.push(ctx("\"ph\" is not a single character")),
            _ => {}
        }
        match ev.get("ts").and_then(Value::as_number) {
            None => out.push(ctx("missing numeric \"ts\"")),
            Some(ts) if ts < 0.0 => out.push(ctx("negative \"ts\"")),
            _ => {}
        }
        if ph == Some("X") {
            match ev.get("dur").and_then(Value::as_number) {
                None => out.push(ctx("complete event missing numeric \"dur\"")),
                Some(d) if d < 0.0 => out.push(ctx("negative \"dur\"")),
                _ => {}
            }
        }
        for required in ["pid", "tid"] {
            if ev.get(required).and_then(Value::as_number).is_none() {
                out.push(ctx(&format!("missing numeric \"{required}\"")));
            }
        }
    }
    out
}

/// Check `text` against the `lamps-explain-v3` schema. Returns the
/// violations (empty = conforming).
pub fn check_explain(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let v = match json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e}")],
    };
    match v.get("schema").and_then(Value::as_str) {
        Some("lamps-explain-v3") => {}
        Some(other) => out.push(format!("unknown schema \"{other}\"")),
        None => out.push("missing string \"schema\"".to_string()),
    }
    if v.get("strategy").and_then(Value::as_str).is_none() {
        out.push("missing string \"strategy\"".to_string());
    }
    if v.get("deadline_s").and_then(Value::as_number).is_none() {
        out.push("missing numeric \"deadline_s\"".to_string());
    }
    if v.get("deadline_cycles")
        .and_then(Value::as_number)
        .is_none()
    {
        out.push("missing numeric \"deadline_cycles\"".to_string());
    }

    match v.get("search").and_then(Value::as_array) {
        None => out.push("missing array \"search\"".to_string()),
        Some(steps) => {
            for (i, s) in steps.iter().enumerate() {
                let ctx = |m: &str| format!("search[{i}]: {m}");
                match s.get("phase").and_then(Value::as_str) {
                    Some("binary_probe" | "linear_scan" | "max_useful" | "fallback") => {}
                    Some(p) => out.push(ctx(&format!("unknown phase \"{p}\""))),
                    None => out.push(ctx("missing string \"phase\"")),
                }
                for f in ["n_procs", "makespan_cycles"] {
                    if s.get(f).and_then(Value::as_number).is_none() {
                        out.push(ctx(&format!("missing numeric \"{f}\"")));
                    }
                }
                for f in ["feasible", "cache_hit"] {
                    if s.get(f).and_then(Value::as_bool).is_none() {
                        out.push(ctx(&format!("missing bool \"{f}\"")));
                    }
                }
            }
        }
    }

    let n_candidates = match v.get("candidates").and_then(Value::as_array) {
        None => {
            out.push("missing array \"candidates\"".to_string());
            0
        }
        Some(cands) => {
            for (i, c) in cands.iter().enumerate() {
                check_candidate(i, c, &mut out);
            }
            cands.len()
        }
    };

    match v.get("chosen") {
        None => out.push("missing \"chosen\"".to_string()),
        Some(Value::Null) => {}
        Some(c) => match c.as_number() {
            Some(idx) if (idx as usize) < n_candidates && idx >= 0.0 => {}
            Some(idx) => out.push(format!(
                "\"chosen\" index {idx} out of range ({n_candidates} candidates)"
            )),
            None => out.push("\"chosen\" is neither null nor a number".to_string()),
        },
    }

    match v.get("cache") {
        None => out.push("missing object \"cache\"".to_string()),
        Some(cache) => {
            for f in [
                "schedule_hits",
                "schedule_misses",
                "summary_hits",
                "summary_misses",
                "plateau_hits",
            ] {
                if cache.get(f).and_then(Value::as_number).is_none() {
                    out.push(format!("cache: missing numeric \"{f}\""));
                }
            }
        }
    }

    match v.get("prune") {
        None => out.push("missing object \"prune\"".to_string()),
        Some(prune) => {
            if prune
                .get("scan_breaks")
                .and_then(Value::as_number)
                .is_none()
            {
                out.push("prune: missing numeric \"scan_breaks\"".to_string());
            }
        }
    }

    match v.get("error") {
        None => out.push("missing \"error\"".to_string()),
        Some(Value::Null) => {}
        Some(e) if e.as_str().is_some() => {}
        Some(_) => out.push("\"error\" is neither null nor a string".to_string()),
    }
    out
}

fn check_candidate(i: usize, c: &Value, out: &mut Vec<String>) {
    let ctx = |m: &str| format!("candidates[{i}]: {m}");
    for f in ["n_procs", "makespan_cycles", "required_freq_hz"] {
        if c.get(f).and_then(Value::as_number).is_none() {
            out.push(ctx(&format!("missing numeric \"{f}\"")));
        }
    }
    if c.get("cache_hit").and_then(Value::as_bool).is_none() {
        out.push(ctx("missing bool \"cache_hit\""));
    }
    let n_levels = match c.get("levels").and_then(Value::as_array) {
        None => {
            out.push(ctx("missing array \"levels\""));
            return;
        }
        Some(levels) => {
            for (j, l) in levels.iter().enumerate() {
                check_level(i, j, l, out);
            }
            levels.len()
        }
    };
    match c.get("best_level") {
        None => out.push(ctx("missing \"best_level\"")),
        Some(Value::Null) => {}
        Some(b) => match b.as_number() {
            Some(idx) if (idx as usize) < n_levels && idx >= 0.0 => {}
            Some(idx) => out.push(ctx(&format!(
                "\"best_level\" index {idx} out of range ({n_levels} levels)"
            ))),
            None => out.push(ctx("\"best_level\" is neither null nor a number")),
        },
    }
}

fn check_level(i: usize, j: usize, l: &Value, out: &mut Vec<String>) {
    let ctx = |m: &str| format!("candidates[{i}].levels[{j}]: {m}");
    for f in ["freq_hz", "vdd", "sleep_episodes"] {
        if l.get(f).and_then(Value::as_number).is_none() {
            out.push(ctx(&format!("missing numeric \"{f}\"")));
        }
    }
    match l.get("energy_j") {
        None => out.push(ctx("missing \"energy_j\"")),
        Some(Value::Null) => {}
        Some(e) if e.as_number().is_some() => {}
        Some(_) => out.push(ctx("\"energy_j\" is neither null nor a number")),
    }
    let ps = match l.get("ps") {
        None => {
            out.push(ctx("missing \"ps\""));
            return;
        }
        Some(Value::Null) => return,
        Some(ps) => ps,
    };
    for f in [
        "cutoff_cycles",
        "sleep_gaps",
        "awake_gaps",
        "sleep_cycles",
        "awake_cycles",
    ] {
        if ps.get(f).and_then(Value::as_number).is_none() {
            out.push(ctx(&format!("ps: missing numeric \"{f}\"")));
        }
    }
    if ps.get("truncated").and_then(Value::as_bool).is_none() {
        out.push(ctx("ps: missing bool \"truncated\""));
    }
    let cutoff = ps.get("cutoff_cycles").and_then(Value::as_number);
    match ps.get("intervals").and_then(Value::as_array) {
        None => out.push(ctx("ps: missing array \"intervals\"")),
        Some(intervals) => {
            for (k, g) in intervals.iter().enumerate() {
                let (len, sleeps) = (
                    g.get("len_cycles").and_then(Value::as_number),
                    g.get("sleeps").and_then(Value::as_bool),
                );
                if g.get("proc").and_then(Value::as_number).is_none()
                    || len.is_none()
                    || sleeps.is_none()
                {
                    out.push(ctx(&format!("ps.intervals[{k}]: malformed verdict")));
                    continue;
                }
                if let (Some(cutoff), Some(len), Some(sleeps)) = (cutoff, len, sleeps) {
                    if sleeps != (len >= cutoff) {
                        out.push(ctx(&format!(
                            "ps.intervals[{k}]: verdict contradicts cutoff ({len} vs {cutoff})"
                        )));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_core::{solve_with_cache_explained, ScheduleCache, SchedulerConfig, Strategy};
    use lamps_taskgraph::GraphBuilder;

    fn graph() -> lamps_taskgraph::TaskGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_task(2);
        let c = b.add_task(8);
        let d = b.add_task(4);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, d).unwrap();
        b.build().unwrap().scale_weights(3_100_000)
    }

    #[test]
    fn real_trace_export_passes() {
        lamps_obs::enable_tracing();
        {
            let _s = lamps_obs::span("verify", "trace_check_test");
            lamps_obs::instant("verify", "tick");
        }
        lamps_obs::disable_tracing();
        let text = lamps_obs::trace::export_chrome_json();
        lamps_obs::trace::take_events();
        assert_eq!(check_chrome_trace(&text), Vec::<String>::new());
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(!check_chrome_trace("not json").is_empty());
        assert!(!check_chrome_trace("{}").is_empty());
        assert!(!check_chrome_trace("{\"traceEvents\": 3}").is_empty());
        let missing_dur =
            r#"{"traceEvents": [{"name": "a", "ph": "X", "ts": 1, "pid": 0, "tid": 0}]}"#;
        let v = check_chrome_trace(missing_dur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("dur"));
        // An instant event does not need a duration.
        let instant = r#"{"traceEvents": [{"name": "a", "ph": "i", "ts": 1, "pid": 0, "tid": 0}]}"#;
        assert!(check_chrome_trace(instant).is_empty());
    }

    #[test]
    fn real_explain_passes_for_every_strategy() {
        let g = graph();
        let cfg = SchedulerConfig::paper();
        let d = 4.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        for s in Strategy::all() {
            let (res, ex) =
                solve_with_cache_explained(s, d, &cfg, &mut ScheduleCache::for_graph(&g));
            res.unwrap();
            assert_eq!(check_explain(&ex.to_json()), Vec::<String>::new(), "{s}");
        }
        // A failed solve still conforms.
        let (_, ex) = solve_with_cache_explained(
            Strategy::Lamps,
            d / 100.0,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
        );
        assert_eq!(check_explain(&ex.to_json()), Vec::<String>::new());
    }

    #[test]
    fn malformed_explains_are_rejected() {
        assert!(!check_explain("not json").is_empty());
        assert!(!check_explain("{}").is_empty());
        let wrong_schema = r#"{"schema": "lamps-explain-v0", "strategy": "LAMPS",
            "deadline_s": 1, "deadline_cycles": 1, "search": [], "candidates": [],
            "chosen": null, "cache": {"schedule_hits": 0, "schedule_misses": 0,
            "summary_hits": 0, "summary_misses": 0, "plateau_hits": 0},
            "prune": {"scan_breaks": 0},
            "error": null}"#;
        let v = check_explain(wrong_schema);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("unknown schema"));
        // Out-of-range chosen index.
        let bad_chosen = wrong_schema
            .replace("lamps-explain-v0", "lamps-explain-v3")
            .replace("\"chosen\": null", "\"chosen\": 2");
        let v = check_explain(&bad_chosen);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("out of range"));
    }

    #[test]
    fn contradictory_ps_verdict_is_caught() {
        let g = graph();
        let cfg = SchedulerConfig::paper();
        let d = 8.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let (res, ex) = solve_with_cache_explained(
            Strategy::LampsPs,
            d,
            &cfg,
            &mut ScheduleCache::for_graph(&g),
        );
        res.unwrap();
        let good = ex.to_json();
        assert!(check_explain(&good).is_empty());
        // Flip one verdict; the checker must notice the contradiction.
        if good.contains("\"sleeps\": true") {
            let bad = good.replacen("\"sleeps\": true", "\"sleeps\": false", 1);
            assert!(
                check_explain(&bad)
                    .iter()
                    .any(|m| m.contains("contradicts")),
                "flipped verdict not caught"
            );
        }
    }
}
