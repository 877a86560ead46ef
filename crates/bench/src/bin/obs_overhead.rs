//! `obs_overhead` — cost of the observability layer on the solver hot path.
//!
//! Three engines run the throughput smoke workload back to back,
//! interleaved per repetition so thermal / scheduler drift hits all of
//! them equally, keeping the minimum wall time of each:
//!
//! * **baseline** — a reimplementation of the optimized search on the
//!   public cache/energy APIs with no observability calls at the solve
//!   layer;
//! * **disabled** — the real [`solve_with_cache`] with metrics, tracing
//!   and the flight recorder off, i.e. the instrumentation compiled in
//!   but reduced to relaxed atomic loads;
//! * **enabled** — the real solver under the daemon's *always-on*
//!   observability (metrics + the flight recorder; tracing stays the
//!   opt-in `--trace` flag it is in `serve`), each solve bracketed by
//!   the same solve-start/solve-done journal events a serve worker
//!   records.
//!
//! Two gates: `disabled / baseline − 1 ≤ --max-overhead` (default 2%)
//! and `enabled / baseline − 1 ≤ --max-enabled-overhead` (default 5%).
//! Per-strategy energy totals of all three engines must agree
//! bit-for-bit, proving the instrumentation never perturbs results.
//! Results are written to `--out` and spliced into BENCH_solver.json as
//! an `"obs_overhead"` section (`--bench`, empty to skip).

use lamps_bench::cli::Options;
use lamps_bench::suite::{Granularity, Suite, DEADLINE_FACTORS};
use lamps_bench::timing::{sample_seconds, MinSeconds};
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_with_cache, SchedulerConfig, Strategy};
use lamps_energy::evaluate_summary;
use lamps_sched::IdleSummary;
use lamps_taskgraph::TaskGraph;
use std::fmt::Write as _;

/// Slowest-to-fastest level sweep over the idle summary, identical in
/// shape to the solver's internal sweep but with zero obs bookkeeping.
fn baseline_best_level(
    summary: &IdleSummary,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    ps: bool,
) -> Option<f64> {
    let required = summary.makespan_cycles() as f64 / deadline_s;
    let sleep = ps.then_some(&cfg.sleep);
    let mut best: Option<f64> = None;
    for level in cfg.levels.at_least(required) {
        let Ok(energy) = evaluate_summary(summary, level, deadline_s, sleep) else {
            continue;
        };
        let total = energy.total();
        if best.is_none_or(|b| total < b) {
            best = Some(total);
        }
        if !ps {
            break;
        }
    }
    best
}

/// The optimized search (§4.1–§4.3) on the public cache API, without
/// the span/counter/stats wrapper of [`solve_with_cache`]. The chosen
/// schedule is taken as an `Arc` exactly like the real solver does, so
/// the only difference between the engines is the instrumentation
/// itself.
fn baseline_solve(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Option<f64> {
    let deadline_cycles = cfg.deadline_cycles(deadline_s);
    if graph.critical_path_cycles() > deadline_cycles {
        return None;
    }
    let ps = strategy.uses_ps();
    let (best_n, best_energy) = if strategy.searches_proc_count() {
        let n_min = cache.min_feasible_procs(deadline_cycles)?;
        let mut best: Option<(usize, f64)> = None;
        let mut prev_makespan: Option<u64> = None;
        for n in n_min..=graph.len().max(1) {
            let makespan = cache.makespan(n);
            if let Some(prev) = prev_makespan {
                if makespan >= prev {
                    break;
                }
            }
            prev_makespan = Some(makespan);
            if let Some(e) = baseline_best_level(cache.summary(n), deadline_s, cfg, ps) {
                if best.is_none_or(|(_, b)| e < b) {
                    best = Some((n, e));
                }
            }
        }
        best?
    } else {
        let mut n = cache.max_useful_procs();
        if cache.makespan(n) > deadline_cycles {
            n = cache.min_feasible_procs(deadline_cycles)?;
        }
        (
            n,
            baseline_best_level(cache.summary(n), deadline_s, cfg, ps)?,
        )
    };
    let _schedule = cache.schedule_arc(best_n);
    Some(best_energy)
}

/// The real solver, adapted to the engine signature [`run`] expects.
fn instrumented_solve(
    strategy: Strategy,
    _graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Option<f64> {
    solve_with_cache(strategy, deadline_s, cfg, cache)
        .ok()
        .map(|s| s.energy.total())
}

/// The enabled engine: the real solver with a serve-style flight
/// lifecycle journaled around every solve, so the 5% enabled gate pays
/// for the recorder's ring writes exactly like a daemon worker does.
fn instrumented_solve_flight(
    strategy: Strategy,
    graph: &TaskGraph,
    deadline_s: f64,
    cfg: &SchedulerConfig,
    cache: &mut ScheduleCache<'_>,
) -> Option<f64> {
    lamps_obs::flight::record(lamps_obs::flight::SERVE_SOLVE_START, 0, 0, 0);
    let r = instrumented_solve(strategy, graph, deadline_s, cfg, cache);
    lamps_obs::flight::record(lamps_obs::flight::SERVE_SOLVE_DONE, 0, 0, 0);
    r
}

/// Run the whole workload through one engine, accumulating per-strategy
/// energy totals in the same order as `throughput` does.
fn run<F>(graphs: &[TaskGraph], cfg: &SchedulerConfig, mut engine: F) -> [f64; 4]
where
    F: FnMut(Strategy, &TaskGraph, f64, &SchedulerConfig, &mut ScheduleCache<'_>) -> Option<f64>,
{
    let mut totals = [0.0f64; 4];
    for graph in graphs {
        let mut cache = ScheduleCache::for_graph(graph);
        for &factor in &DEADLINE_FACTORS {
            let deadline_s = factor * graph.critical_path_cycles() as f64 / cfg.max_frequency();
            for (si, strategy) in Strategy::all().into_iter().enumerate() {
                if let Some(e) = engine(strategy, graph, deadline_s, cfg, &mut cache) {
                    totals[si] += e;
                }
            }
        }
    }
    totals
}

/// Splice `section` into a hand-written BENCH JSON file as the
/// `"obs_overhead"` key, replacing any section a previous run appended.
fn splice_bench(text: &str, section: &str) -> String {
    let mut base = text.trim_end().to_string();
    // This binary always appends the section last, so an existing one
    // runs to the final closing brace.
    if let Some(i) = base.find(",\n  \"obs_overhead\"") {
        base.truncate(i);
    } else {
        base = base
            .trim_end_matches('}')
            .trim_end()
            .trim_end_matches(',')
            .to_string();
    }
    format!("{base},\n  \"obs_overhead\": {section}\n}}\n")
}

/// Parent mode: run `trials` child measurements in fresh processes and
/// gate on the minimum overhead across them (see `main` for why).
#[allow(clippy::too_many_arguments)]
fn run_trials(
    trials: usize,
    reps: usize,
    inner: usize,
    seed: u64,
    out: &str,
    bench_path: &str,
    max_overhead: f64,
    max_enabled_overhead: f64,
    full: bool,
) {
    use lamps_obs::json::{parse, Value};
    let exe = std::env::current_exe().expect("current executable path");
    let mut best_disabled = f64::INFINITY;
    let mut best_enabled = f64::INFINITY;
    let mut all_equal = true;
    let mut last_trial_json = String::new();
    for k in 0..trials {
        let trial_out = format!("{out}.trial{k}");
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--trials", "1"])
            .args(["--reps", &reps.to_string()])
            .args(["--inner", &inner.to_string()])
            .args(["--seed", &seed.to_string()])
            .args(["--out", &trial_out])
            .args(["--bench", ""])
            // The child never gates; this parent decides.
            .args(["--max-overhead", "1e18"])
            .args(["--max-enabled-overhead", "1e18"]);
        if full {
            cmd.arg("--full");
        }
        let status = cmd.status().expect("spawn child trial");
        assert!(status.success(), "trial {k} failed");
        let text = std::fs::read_to_string(&trial_out).expect("read trial JSON");
        let root = parse(&text).expect("parse trial JSON");
        let section = root.get("obs_overhead").expect("obs_overhead section");
        let num = |key: &str| {
            section
                .get(key)
                .and_then(Value::as_number)
                .unwrap_or_else(|| panic!("trial JSON missing {key}"))
        };
        let dis = num("disabled_overhead");
        let ena = num("enabled_overhead");
        all_equal &= section
            .get("all_bitwise_equal")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        eprintln!(
            "trial {k}: disabled {:+.2}%, enabled {:+.2}%",
            100.0 * dis,
            100.0 * ena
        );
        best_disabled = best_disabled.min(dis);
        best_enabled = best_enabled.min(ena);
        last_trial_json = text;
        let _ = std::fs::remove_file(&trial_out);
    }

    let fast_enough = best_disabled <= max_overhead;
    let enabled_fast_enough = best_enabled <= max_enabled_overhead;
    let pass = fast_enough && enabled_fast_enough && all_equal;
    eprintln!(
        "over {trials} trials: disabled {:+.2}% (min), enabled {:+.2}% (min), bitwise_equal={all_equal}",
        100.0 * best_disabled,
        100.0 * best_enabled
    );

    let mut section = String::from("{\n");
    let _ = writeln!(section, "    \"trials\": {trials},");
    let _ = writeln!(section, "    \"reps\": {reps},");
    let _ = writeln!(section, "    \"inner\": {inner},");
    let _ = writeln!(section, "    \"disabled_overhead\": {best_disabled},");
    let _ = writeln!(section, "    \"enabled_overhead\": {best_enabled},");
    let _ = writeln!(section, "    \"max_disabled_overhead\": {max_overhead},");
    let _ = writeln!(
        section,
        "    \"max_enabled_overhead\": {max_enabled_overhead},"
    );
    let _ = writeln!(section, "    \"all_bitwise_equal\": {all_equal},");
    let _ = writeln!(section, "    \"pass\": {pass}");
    section.push_str("  }");
    let json = format!(
        "{{\n  \"benchmark\": \"observability overhead\",\n  \"obs_overhead\": {section},\n  \"last_trial\": {}\n}}\n",
        last_trial_json.trim_end()
    );
    if let Some(dir) = std::path::Path::new(out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out, &json).expect("write overhead JSON");
    eprintln!("wrote {out}");
    if !bench_path.is_empty() {
        match std::fs::read_to_string(bench_path) {
            Ok(text) => {
                std::fs::write(bench_path, splice_bench(&text, &section))
                    .expect("write bench JSON");
                eprintln!("updated {bench_path} with the obs_overhead section");
            }
            Err(e) => eprintln!("note: {bench_path} not updated ({e})"),
        }
    }
    assert!(all_equal, "instrumentation changed solver energies");
    if !fast_enough {
        eprintln!(
            "obs_overhead FAILURE: disabled-path overhead {:+.2}% exceeds the {:.0}% gate",
            100.0 * best_disabled,
            100.0 * max_overhead
        );
        std::process::exit(1);
    }
    if !enabled_fast_enough {
        eprintln!(
            "obs_overhead FAILURE: enabled-path overhead {:+.2}% exceeds the {:.0}% gate",
            100.0 * best_enabled,
            100.0 * max_enabled_overhead
        );
        std::process::exit(1);
    }
    eprintln!("obs_overhead clean");
}

fn main() {
    let opts = Options::parse(&[
        "reps",
        "inner",
        "trials",
        "seed",
        "out",
        "bench",
        "max-overhead",
        "max-enabled-overhead",
        "full",
    ]);
    let reps = opts.usize("reps", 25);
    // Each timed sample runs the workload `inner` times so one sample is
    // ~10 ms — a 2% gate on a ~1 ms sample would be noise.
    let inner = opts.usize("inner", 10).max(1);
    let trials = opts.usize("trials", 3).max(1);
    let seed = opts.u64("seed", 2006);
    let out = opts.string("out", "target/obs_overhead.json");
    let bench_path = opts.string("bench", "BENCH_solver.json");
    let max_overhead = opts.f64("max-overhead", 0.02);
    let max_enabled_overhead = opts.f64("max-enabled-overhead", 0.05);

    // Within one process the min-of-N samples are tight, but run-to-run
    // they shift by several percent either way (code placement / ASLR /
    // physical page luck — classic measurement-bias territory). One
    // wall-clock trial therefore cannot support a 2% gate. The default
    // mode re-executes this binary `trials` times and keeps the minimum
    // measured overhead: layout noise is roughly symmetric around the
    // true cost, so the minimum of a few trials bounds it from below
    // while a real regression (which every layout pays) survives.
    if trials > 1 {
        run_trials(
            trials,
            reps,
            inner,
            seed,
            &out,
            &bench_path,
            max_overhead,
            max_enabled_overhead,
            opts.flag("full"),
        );
        return;
    }

    let suite = if opts.flag("full") {
        Suite::paper(5, seed)
    } else {
        Suite::smoke()
    };
    let cfg = SchedulerConfig::paper();
    let unit = Granularity::Coarse.cycles_per_unit();
    let graphs: Vec<TaskGraph> = suite
        .groups
        .into_iter()
        .flat_map(|g| g.graphs.into_iter().map(|graph| graph.scale_weights(unit)))
        .collect();
    let cells = graphs.len() * DEADLINE_FACTORS.len() * Strategy::all().len();
    eprintln!(
        "obs_overhead: {} graphs x {} factors x {} strategies ({cells} cells), {reps} reps x {inner} inner",
        graphs.len(),
        DEADLINE_FACTORS.len(),
        Strategy::all().len(),
    );

    // Warm caches, the allocator, and the CPU governor before timing.
    let _ = run(&graphs, &cfg, baseline_solve);
    let _ = run(&graphs, &cfg, instrumented_solve);

    // The interleaved min-of-samples discipline lives in
    // `lamps_bench::timing` (shared with `throughput`): noise on a
    // shared machine is one-sided, so the minimum over many short
    // samples estimates each engine's true floor; a real x% overhead
    // survives the minimum, noise does not. Baseline/disabled order
    // alternates per rep so neither engine systematically inherits a
    // cold state.
    let mut t_baseline = MinSeconds::new();
    let mut t_disabled = MinSeconds::new();
    let mut t_enabled = MinSeconds::new();
    let mut totals: Option<([f64; 4], [f64; 4], [f64; 4])> = None;
    for rep in 0..reps {
        let sample_base = || {
            sample_seconds(|| {
                let mut base = [0.0; 4];
                for _ in 0..inner {
                    base = run(&graphs, &cfg, baseline_solve);
                }
                base
            })
        };
        let sample_dis = || {
            sample_seconds(|| {
                let mut dis = [0.0; 4];
                for _ in 0..inner {
                    dis = run(&graphs, &cfg, instrumented_solve);
                }
                dis
            })
        };
        let ((rep_base, base), (rep_dis, dis)) = if rep % 2 == 0 {
            let b = sample_base();
            let d = sample_dis();
            (b, d)
        } else {
            let d = sample_dis();
            let b = sample_base();
            (b, d)
        };
        t_baseline.record(rep_base);
        t_disabled.record(rep_dis);

        // The always-on daemon configuration: metrics + flight. Tracing
        // is per-run opt-in (`serve --trace`) and not part of what the
        // enabled gate promises; the flight ring is bounded by design
        // and just wraps, so nothing needs draining between passes.
        lamps_obs::enable_metrics();
        lamps_obs::enable_flight();
        let (rep_ena, ena) = sample_seconds(|| {
            let mut ena = [0.0; 4];
            for _ in 0..inner {
                ena = run(&graphs, &cfg, instrumented_solve_flight);
            }
            ena
        });
        t_enabled.record(rep_ena);
        lamps_obs::disable_metrics();
        lamps_obs::disable_flight();

        totals.get_or_insert((base, dis, ena));
    }
    let (t_baseline, t_disabled, t_enabled) = (
        t_baseline.seconds(),
        t_disabled.seconds(),
        t_enabled.seconds(),
    );

    let (base, dis, ena) = totals.expect("at least one rep");
    let mut all_equal = true;
    let strategies = ["ss", "lamps", "ss_ps", "lamps_ps"];
    for (si, name) in strategies.iter().enumerate() {
        let equal =
            base[si].to_bits() == dis[si].to_bits() && base[si].to_bits() == ena[si].to_bits();
        all_equal &= equal;
        eprintln!(
            "energy[{name}]: baseline {:.9e} J, disabled {:.9e} J, enabled {:.9e} J, bitwise_equal={equal}",
            base[si], dis[si], ena[si]
        );
    }

    let overhead_disabled = t_disabled / t_baseline - 1.0;
    let overhead_enabled = t_enabled / t_baseline - 1.0;
    eprintln!(
        "baseline {t_baseline:.4} s | disabled {t_disabled:.4} s ({:+.2}%) | enabled {t_enabled:.4} s ({:+.2}%)",
        100.0 * overhead_disabled,
        100.0 * overhead_enabled
    );

    // NaN (zero-time runs) must fail, so test for the passing condition.
    let fast_enough = overhead_disabled <= max_overhead;
    let enabled_fast_enough = overhead_enabled <= max_enabled_overhead;
    let pass = fast_enough && enabled_fast_enough && all_equal;

    let mut section = String::from("{\n");
    let _ = writeln!(section, "    \"workload_cells\": {cells},");
    let _ = writeln!(section, "    \"reps\": {reps},");
    let _ = writeln!(section, "    \"baseline_seconds\": {t_baseline},");
    let _ = writeln!(section, "    \"disabled_seconds\": {t_disabled},");
    let _ = writeln!(section, "    \"enabled_seconds\": {t_enabled},");
    let _ = writeln!(section, "    \"disabled_overhead\": {overhead_disabled},");
    let _ = writeln!(section, "    \"enabled_overhead\": {overhead_enabled},");
    let _ = writeln!(section, "    \"max_disabled_overhead\": {max_overhead},");
    let _ = writeln!(
        section,
        "    \"max_enabled_overhead\": {max_enabled_overhead},"
    );
    let _ = writeln!(section, "    \"all_bitwise_equal\": {all_equal},");
    let _ = writeln!(section, "    \"pass\": {pass}");
    section.push_str("  }");

    let json = format!(
        "{{\n  \"benchmark\": \"observability overhead\",\n  \"obs_overhead\": {section}\n}}\n"
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &json).expect("write overhead JSON");
    eprintln!("wrote {out}");

    if !bench_path.is_empty() {
        match std::fs::read_to_string(&bench_path) {
            Ok(text) => {
                std::fs::write(&bench_path, splice_bench(&text, &section))
                    .expect("write bench JSON");
                eprintln!("updated {bench_path} with the obs_overhead section");
            }
            Err(e) => eprintln!("note: {bench_path} not updated ({e})"),
        }
    }

    assert!(all_equal, "instrumentation changed solver energies");
    if !fast_enough {
        eprintln!(
            "obs_overhead FAILURE: disabled-path overhead {:.2}% exceeds the {:.0}% gate",
            100.0 * overhead_disabled,
            100.0 * max_overhead
        );
        std::process::exit(1);
    }
    if !enabled_fast_enough {
        eprintln!(
            "obs_overhead FAILURE: enabled-path overhead {:.2}% exceeds the {:.0}% gate",
            100.0 * overhead_enabled,
            100.0 * max_enabled_overhead
        );
        std::process::exit(1);
    }
    eprintln!("obs_overhead clean");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_appends_and_replaces() {
        let fresh = "{\n  \"speedup\": 4.0,\n  \"all_bitwise_equal\": true\n}\n";
        let spliced = splice_bench(fresh, "{\n    \"pass\": true\n  }");
        assert!(spliced.contains("\"speedup\": 4.0"));
        assert!(spliced.contains("\"obs_overhead\": {"));
        assert!(spliced.trim_end().ends_with('}'));
        // A second splice replaces, never duplicates.
        let again = splice_bench(&spliced, "{\n    \"pass\": false\n  }");
        assert_eq!(again.matches("obs_overhead").count(), 1);
        assert!(again.contains("\"pass\": false"));
        assert!(again.contains("\"all_bitwise_equal\": true"));
    }
}
