//! `lamps` — command-line front end for leakage-aware scheduling.
//!
//! ```text
//! lamps stats    <graph.stg>
//! lamps schedule <graph.stg> [--strategy lamps-ps] [--factor 2.0]
//!                            [--granularity coarse|fine] [--report] [--gantt]
//!                            [--power-trace <csv>] [--svg <file>]
//!                            [--trace <json>] [--explain] [--explain-json <file>] [--metrics]
//! lamps sweep    <graph.stg> [--strategy lamps-ps] [--from 1.1] [--to 8.0] [--steps 10]
//! lamps limits   <graph.stg> [--factor 2.0] [--granularity coarse|fine]
//! lamps gen      [--tasks 100] [--seed 1] [--parallelism 8.0]   (STG to stdout)
//! lamps dot      <graph.stg>                                    (Graphviz to stdout)
//! ```
//!
//! Graphs are Standard Task Graph Set files; weights are treated as STG
//! units and scaled by the chosen granularity (coarse = 1 ms at f_max,
//! fine = 10 µs).
//!
//! Observability: `--trace <json>` writes a Chrome trace-event file
//! (open in Perfetto / `chrome://tracing`), `--explain` prints the
//! solver decision log as text, `--explain-json <file>` writes it as
//! `lamps-explain-v3` JSON, and `--metrics` dumps the metrics registry
//! after the run. The old per-cycle power CSV moved to `--power-trace`.

use lamps_bench::cli::{or_die, Options};
use lamps_core::limits::{limit_mf, limit_sf};
use lamps_core::pareto::deadline_sweep;
use lamps_core::ScheduleCache;
use lamps_core::{solve_with_cache, solve_with_cache_explained, SchedulerConfig, Strategy};
use lamps_energy::{power_trace, trace_csv};
use lamps_taskgraph::gen::spine::with_parallelism;
use lamps_taskgraph::{dot, stg, TaskGraph};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "stats" => cmd_stats(args),
        "schedule" => cmd_schedule(args),
        "sweep" => cmd_sweep(args),
        "limits" => cmd_limits(args),
        "gen" => cmd_gen(args),
        "dot" => cmd_dot(args),
        other => {
            eprintln!("unknown command {other:?}");
            usage();
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lamps <stats|schedule|sweep|limits|gen|dot> [<graph.stg>] [--flags]\n\
         see the module docs (src/bin/lamps.rs) for flags per command"
    );
    std::process::exit(2)
}

fn take_path(args: &mut Vec<String>) -> String {
    if args.is_empty() || args[0].starts_with("--") {
        eprintln!("expected a graph file path");
        usage();
    }
    args.remove(0)
}

fn load(path: &str) -> TaskGraph {
    stg::read_file(std::path::Path::new(path)).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1)
    })
}

fn granularity(opts: &Options) -> u64 {
    match opts.string("granularity", "coarse").as_str() {
        "coarse" => lamps_taskgraph::COARSE_GRAIN_CYCLES_PER_UNIT,
        "fine" => lamps_taskgraph::FINE_GRAIN_CYCLES_PER_UNIT,
        other => {
            eprintln!("--granularity must be coarse or fine, got {other:?}");
            std::process::exit(2)
        }
    }
}

fn strategy(opts: &Options) -> Strategy {
    match opts.string("strategy", "lamps-ps").as_str() {
        "ss" => Strategy::ScheduleStretch,
        "lamps" => Strategy::Lamps,
        "ss-ps" => Strategy::ScheduleStretchPs,
        "lamps-ps" => Strategy::LampsPs,
        other => {
            eprintln!("--strategy must be ss|lamps|ss-ps|lamps-ps, got {other:?}");
            std::process::exit(2)
        }
    }
}

fn factor(opts: &Options, key: &str, default: f64) -> f64 {
    opts.string(key, &default.to_string())
        .parse()
        .unwrap_or_else(|_| {
            eprintln!("--{key} expects a number");
            std::process::exit(2)
        })
}

fn cmd_stats(mut args: Vec<String>) {
    let path = take_path(&mut args);
    let _ = Options::from_args(args, &[]);
    let g = load(&path);
    let s = g.stats();
    println!("tasks:        {}", s.tasks);
    println!("edges:        {}", s.edges);
    println!("critical path:{} units", s.critical_path_cycles);
    println!("total work:   {} units", s.total_work_cycles);
    println!("parallelism:  {:.2}", s.parallelism());
    println!("sources/sinks:{} / {}", g.sources().len(), g.sinks().len());
}

fn cmd_schedule(mut args: Vec<String>) {
    let path = take_path(&mut args);
    let opts = Options::from_args(
        args,
        &[
            "strategy",
            "factor",
            "granularity",
            "gantt",
            "power-trace",
            "trace",
            "explain",
            "explain-json",
            "metrics",
            "svg",
            "report",
        ],
    );
    let g = load(&path).scale_weights(granularity(&opts));
    let cfg = SchedulerConfig::paper();
    let f = factor(&opts, "factor", 2.0);
    let d = f * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let strat = strategy(&opts);

    // Arm the collectors before solving so the run is fully covered.
    let chrome_path = opts.string("trace", "");
    let explain_json_path = opts.string("explain-json", "");
    let want_explain = opts.flag("explain") || !explain_json_path.is_empty();
    if !chrome_path.is_empty() {
        lamps_obs::enable_tracing();
    }
    if opts.flag("metrics") {
        lamps_obs::enable_metrics();
    }

    let mut cache = ScheduleCache::for_graph(&g);
    let (result, explain) = if want_explain {
        let (r, ex) = solve_with_cache_explained(strat, d, &cfg, &mut cache);
        (r, Some(ex))
    } else {
        (solve_with_cache(strat, d, &cfg, &mut cache), None)
    };
    let stats = cache.stats();
    if let Some(ex) = &explain {
        if opts.flag("explain") {
            print!("{}", ex.render_text());
        }
        if !explain_json_path.is_empty() {
            std::fs::write(&explain_json_path, ex.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {explain_json_path}: {e}");
                std::process::exit(1)
            });
            println!("decision log written to {explain_json_path}");
        }
    }
    match result {
        Ok(sol) => {
            println!(
                "{}: {:.4} J | {} processors | {:.2} V ({:.2} f/fmax) | makespan {:.3} ms of {:.3} ms | {} sleeps",
                strat.name(),
                sol.energy.total(),
                sol.n_procs,
                sol.level.vdd,
                sol.level.freq / cfg.max_frequency(),
                sol.makespan_s * 1e3,
                d * 1e3,
                sol.energy.sleep_episodes
            );
            if opts.flag("report") {
                print!(
                    "{}",
                    lamps_core::report::render_with_stats(&sol, &g, d, &cfg, &stats)
                );
            }
            if opts.flag("gantt") {
                let horizon = (d * sol.level.freq) as u64;
                print!(
                    "{}",
                    lamps_sched::gantt::render(&sol.schedule, &g, horizon, 72)
                );
            }
            let svg_path = opts.string("svg", "");
            if !svg_path.is_empty() {
                let horizon = (d * sol.level.freq) as u64;
                let svg = lamps_viz::gantt_svg(&sol.schedule, &g, horizon);
                std::fs::write(&svg_path, svg).unwrap_or_else(|e| {
                    eprintln!("cannot write {svg_path}: {e}");
                    std::process::exit(1)
                });
                println!("gantt SVG written to {svg_path}");
            }
            let trace_path = opts.string("power-trace", "");
            if !trace_path.is_empty() {
                let trace = or_die(power_trace(
                    &sol.schedule,
                    &sol.level,
                    d,
                    strat.uses_ps().then_some(&cfg.sleep),
                ));
                std::fs::write(&trace_path, trace_csv(&trace)).unwrap_or_else(|e| {
                    eprintln!("cannot write {trace_path}: {e}");
                    std::process::exit(1)
                });
                println!("power trace written to {trace_path}");
            }
            dump_obs(&chrome_path, opts.flag("metrics"));
        }
        Err(e) => {
            eprintln!("infeasible: {e}");
            dump_obs(&chrome_path, opts.flag("metrics"));
            std::process::exit(1)
        }
    }
}

/// Flush the Chrome trace buffer and/or the metrics registry at exit.
fn dump_obs(chrome_path: &str, want_metrics: bool) {
    if !chrome_path.is_empty() {
        std::fs::write(chrome_path, lamps_obs::trace::export_chrome_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {chrome_path}: {e}");
            std::process::exit(1)
        });
        println!("chrome trace written to {chrome_path}");
    }
    if want_metrics {
        print!("{}", lamps_obs::registry::snapshot().render_text());
    }
}

fn cmd_sweep(mut args: Vec<String>) {
    let path = take_path(&mut args);
    let opts = Options::from_args(args, &["strategy", "from", "to", "steps", "granularity"]);
    let g = load(&path).scale_weights(granularity(&opts));
    let cfg = SchedulerConfig::paper();
    let pts = deadline_sweep(
        strategy(&opts),
        &g,
        factor(&opts, "from", 1.1),
        factor(&opts, "to", 8.0),
        opts.usize("steps", 10),
        &cfg,
    )
    .unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1)
    });
    println!(
        "{:>8} {:>12} {:>12} {:>7} {:>6}",
        "factor", "deadline[ms]", "energy[J]", "procs", "Vdd"
    );
    for p in pts {
        println!(
            "{:>8.2} {:>12.2} {:>12.4} {:>7} {:>6.2}",
            p.factor,
            p.deadline_s * 1e3,
            p.energy_j,
            p.n_procs,
            p.vdd
        );
    }
}

fn cmd_limits(mut args: Vec<String>) {
    let path = take_path(&mut args);
    let opts = Options::from_args(args, &["factor", "granularity"]);
    let g = load(&path).scale_weights(granularity(&opts));
    let cfg = SchedulerConfig::paper();
    let d = factor(&opts, "factor", 2.0) * g.critical_path_cycles() as f64 / cfg.max_frequency();
    match limit_sf(&g, d, &cfg) {
        Ok(sf) => println!(
            "LIMIT-SF: {:.4} J at {:.2} V (single constant frequency)",
            sf.energy_j, sf.level.vdd
        ),
        Err(e) => println!("LIMIT-SF: infeasible ({e})"),
    }
    match limit_mf(&g, d, &cfg) {
        Ok(mf) => println!(
            "LIMIT-MF: {:.4} J at the critical level{}",
            mf.energy_j,
            if mf.meets_deadline {
                ""
            } else {
                " (does not meet the deadline — bound only)"
            }
        ),
        Err(e) => println!("LIMIT-MF: rejected ({e})"),
    }
}

fn cmd_gen(args: Vec<String>) {
    let opts = Options::from_args(args, &["tasks", "seed", "parallelism"]);
    let n = opts.usize("tasks", 100);
    let seed = opts.u64("seed", 1);
    let p: f64 = factor(&opts, "parallelism", 8.0);
    let g = with_parallelism(n, p, seed);
    print!("{}", stg::write(&g));
}

fn cmd_dot(mut args: Vec<String>) {
    let path = take_path(&mut args);
    let _ = Options::from_args(args, &[]);
    let g = load(&path);
    print!("{}", dot::to_dot(&g, &path));
}
