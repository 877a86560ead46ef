//! `lamps-benchmark`: one benchmark for the solver, the batch API, the
//! serve daemon and the online runtime. See `benchmark/README.md`.
//!
//! ```text
//! lamps-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--out <dir>]
//! lamps-benchmark run [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]
//! lamps-benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! A single-workload run prints `workload metric value unit` lines, the
//! `ops` and `failed` counts, and as its last line the JSON result
//! object; it exits nonzero when any answer fails its oracle. `run`
//! executes every workload in its own child process, so memory is
//! measured per workload. Run everything from the repository root: the
//! spec is read from `BENCHMARK.json` there.

mod compare;
mod online;
mod report;
mod serve;
mod solver;
mod spec;
mod stats;
mod timing;
mod trace;

use report::Report;
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Input seed: graphs, periodic sets, frame actuals, request order.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// The `serve` daemon binary.
    pub serve_bin: PathBuf,
}

/// Set-ups timed per run; `setup_s` is their median, so one slow
/// repetition cannot move it.
pub const SETUP_REPS: usize = 9;

/// Run `make` [`SETUP_REPS`] times; return the last product and the
/// median time in seconds, scaled to the reference machine speed.
pub fn timed_setup<T>(mut make: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    let before = timing::calibrate(1);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(make()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let k = timing::scale(before, timing::calibrate(1));
    Ok((
        last.expect("at least one repetition"),
        stats::median(&times) * k,
    ))
}

/// `VmHWM` (peak resident set) of process `pid` in MiB, from procfs.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Write `text` to `path`, creating its directory.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.push((key.to_string(), v));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v:?}")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k} (known: {})", known.join(", "))),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("lamps-benchmark: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let spec_path = args.get("spec").unwrap_or("BENCHMARK.json").to_string();
    let spec = Spec::load(&spec_path)?;
    match args.positional.first().map(String::as_str) {
        Some("compare") => {
            args.check_known(&["spec"])?;
            let [_, parent, change] = &args.positional[..] else {
                return Err("usage: compare <parent-dir> <change-dir>".into());
            };
            let regressed = compare::run(&spec, Path::new(parent), Path::new(change))?;
            Ok(if regressed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some("run") => {
            args.check_known(&["spec", "seed", "seconds", "trace", "out"])?;
            run_all(&args, &spec)
        }
        None => {
            args.check_known(&[
                "spec",
                "workload",
                "seed",
                "seconds",
                "trace",
                "out",
                "serve-bin",
            ])?;
            run_one(&args, &spec)
        }
        Some(other) => Err(format!("unknown command {other:?} (run, compare)")),
    }
}

fn trace_flag(args: &Args) -> Result<bool, String> {
    match args.get("trace").unwrap_or("0") {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

fn run_one(args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !spec.workloads.iter().any(|w| w == workload) {
        return Err(format!(
            "unknown workload {workload:?} (known: {})",
            spec.workloads.join(", ")
        ));
    }
    let seconds: f64 = args.num("seconds", spec.run_seconds as f64)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let serve_bin = match args.get("serve-bin") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("serve"),
    };
    let ctx = Ctx {
        seed: args.num("seed", 2006)?,
        seconds,
        traced: trace_flag(args)?,
        serve_bin,
    };
    let out = PathBuf::from(args.get("out").unwrap_or("benchmark/out"));

    let mut rep = Report::default();
    let mut tracer = ctx.traced.then(Tracer::new);
    match workload {
        "fig10" => solver::fig10(&ctx, &mut rep, tracer.as_mut())?,
        "campaign" => solver::campaign(&ctx, &mut rep, tracer.as_mut())?,
        "serve_small" => serve::run(&ctx, &serve::SMALL, &mut rep, tracer.as_mut())?,
        "serve_large" => serve::run(&ctx, &serve::LARGE, &mut rep, tracer.as_mut())?,
        "online" => online::run(&ctx, &mut rep, tracer.as_mut())?,
        _ => unreachable!("checked against the spec above"),
    }
    rep.finish(spec, ctx.traced)?;

    let dir = if ctx.traced { out.join("trace") } else { out };
    if let Some(t) = &tracer {
        write_file(
            &dir.join(format!("{workload}.spans.json")),
            &t.to_json(workload),
        )?;
    }
    write_file(
        &dir.join(format!("{workload}-{}.json", ctx.seed)),
        &rep.record(workload, ctx.seed, spec, ctx.traced),
    )?;
    for note in &rep.notes {
        eprintln!("{workload}: oracle failure: {note}");
    }
    print!("{}", rep.text(workload, spec, ctx.traced));
    println!("{}", rep.json(spec, ctx.traced));
    Ok(if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each in its own child process, plus the machine
/// block beside the results.
fn run_all(args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    let out = PathBuf::from(args.get("out").unwrap_or("benchmark/out"));
    let seed: u64 = args.num("seed", 2006)?;
    let seconds: f64 = args.num("seconds", spec.run_seconds as f64)?;
    let traced = trace_flag(args)?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    write_file(&out.join("machine.json"), &machine_json())?;
    let mut ok = true;
    for workload in &spec.workloads {
        let t0 = Instant::now();
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--out", &out.to_string_lossy()])
            .args(["--spec", args.get("spec").unwrap_or("BENCHMARK.json")])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        eprintln!(
            "{workload}: exit {} after {:.1} s",
            status.code().unwrap_or(-1),
            t0.elapsed().as_secs_f64()
        );
        ok &= status.success();
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `{"nproc": .., "rustc": ".."}` for the results directory.
fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let mut out = String::from("{\"machine\":{\"nproc\":");
    out.push_str(&nproc.to_string());
    out.push_str(",\"rustc\":");
    lamps_obs::json::write_string(&mut out, &rustc);
    out.push_str("}}\n");
    out
}
