//! Campaign-scale solver benchmark: ≥1M solves through the batch API
//! plus a 100k-task giant-graph group.
//!
//! Where `throughput` times the paper's 608-solve Fig. 10 workload,
//! this binary drives the solver the way the ROADMAP's run-time
//! re-solve scenario does: a corpus of tens of thousands of small task
//! graphs (the "campaign"), each solved under every deadline factor ×
//! strategy, plus one 100 000-task STG-style graph that the indexed
//! ready-queue must schedule without heap blowup.
//!
//! Three service models are timed over the same cells so their costs
//! are directly comparable:
//!
//! * **batch** — [`evaluate_graphs`]: graph-granularity jobs over the
//!   shared pool, warm [`CacheBuffers`] per worker, one `LevelSweep`
//!   per chunk. The headline figure.
//! * **grouped** — one fresh [`ScheduleCache`] per *graph*, cells
//!   solved through [`solve_with_cache`] (the `throughput` binary's
//!   methodology).
//! * **per_request** — one fresh cache per *solve call* (the naive
//!   service model), measured on a subsample because it repeats the
//!   list scheduling work up to 16×.
//!
//! Correctness is held the same way as `throughput`: the grouped pass
//! re-solves the **entire** corpus and its per-strategy energy totals
//! must match the batch pass bit-for-bit; a strided subsample is
//! additionally re-solved through [`solve_with_cache_unpruned`] on a
//! shortcut-free cache and compared cell by cell; and the giant graph's
//! batch cells are pinned against grouped solves. One differing bit
//! aborts the run with `all_bitwise_equal: false`.
//!
//! The results are merged into the `throughput` JSON (default
//! `BENCH_solver.json`) as a top-level `"campaign"` section, replacing
//! any previous one, so the `--baseline` machinery and the `gate`
//! binary see one file. If the out file is missing or foreign, a
//! standalone `{"campaign": ...}` document is written instead.

use lamps_bench::cli::Options;
use lamps_bench::suite::DEADLINE_FACTORS;
use lamps_bench::timing::{min_over_reps, sample_seconds};
use lamps_core::cache::ScheduleCache;
use lamps_core::{
    evaluate_graphs, solve_with_cache, solve_with_cache_unpruned, BatchCell, BatchJob,
    SchedulerConfig, SolveError, Strategy,
};
use lamps_obs::json::{parse, Value};
use lamps_sched::latest_finish_times;
use lamps_sched::list::{list_schedule_into, ListScheduleWorkspace};
use lamps_taskgraph::gen::layered::{generate, stg_group, LayeredConfig};
use lamps_taskgraph::{TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};
use std::fmt::Write as _;

/// Small-graph sizes the campaign corpus cycles through (STG units,
/// scaled to coarse grain) — the size band of the run-time re-solve
/// scenario, not the Fig. 10 band.
const CAMPAIGN_SIZES: [usize; 3] = [10, 20, 40];

/// Batch chunk size: jobs per [`evaluate_graphs`] call. Bounds retained
/// cells to one chunk's worth while still amortizing pool dispatch and
/// the per-call `LevelSweep` over thousands of graphs.
const CHUNK_JOBS: usize = 4096;

/// Per-strategy energy totals in workload order plus solve counts —
/// the campaign's bitwise-comparison unit (sequential f64 accumulation
/// in job order, so two passes over the same cells must agree exactly).
#[derive(Default, Clone, Copy, PartialEq)]
struct Totals {
    per_strategy: [f64; 4],
    solve_calls: usize,
    solved: usize,
}

impl Totals {
    fn add(&mut self, strategy_idx: usize, energy: Option<f64>) {
        self.solve_calls += 1;
        if let Some(e) = energy {
            self.per_strategy[strategy_idx] += e;
            self.solved += 1;
        }
    }

    fn bitwise_eq(&self, other: &Totals) -> bool {
        self.solve_calls == other.solve_calls
            && self.solved == other.solved
            && self
                .per_strategy
                .iter()
                .zip(&other.per_strategy)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The campaign corpus: graphs plus their per-graph deadline lists.
struct Corpus {
    graphs: Vec<TaskGraph>,
    deadlines: Vec<Vec<f64>>,
}

impl Corpus {
    fn jobs(&self) -> Vec<BatchJob<'_>> {
        self.graphs
            .iter()
            .zip(&self.deadlines)
            .map(|(graph, d)| BatchJob {
                graph,
                deadlines_s: d,
            })
            .collect()
    }
}

fn build_corpus(total_graphs: usize, seed: u64, cfg: &SchedulerConfig) -> Corpus {
    let per_size = total_graphs / CAMPAIGN_SIZES.len();
    let mut graphs: Vec<TaskGraph> = Vec::with_capacity(total_graphs);
    for (i, &n) in CAMPAIGN_SIZES.iter().enumerate() {
        let count = if i == 0 {
            total_graphs - per_size * (CAMPAIGN_SIZES.len() - 1)
        } else {
            per_size
        };
        graphs.extend(
            stg_group(n, count, seed.wrapping_add(i as u64))
                .into_iter()
                .map(|g| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT)),
        );
    }
    let deadlines = graphs
        .iter()
        .map(|g| {
            let cpl_s = g.critical_path_cycles() as f64 / cfg.max_frequency();
            DEADLINE_FACTORS.iter().map(|f| f * cpl_s).collect()
        })
        .collect();
    Corpus { graphs, deadlines }
}

type CellRow = Vec<Result<BatchCell, SolveError>>;

/// One batch pass over the whole corpus in chunks. Returns the running
/// totals plus the retained cell rows of every `stride`-th graph (for
/// the unpruned differential); everything else is dropped as it is
/// billed so a million-solve campaign never holds a million cells.
fn run_batch(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
    stride: usize,
) -> (Totals, Vec<(usize, CellRow)>) {
    let mut totals = Totals::default();
    let mut kept = Vec::new();
    for (chunk_idx, chunk) in jobs.chunks(CHUNK_JOBS).enumerate() {
        let rows = evaluate_graphs(strategies, cfg, chunk);
        for (j, row) in rows.iter().enumerate() {
            let job_idx = chunk_idx * CHUNK_JOBS + j;
            for (k, cell) in row.iter().enumerate() {
                totals.add(
                    k % strategies.len(),
                    cell.as_ref().ok().map(|c| c.energy.total()),
                );
            }
            if job_idx % stride == 0 {
                kept.push((job_idx, row.to_vec()));
            }
        }
    }
    (totals, kept)
}

/// Grouped service model: one fresh cache per graph (the `throughput`
/// methodology), cells in the same deadline-major order as the batch.
fn run_grouped(strategies: &[Strategy], cfg: &SchedulerConfig, jobs: &[BatchJob<'_>]) -> Totals {
    let mut totals = Totals::default();
    for job in jobs {
        let mut cache = ScheduleCache::for_graph(job.graph);
        for &d in job.deadlines_s {
            for (si, &s) in strategies.iter().enumerate() {
                totals.add(
                    si,
                    solve_with_cache(s, d, cfg, &mut cache)
                        .ok()
                        .map(|sol| sol.energy.total()),
                );
            }
        }
    }
    totals
}

/// Naive service model: a fresh cache per solve call.
fn run_per_request(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    jobs: &[BatchJob<'_>],
) -> Totals {
    let mut totals = Totals::default();
    for job in jobs {
        for &d in job.deadlines_s {
            for (si, &s) in strategies.iter().enumerate() {
                let mut cache = ScheduleCache::for_graph(job.graph);
                totals.add(
                    si,
                    solve_with_cache(s, d, cfg, &mut cache)
                        .ok()
                        .map(|sol| sol.energy.total()),
                );
            }
        }
    }
    totals
}

/// Compare one batch cell row against shortcut-free unpruned re-solves
/// of the same graph. Returns false (and prints the first divergence)
/// if any bit differs.
fn unpruned_row_matches(
    strategies: &[Strategy],
    cfg: &SchedulerConfig,
    job: &BatchJob<'_>,
    row: &CellRow,
) -> bool {
    let mut cache = ScheduleCache::for_graph(job.graph);
    let mut k = 0;
    for &d in job.deadlines_s {
        for &s in strategies.iter() {
            let reference = solve_with_cache_unpruned(s, d, cfg, &mut cache);
            let ok = match (&row[k], &reference) {
                (Ok(a), Ok(b)) => {
                    a.n_procs as usize == b.n_procs
                        && a.makespan_cycles == b.makespan_cycles
                        && a.freq.to_bits() == b.level.freq.to_bits()
                        && a.makespan_s().to_bits() == b.makespan_s.to_bits()
                        && a.energy.total().to_bits() == b.energy.total().to_bits()
                }
                (Err(a), Err(b)) => format!("{a}") == format!("{b}"),
                _ => false,
            };
            if !ok {
                eprintln!(
                    "campaign DIVERGENCE: {s} @ {d}s: batch {:?} vs unpruned reference",
                    row[k]
                );
                return false;
            }
            k += 1;
        }
    }
    true
}

/// The giant-graph group: schedule-only throughput plus full solves.
struct GiantReport {
    tasks: usize,
    generate_s: f64,
    /// Pure list-scheduling floor over several processor counts.
    schedule_s: f64,
    schedule_runs: usize,
    tasks_per_sec: f64,
    /// 16 cells (factors × strategies) through the batch API.
    solve_s: f64,
    solve_calls: usize,
    solved: usize,
    bitwise_equal: bool,
}

fn run_giant(tasks: usize, seed: u64, cfg: &SchedulerConfig, reps: usize) -> GiantReport {
    let (generate_s, graph) = sample_seconds(|| {
        let layer_cfg = LayeredConfig {
            n_tasks: tasks,
            n_layers: (tasks / 40).max(2),
            ..LayeredConfig::default()
        };
        generate(&layer_cfg, seed).scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT)
    });
    let cpl = graph.critical_path_cycles();

    // Pure scheduling floor: warm workspace, EDF keys, three processor
    // counts. This is the number that exposes heap blowup — the old
    // three-BinaryHeap scheduler degraded superlinearly here.
    let keys = latest_finish_times(&graph, cpl.saturating_mul(2));
    let proc_counts = [1usize, 8, 32];
    let mut ws = ListScheduleWorkspace::new();
    for &n in &proc_counts {
        list_schedule_into(&mut ws, &graph, n, &keys); // cold: buffers grow here
    }
    let (schedule_s, _) = min_over_reps(reps, || {
        let mut makespan = 0;
        for &n in &proc_counts {
            makespan = list_schedule_into(&mut ws, &graph, n, &keys);
        }
        makespan
    });
    let schedule_runs = proc_counts.len();
    let tasks_per_sec = (graph.len() * schedule_runs) as f64 / schedule_s;

    // Full solves: all factors × strategies as one batch job, pinned
    // bitwise against grouped solve_with_cache on a fresh cache.
    let deadlines: Vec<f64> = {
        let cpl_s = cpl as f64 / cfg.max_frequency();
        DEADLINE_FACTORS.iter().map(|f| f * cpl_s).collect()
    };
    let job = BatchJob {
        graph: &graph,
        deadlines_s: &deadlines,
    };
    let strategies = Strategy::all();
    let (solve_s, rows) = sample_seconds(|| evaluate_graphs(&strategies, cfg, &[job]));
    let row = &rows[0];
    let solved = row.iter().filter(|c| c.is_ok()).count();

    let mut cache = ScheduleCache::for_graph(&graph);
    let mut bitwise_equal = true;
    let mut k = 0;
    for &d in &deadlines {
        for &s in strategies.iter() {
            let reference = solve_with_cache(s, d, cfg, &mut cache);
            bitwise_equal &= match (&row[k], &reference) {
                (Ok(a), Ok(b)) => {
                    a.n_procs as usize == b.n_procs
                        && a.energy.total().to_bits() == b.energy.total().to_bits()
                }
                (Err(a), Err(b)) => format!("{a}") == format!("{b}"),
                _ => false,
            };
            k += 1;
        }
    }

    GiantReport {
        tasks: graph.len(),
        generate_s,
        schedule_s,
        schedule_runs,
        tasks_per_sec,
        solve_s,
        solve_calls: row.len(),
        solved,
        bitwise_equal,
    }
}

/// Counters the campaign section records (measured as a delta over one
/// counted batch subsample, like `throughput` does).
const COUNTER_NAMES: [(&str, &str); 8] = [
    ("batch_calls", "core.batch.calls"),
    ("batch_items", "core.batch.items"),
    ("schedule_hits", "core.cache.schedule_hits"),
    ("schedule_misses", "core.cache.schedule_misses"),
    ("plateau_hits", "core.cache.plateau_hits"),
    ("candidates", "core.scan.candidates"),
    ("list_schedule_runs", "sched.list_schedule.runs"),
    ("list_schedule_tasks", "sched.list_schedule.tasks"),
];

fn counters_now() -> [u64; COUNTER_NAMES.len()] {
    let snap = lamps_obs::registry::snapshot();
    let mut out = [0u64; COUNTER_NAMES.len()];
    for (i, (_, metric)) in COUNTER_NAMES.iter().enumerate() {
        out[i] = snap.counter(metric).unwrap_or(0);
    }
    out
}

/// What the `--baseline` file recorded: the single-solve headline rate
/// (`after.solves_per_sec`) and, when a campaign section already
/// exists, its batch rate.
struct Baseline {
    source: String,
    single_solve_rate: Option<f64>,
    batch_rate: Option<f64>,
}

fn read_baseline(path: &str) -> Baseline {
    let mut b = Baseline {
        source: path.to_string(),
        single_solve_rate: None,
        batch_rate: None,
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        return b;
    };
    let Ok(root) = parse(&text) else {
        return b;
    };
    b.single_solve_rate = root
        .get("after")
        .and_then(|a| a.get("solves_per_sec"))
        .and_then(Value::as_number);
    b.batch_rate = root
        .get("campaign")
        .and_then(|c| c.get("rates"))
        .and_then(|r| r.get("batch_solves_per_sec"))
        .and_then(Value::as_number);
    b
}

/// Splice the campaign object into an existing `throughput` JSON as its
/// last top-level key (replacing a previous campaign section), or wrap
/// it standalone when the base file is missing or not ours.
fn merge_campaign(base: Option<&str>, campaign_json: &str) -> String {
    if let Some(base) = base {
        let head = match base.find(",\n  \"campaign\":") {
            Some(i) => Some(&base[..i]),
            None => base
                .trim_end()
                .strip_suffix('}')
                .map(|h| h.trim_end())
                .filter(|h| !h.is_empty() && parse(base).is_ok()),
        };
        if let Some(head) = head {
            return format!("{head},\n  \"campaign\": {campaign_json}\n}}\n");
        }
    }
    format!("{{\n  \"campaign\": {campaign_json}\n}}\n")
}

fn main() {
    let opts = Options::parse(&[
        "graphs",
        "seed",
        "out",
        "smoke",
        "reps",
        "baseline",
        "sample",
        "stride",
        "giant-tasks",
    ]);
    let smoke = opts.flag("smoke");
    let total_graphs = opts
        .usize("graphs", if smoke { 400 } else { 62_500 })
        .max(CAMPAIGN_SIZES.len());
    let seed = opts.u64("seed", 2006);
    let out = opts.string("out", "BENCH_solver.json");
    let reps = opts.usize("reps", if smoke { 2 } else { 1 }).max(1);
    let baseline_path = opts.string("baseline", "BENCH_solver.json");
    let sample_graphs = opts
        .usize("sample", if smoke { 100 } else { 2_000 })
        .clamp(1, total_graphs);
    let stride = opts.usize("stride", if smoke { 10 } else { 50 }).max(1);
    let giant_tasks = opts.usize("giant-tasks", if smoke { 20_000 } else { 100_000 });

    let cfg = SchedulerConfig::paper();
    let strategies = Strategy::all();
    let strategy_names = ["ss", "lamps", "ss_ps", "lamps_ps"];
    let baseline = read_baseline(&baseline_path);

    let (generate_s, corpus) = sample_seconds(|| build_corpus(total_graphs, seed, &cfg));
    let jobs = corpus.jobs();
    let solve_calls = jobs.len() * DEADLINE_FACTORS.len() * strategies.len();
    eprintln!(
        "campaign: {} graphs (sizes {CAMPAIGN_SIZES:?}, coarse grain) x {} factors x {} strategies = {solve_calls} solves, seed {seed}",
        jobs.len(),
        DEADLINE_FACTORS.len(),
        strategies.len(),
    );

    // Headline: the batch API over the whole corpus (min over reps).
    let (batch_s, (batch_totals, kept)) =
        min_over_reps(reps, || run_batch(&strategies, &cfg, &jobs, stride));
    let batch_rate = batch_totals.solve_calls as f64 / batch_s;
    let ns_per_solve = 1e9 * batch_s / batch_totals.solve_calls as f64;
    eprintln!(
        "batch: {batch_s:.3} s (min of {reps}), {batch_rate:.1} solves/s, {ns_per_solve:.0} ns/solve, {}/{} solved",
        batch_totals.solved, batch_totals.solve_calls
    );

    // Full-corpus differential: the grouped pass must reproduce every
    // energy bit the batch produced.
    let (grouped_s, grouped_totals) = sample_seconds(|| run_grouped(&strategies, &cfg, &jobs));
    let grouped_rate = grouped_totals.solve_calls as f64 / grouped_s;
    let grouped_equal = grouped_totals.bitwise_eq(&batch_totals);
    eprintln!(
        "grouped: {grouped_s:.3} s, {grouped_rate:.1} solves/s, totals bitwise_equal={grouped_equal}"
    );

    // Naive model on a subsample (it redoes the list scheduling per
    // cell, so the full corpus would mostly measure redundant work).
    let sample_jobs = &jobs[..sample_graphs];
    let (per_request_s, per_request_totals) =
        min_over_reps(reps, || run_per_request(&strategies, &cfg, sample_jobs));
    let per_request_rate = per_request_totals.solve_calls as f64 / per_request_s;
    eprintln!(
        "per_request: {per_request_s:.3} s over {} sampled graphs, {per_request_rate:.1} solves/s",
        sample_jobs.len()
    );

    // Shortcut-free anchor: every retained stride row re-solved through
    // the unpruned engine on a shortcut-free cache.
    let (unpruned_s, unpruned_equal) = sample_seconds(|| {
        kept.iter()
            .all(|(job_idx, row)| unpruned_row_matches(&strategies, &cfg, &jobs[*job_idx], row))
    });
    eprintln!(
        "unpruned reference: {} strided graphs in {unpruned_s:.3} s, bitwise_equal={unpruned_equal}",
        kept.len()
    );

    // Giant-graph group: 100k tasks through the indexed ready-queue.
    let giant = run_giant(giant_tasks, seed ^ 0x6147, &cfg, reps);
    eprintln!(
        "giant: {} tasks generated in {:.3} s; schedule {:.3} s for {} runs ({:.3e} tasks/s); {} solves in {:.3} s ({}/{} solved, bitwise_equal={})",
        giant.tasks,
        giant.generate_s,
        giant.schedule_s,
        giant.schedule_runs,
        giant.tasks_per_sec,
        giant.solve_calls,
        giant.solve_s,
        giant.solved,
        giant.solve_calls,
        giant.bitwise_equal
    );

    // Counter delta over one counted batch subsample.
    lamps_obs::enable_metrics();
    let c0 = counters_now();
    let (counted_totals, _) = run_batch(&strategies, &cfg, sample_jobs, usize::MAX);
    let c1 = counters_now();
    lamps_obs::disable_metrics();
    let mut counters = [0u64; COUNTER_NAMES.len()];
    for i in 0..COUNTER_NAMES.len() {
        counters[i] = c1[i].saturating_sub(c0[i]);
    }
    assert_eq!(
        counted_totals.solve_calls,
        sample_jobs.len() * DEADLINE_FACTORS.len() * strategies.len(),
        "counted subsample ran a different workload"
    );

    let all_equal = grouped_equal && unpruned_equal && giant.bitwise_equal;
    let vs_single_solve = baseline
        .single_solve_rate
        .map(|r| batch_rate / r)
        .unwrap_or(f64::NAN);
    match baseline.single_solve_rate {
        Some(r) => eprintln!(
            "baseline {}: {r:.1} single-solve solves/s recorded -> batch is {vs_single_solve:.2}x (different workload: campaign-size graphs){}",
            baseline.source,
            baseline
                .batch_rate
                .map(|b| format!("; previous campaign batch rate {b:.1}"))
                .unwrap_or_default()
        ),
        None => eprintln!(
            "baseline {}: no after.solves_per_sec — no comparison figure",
            baseline.source
        ),
    }

    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "    \"smoke\": {smoke},");
    let _ = writeln!(j, "    \"seed\": {seed},");
    let _ = writeln!(j, "    \"workload\": {{");
    let _ = writeln!(j, "      \"graphs\": {},", jobs.len());
    let _ = writeln!(
        j,
        "      \"graph_sizes\": [{}],",
        CAMPAIGN_SIZES.map(|n| n.to_string()).join(", ")
    );
    let _ = writeln!(
        j,
        "      \"deadline_factors\": [{}],",
        DEADLINE_FACTORS.map(|f| f.to_string()).join(", ")
    );
    let _ = writeln!(
        j,
        "      \"strategies\": [{}],",
        strategy_names.map(|s| format!("\"{s}\"")).join(", ")
    );
    let _ = writeln!(j, "      \"solve_calls\": {},", batch_totals.solve_calls);
    let _ = writeln!(j, "      \"solved\": {},", batch_totals.solved);
    let _ = writeln!(j, "      \"sample_graphs\": {},", sample_jobs.len());
    let _ = writeln!(j, "      \"unpruned_stride\": {stride}");
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"stages\": {{");
    let _ = writeln!(j, "      \"generate_seconds\": {generate_s},");
    let _ = writeln!(j, "      \"batch_seconds\": {batch_s},");
    let _ = writeln!(j, "      \"grouped_seconds\": {grouped_s},");
    let _ = writeln!(j, "      \"per_request_seconds\": {per_request_s},");
    let _ = writeln!(j, "      \"unpruned_reference_seconds\": {unpruned_s}");
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"rates\": {{");
    let _ = writeln!(j, "      \"batch_solves_per_sec\": {batch_rate},");
    let _ = writeln!(j, "      \"grouped_solves_per_sec\": {grouped_rate},");
    let _ = writeln!(
        j,
        "      \"per_request_solves_per_sec\": {per_request_rate},"
    );
    let _ = writeln!(j, "      \"ns_per_solve_batch\": {ns_per_solve}");
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"baseline\": {{");
    let _ = writeln!(j, "      \"source\": \"{}\",", baseline.source);
    let _ = writeln!(
        j,
        "      \"single_solve_solves_per_sec\": {},",
        baseline
            .single_solve_rate
            .map_or("null".into(), |r| r.to_string())
    );
    let _ = writeln!(
        j,
        "      \"batch_solves_per_sec\": {},",
        baseline.batch_rate.map_or("null".into(), |r| r.to_string())
    );
    let _ = writeln!(j, "      \"batch_vs_single_solve\": {vs_single_solve},");
    let _ = writeln!(
        j,
        "      \"note\": \"single-solve baseline is the Fig. 10 workload (50-5000 task graphs); the campaign corpus is {}-{} task graphs\"",
        CAMPAIGN_SIZES[0],
        CAMPAIGN_SIZES[CAMPAIGN_SIZES.len() - 1]
    );
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"giant\": {{");
    let _ = writeln!(j, "      \"tasks\": {},", giant.tasks);
    let _ = writeln!(j, "      \"generate_seconds\": {},", giant.generate_s);
    let _ = writeln!(j, "      \"schedule_seconds\": {},", giant.schedule_s);
    let _ = writeln!(j, "      \"schedule_runs\": {},", giant.schedule_runs);
    let _ = writeln!(
        j,
        "      \"schedule_tasks_per_sec\": {},",
        giant.tasks_per_sec
    );
    let _ = writeln!(j, "      \"solve_seconds\": {},", giant.solve_s);
    let _ = writeln!(j, "      \"solve_calls\": {},", giant.solve_calls);
    let _ = writeln!(j, "      \"solved\": {},", giant.solved);
    let _ = writeln!(j, "      \"bitwise_equal\": {}", giant.bitwise_equal);
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"counters\": {{");
    for (i, (key, _)) in COUNTER_NAMES.iter().enumerate() {
        let _ = writeln!(
            j,
            "      \"{key}\": {}{}",
            counters[i],
            if i + 1 < COUNTER_NAMES.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"all_bitwise_equal\": {all_equal}");
    j.push_str("  }");

    let base = std::fs::read_to_string(&out).ok();
    let merged = merge_campaign(base.as_deref(), &j);
    std::fs::write(&out, &merged).expect("write campaign JSON");
    eprintln!("wrote campaign section into {out}");

    assert!(
        all_equal,
        "batch, grouped, and unpruned-reference results must agree bit-for-bit"
    );
}
