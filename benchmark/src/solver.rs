//! The single-solve (`fig10`) and batch (`campaign`) workloads, and the
//! solver stage replay the traced runs of every solver-driven workload
//! share.
//!
//! `fig10` is the paper's Fig. 10 suite at coarse grain: few, large
//! graphs, where list scheduling dominates a cold solve. `campaign` is
//! thousands of small graphs through the batch API, where the candidate
//! scan and energy billing dominate instead. Both check every cell's
//! energy bit pattern against an oracle already in the repository.

use crate::report::Report;
use crate::timing::{calibrate, scale, Passes};
use crate::trace::Tracer;
use crate::{peak_rss_mib, timed_setup, Ctx};
use lamps_core::cache::{CacheStats, ScheduleCache};
use lamps_core::{
    evaluate_graphs, solve_with_cache, solve_with_cache_unpruned, BatchJob, SchedulerConfig,
    Solution, SolveError, Strategy,
};
use lamps_energy::LevelSweep;
use lamps_taskgraph::apps::proxies;
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};
use std::hint::black_box;
use std::time::Instant;

/// Deadline factors of Figs. 10–11: deadline = factor × critical path
/// at the maximum frequency.
pub const FACTORS: [f64; 4] = [1.5, 2.0, 4.0, 8.0];
/// Cells per graph: factors × strategies, deadline-major (the batch
/// API's order).
const CELLS: usize = 16;
/// Index of S&S, the paper's baseline, in `Strategy::all()`.
const SS: usize = 0;
/// Index of LAMPS+PS, the paper's headline strategy.
const LAMPS_PS: usize = 3;
/// The energy bit pattern recorded for a cell whose solve failed; no
/// energy the solver bills has it.
const ERR_BITS: u64 = u64::MAX;

/// Node counts of the random groups of Fig. 10.
const FIG10_SIZES: [usize; 7] = [50, 100, 500, 1000, 2000, 2500, 5000];
/// Graphs per Fig. 10 group: enough that a run's cost stays steady
/// from seed to seed.
const FIG10_PER_GROUP: usize = 20;
/// Small-graph sizes of the campaign corpus.
const CAMPAIGN_SIZES: [usize; 3] = [10, 20, 40];
/// Campaign graphs per size.
const CAMPAIGN_PER_SIZE: usize = 4000;
/// Jobs per `evaluate_graphs` call: enough to amortize the pool's
/// dispatch, small enough that a run times a few hundred calls.
const CHUNK_JOBS: usize = 1024;
/// Every `UNPRUNED_STRIDE`-th campaign graph is re-solved unpruned.
const UNPRUNED_STRIDE: usize = 50;
/// Timed passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 4;

/// Graphs with their deadlines, one row of [`FACTORS`] per graph.
pub struct Corpus {
    /// The graphs, weights in cycles.
    pub graphs: Vec<TaskGraph>,
    /// `FACTORS × critical path / f_max` per graph.
    pub deadlines: Vec<[f64; 4]>,
}

impl Corpus {
    /// Attach the deadline row of every graph.
    pub fn new(graphs: Vec<TaskGraph>, cfg: &SchedulerConfig) -> Corpus {
        let deadlines = graphs
            .iter()
            .map(|g| FACTORS.map(|f| f * g.critical_path_cycles() as f64 / cfg.max_frequency()))
            .collect();
        Corpus { graphs, deadlines }
    }

    /// Solve calls in one pass.
    pub fn cells(&self) -> usize {
        self.graphs.len() * CELLS
    }
}

/// The energy bit pattern of one solve.
fn cell_bits(r: &Result<Solution, SolveError>) -> u64 {
    r.as_ref().map_or(ERR_BITS, |s| s.energy.total().to_bits())
}

/// LAMPS+PS over S&S energy, summed over every cell of `bits`.
fn energy_ratio(bits: &[u64]) -> f64 {
    let (mut ss, mut lamps_ps) = (0.0, 0.0);
    for row in bits.chunks(4) {
        ss += f64::from_bits(row[SS]);
        lamps_ps += f64::from_bits(row[LAMPS_PS]);
    }
    lamps_ps / ss
}

/// Count cells whose bits differ from `oracle`, and the failed solves.
pub fn check_cells(rep: &mut Report, got: &[u64], oracle: &[u64], what: &str) {
    let mismatched =
        got.iter().zip(oracle).filter(|(a, b)| a != b).count() + got.len().abs_diff(oracle.len());
    rep.fail(
        mismatched as u64,
        format!("{what}: energy bits differ from the oracle"),
    );
    let errors = got.iter().filter(|&&b| b == ERR_BITS).count();
    rep.fail(errors as u64, format!("{what}: solve returned an error"));
}

/// Solve every cell of the graphs `pick` selects, one fresh cache per
/// graph, single-threaded. Returns the bits (in corpus order, selected
/// graphs only), the seconds per selected graph, and the cache stats.
pub fn solve_grouped(
    corpus: &Corpus,
    cfg: &SchedulerConfig,
    unpruned: bool,
    pick: impl Fn(usize) -> bool,
) -> (Vec<u64>, Vec<(usize, f64)>, CacheStats) {
    let strategies = Strategy::all();
    let mut bits = Vec::new();
    let mut seconds = Vec::new();
    let mut stats = CacheStats::default();
    for (i, (g, ds)) in corpus.graphs.iter().zip(&corpus.deadlines).enumerate() {
        if !pick(i) {
            continue;
        }
        let t0 = Instant::now();
        let mut cache = ScheduleCache::for_graph(g);
        cache.set_shortcuts_enabled(!unpruned);
        for &d in ds {
            for &s in &strategies {
                let r = if unpruned {
                    solve_with_cache_unpruned(s, d, cfg, &mut cache)
                } else {
                    solve_with_cache(s, d, cfg, &mut cache)
                };
                bits.push(cell_bits(&r));
            }
        }
        seconds.push((i, t0.elapsed().as_secs_f64()));
        let s = cache.stats();
        stats.schedule_hits += s.schedule_hits;
        stats.schedule_misses += s.schedule_misses;
        stats.plateau_hits += s.plateau_hits;
    }
    (bits, seconds, stats)
}

/// Sum of the per-graph seconds [`solve_grouped`] returns.
pub fn total_seconds(per_graph: &[(usize, f64)]) -> f64 {
    per_graph.iter().map(|(_, s)| s).sum()
}

/// `count` equal-probability strata of [0, 1) in a seeded order, one
/// uniform draw inside each.
fn strata(count: usize, rng: &mut Rng) -> Vec<f64> {
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
        .into_iter()
        .map(|k| (k as f64 + rng.gen_range(0.0..1.0)) / count as f64)
        .collect()
}

/// `count` STG-style graphs of `n_tasks` tasks at coarse grain, drawn
/// from the distribution of the repository's `stg_group` (log-uniform
/// parallelism up to min(48, n/4), mean in-degree 1.2–3.0, skip-edge
/// probability 0.05–0.3) but stratified: each parameter takes one value
/// from each of `count` equal-probability strata. A graph's solve cost
/// depends mostly on its parallelism, so independent draws make a small
/// group's cost swing by half between seeds; stratified draws cover the
/// same range on every seed.
pub fn stratified_group(n_tasks: usize, count: usize, seed: u64) -> Vec<TaskGraph> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5354_5241_5441);
    let (par, deg, skip) = (
        strata(count, &mut rng),
        strata(count, &mut rng),
        strata(count, &mut rng),
    );
    let p_max = (n_tasks as f64 / 4.0).clamp(1.5, 48.0);
    (0..count)
        .map(|i| {
            let p = (par[i] * p_max.ln()).exp().max(1.0);
            let cfg = LayeredConfig {
                n_tasks,
                n_layers: ((n_tasks as f64 / p).round() as usize).clamp(2, n_tasks),
                mean_in_degree: 1.2 + 1.8 * deg[i],
                skip_prob: 0.05 + 0.25 * skip[i],
                ..LayeredConfig::default()
            };
            generate(&cfg, rng.next_u64()).scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT)
        })
        .collect()
}

fn fig10_graphs(seed: u64) -> Vec<TaskGraph> {
    let mut graphs = Vec::new();
    for (i, &n) in FIG10_SIZES.iter().enumerate() {
        graphs.extend(stratified_group(
            n,
            FIG10_PER_GROUP,
            seed.wrapping_add(i as u64),
        ));
    }
    graphs.extend(
        proxies::all()
            .into_iter()
            .map(|(_, g)| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT)),
    );
    graphs
}

fn campaign_graphs(seed: u64) -> Vec<TaskGraph> {
    let mut graphs = Vec::with_capacity(CAMPAIGN_SIZES.len() * CAMPAIGN_PER_SIZE);
    for (i, &n) in CAMPAIGN_SIZES.iter().enumerate() {
        graphs.extend(stratified_group(
            n,
            CAMPAIGN_PER_SIZE,
            seed.wrapping_add(i as u64),
        ));
    }
    graphs
}

/// Whether the pass with index `i` is traced: in a traced run, odd
/// passes record spans and even ones do not, so the overhead is
/// measured on interleaved passes of one process.
fn pass_traced(tracer: &Option<&mut Tracer>, i: usize) -> bool {
    tracer.is_some() && i % 2 == 1
}

/// The `fig10` workload: 2288 solves per pass through
/// `solve_with_cache`, a fresh cache per graph per pass, one caller.
pub fn fig10(ctx: &Ctx, rep: &mut Report, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
    let cfg = SchedulerConfig::paper();
    let (corpus, setup_s) = timed_setup(|| Ok(Corpus::new(fig10_graphs(ctx.seed), &cfg)))?;
    let strategies = Strategy::all();

    // Oracle, untimed: every shortcut off, the reference engine.
    let (oracle, unpruned_s, _) = solve_grouped(&corpus, &cfg, true, |_| true);

    let mut passes = [Passes::default(), Passes::default()]; // [untraced, traced]
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut bits = Vec::with_capacity(corpus.cells());
    let t_run = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let traced = pass_traced(&tracer, pass);
        bits.clear();
        latencies_ns.clear();
        let before = calibrate(1);
        let root = traced.then(|| {
            tracer
                .as_mut()
                .expect("traced")
                .open("fig10.pass", pass as u64)
        });
        let t0 = Instant::now();
        for (g, ds) in corpus.graphs.iter().zip(&corpus.deadlines) {
            let mut cache = ScheduleCache::for_graph(g);
            for &d in ds {
                for &s in &strategies {
                    let c0 = Instant::now();
                    let r = solve_with_cache(s, d, &cfg, &mut cache);
                    let c1 = Instant::now();
                    if traced {
                        let t = tracer.as_mut().expect("traced");
                        t.record("core.solve", c0, c1, bits.len() as u64);
                    }
                    latencies_ns.push((c1 - c0).as_nanos() as u64);
                    bits.push(cell_bits(&r));
                }
            }
        }
        let pass_s = t0.elapsed().as_secs_f64();
        if let Some(idx) = root {
            tracer.as_mut().expect("traced").close(idx);
        }
        let k = scale(before, calibrate(1));
        passes[traced as usize].add_rate(k, bits.len(), pass_s);
        passes[traced as usize].add_latencies(k, &mut latencies_ns);
        check_cells(rep, &bits, &oracle, "fig10 pass vs unpruned");
        rep.attempted += bits.len() as u64;
        pass += 1;
    }

    if let Some(t) = tracer {
        replay_stages(&corpus, &cfg, t, &oracle, rep);
        let (_, prod_s, _) = solve_grouped(&corpus, &cfg, false, |_| true);
        rep.set(
            "core.unpruned_ratio",
            total_seconds(&unpruned_s) / total_seconds(&prod_s),
        );
        passes[0].report(rep);
        rep.set(
            "trace.overhead_frac",
            Passes::overhead_frac(&passes[0], &passes[1]),
        );
    } else {
        rep.set("setup_s", setup_s);
        rep.set("energy_ratio", energy_ratio(&oracle));
        rep.set("peak_rss_mb", peak_rss_mib("self")?);
    }
    Ok(())
}

/// The `campaign` workload: 192k solves per pass through
/// `evaluate_graphs` on the repository's worker pool.
pub fn campaign(
    ctx: &Ctx,
    rep: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let cfg = SchedulerConfig::paper();
    let (corpus, setup_s) = timed_setup(|| Ok(Corpus::new(campaign_graphs(ctx.seed), &cfg)))?;
    let jobs: Vec<BatchJob<'_>> = corpus
        .graphs
        .iter()
        .zip(&corpus.deadlines)
        .map(|(graph, d)| BatchJob {
            graph,
            deadlines_s: d,
        })
        .collect();
    let strategies = Strategy::all();

    // Oracles, untimed: grouped `solve_with_cache` over the whole corpus,
    // and the unpruned engine on a strided subsample of it.
    let (oracle, grouped_s, _) = solve_grouped(&corpus, &cfg, false, |_| true);
    let (unpruned, unpruned_s, _) =
        solve_grouped(&corpus, &cfg, true, |i| i % UNPRUNED_STRIDE == 0);
    let strided: Vec<u64> = oracle
        .chunks(CELLS)
        .step_by(UNPRUNED_STRIDE)
        .flatten()
        .copied()
        .collect();
    check_cells(rep, &strided, &unpruned, "campaign grouped vs unpruned");

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut passes = [Passes::default(), Passes::default()];
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut bits = Vec::with_capacity(corpus.cells());
    let t_run = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let traced = pass_traced(&tracer, pass);
        bits.clear();
        latencies_ns.clear();
        let before = calibrate(nproc);
        let mut busy = 0.0;
        for (k, chunk) in jobs.chunks(CHUNK_JOBS).enumerate() {
            let c0 = Instant::now();
            let rows = evaluate_graphs(&strategies, &cfg, chunk);
            let c1 = Instant::now();
            busy += (c1 - c0).as_secs_f64();
            if traced {
                let t = tracer.as_mut().expect("traced");
                t.record("core.evaluate_graphs", c0, c1, k as u64);
            }
            latencies_ns.push((c1 - c0).as_nanos() as u64);
            for row in &rows {
                bits.extend(
                    row.iter()
                        .map(|c| c.as_ref().map_or(ERR_BITS, |c| c.energy.total().to_bits())),
                );
            }
        }
        let k = scale(before, calibrate(nproc));
        passes[traced as usize].add_rate(k, bits.len(), busy);
        passes[traced as usize].add_latencies(k, &mut latencies_ns);
        check_cells(rep, &bits, &oracle, "campaign batch vs grouped");
        rep.attempted += bits.len() as u64;
        pass += 1;
    }

    if let Some(t) = tracer {
        // One more pass with the repository's counters on: the pool's
        // own per-worker busy time against the calls' wall time.
        let busy_us = || {
            lamps_obs::registry::snapshot()
                .histogram("core.batch.worker_busy_us")
                .map_or(0, |(_, sum, _)| sum)
        };
        lamps_obs::enable_metrics();
        let busy0 = busy_us();
        let mut wall_s = 0.0;
        for chunk in jobs.chunks(CHUNK_JOBS) {
            let c0 = Instant::now();
            black_box(evaluate_graphs(&strategies, &cfg, chunk));
            wall_s += c0.elapsed().as_secs_f64();
        }
        let busy_s = busy_us().saturating_sub(busy0) as f64 * 1e-6;
        lamps_obs::disable_metrics();
        let strided_s: Vec<(usize, f64)> = grouped_s
            .iter()
            .copied()
            .filter(|(i, _)| i % UNPRUNED_STRIDE == 0)
            .collect();
        replay_stages(&corpus, &cfg, t, &oracle, rep);
        rep.set(
            "core.unpruned_ratio",
            total_seconds(&unpruned_s) / total_seconds(&strided_s),
        );
        rep.set(
            "parallel.batch_efficiency",
            busy_s / (wall_s * nproc.min(CHUNK_JOBS) as f64),
        );
        passes[0].report(rep);
        rep.set(
            "trace.overhead_frac",
            Passes::overhead_frac(&passes[0], &passes[1]),
        );
    } else {
        rep.set("setup_s", setup_s);
        rep.set("energy_ratio", energy_ratio(&oracle));
        rep.set("peak_rss_mb", peak_rss_mib("self")?);
    }
    Ok(())
}

/// Replay one cold pass over `corpus` stage by stage and set the
/// `sched`, `core` and `energy` per-layer metrics.
///
/// A cold solve of each graph's cells (with the repository's counters
/// switched on) shows which processor counts it schedules. A fresh
/// cache (`core.cache_build`) then schedules exactly those counts
/// (`sched.list_schedule`), builds their idle summaries
/// (`sched.idle_summary`), and solves the cells again with every
/// schedule cached (`core.scan_bill`), each stage in its own span.
/// Finally every cached summary is billed at every level that fits,
/// with and without shutdown (`energy.bill`). The four solve stages
/// should sum to the cold pass.
pub fn replay_stages(
    corpus: &Corpus,
    cfg: &SchedulerConfig,
    tracer: &mut Tracer,
    oracle: &[u64],
    rep: &mut Report,
) {
    let strategies = Strategy::all();
    let counter = |name: &str| lamps_obs::registry::snapshot().counter(name).unwrap_or(0);
    const COUNTERS: [&str; 5] = [
        "sched.list_schedule.runs",
        "sched.list_schedule.tasks",
        "core.scan.candidates",
        "core.prune.sweeps_skipped",
        "core.prune.scan_breaks",
    ];
    lamps_obs::enable_metrics();
    let before = COUNTERS.map(counter);
    let mut counts: Vec<Vec<usize>> = Vec::with_capacity(corpus.graphs.len());
    let mut stats = CacheStats::default();
    let mut cold_s = 0.0;
    let mut cold_bits = Vec::with_capacity(corpus.cells());
    for (g, ds) in corpus.graphs.iter().zip(&corpus.deadlines) {
        let t0 = Instant::now();
        let mut cache = ScheduleCache::for_graph(g);
        for &d in ds {
            for &s in &strategies {
                cold_bits.push(cell_bits(&solve_with_cache(s, d, cfg, &mut cache)));
            }
        }
        cold_s += t0.elapsed().as_secs_f64();
        counts.push((1..=g.len()).filter(|&n| cache.is_cached(n)).collect());
        let st = cache.stats();
        stats.schedule_hits += st.schedule_hits;
        stats.schedule_misses += st.schedule_misses;
        stats.plateau_hits += st.plateau_hits;
    }
    let after = COUNTERS.map(counter);
    lamps_obs::disable_metrics();
    let delta: Vec<f64> = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    check_cells(rep, &cold_bits, oracle, "replay cold pass");

    let sweep = LevelSweep::new(cfg.levels.points(), &cfg.sleep);
    let mut warm_bits = Vec::with_capacity(corpus.cells());
    let mut bills = 0u64;
    let root = tracer.open("replay", 0);
    for (i, ((g, ds), ns)) in corpus
        .graphs
        .iter()
        .zip(&corpus.deadlines)
        .zip(&counts)
        .enumerate()
    {
        let req = i as u64;
        tracer.span("replay.graph", req, |t| {
            let mut cache = t.span("core.cache_build", req, |_| ScheduleCache::for_graph(g));
            t.span("sched.list_schedule", req, |_| {
                for &n in ns {
                    black_box(cache.schedule(n));
                }
            });
            t.span("sched.idle_summary", req, |_| {
                for &n in ns {
                    black_box(cache.summary(n));
                }
            });
            t.span("core.scan_bill", req, |_| {
                for &d in ds {
                    for &s in &strategies {
                        warm_bits.push(cell_bits(&solve_with_cache(s, d, cfg, &mut cache)));
                    }
                }
            });
            let horizon_s = ds[FACTORS.len() - 1];
            t.span("energy.bill", req, |_| {
                for &n in ns {
                    let summary = cache.summary(n);
                    let makespan = summary.makespan_cycles() as f64;
                    for (idx, level) in sweep.levels().iter().enumerate() {
                        if makespan / level.freq > horizon_s {
                            continue;
                        }
                        for ps in [false, true] {
                            let _ = black_box(sweep.evaluate(summary, idx, horizon_s, ps));
                            bills += 1;
                        }
                    }
                }
            });
        });
    }
    tracer.close(root);
    check_cells(rep, &warm_bits, oracle, "replay warm pass");

    let selfs = tracer.self_seconds();
    let stage = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let (build_s, sched_s, idle_s, scan_s) = (
        stage("core.cache_build"),
        stage("sched.list_schedule"),
        stage("sched.idle_summary"),
        stage("core.scan_bill"),
    );
    let candidates = delta[2];
    rep.set("sched.list_schedule_s", sched_s);
    rep.set("sched.list_schedule_runs", delta[0]);
    rep.set("sched.tasks_per_s", delta[1] / sched_s);
    rep.set("sched.idle_summary_s", idle_s);
    rep.set("core.cache_build_s", build_s);
    rep.set("core.scan_bill_s", scan_s);
    rep.set(
        "core.schedule_hit_ratio",
        stats.schedule_hits as f64 / (stats.schedule_hits + stats.schedule_misses).max(1) as f64,
    );
    rep.set("core.candidates", candidates);
    rep.set("core.sweeps_skipped_ratio", delta[3] / candidates.max(1.0));
    rep.set("core.plateau_hits", stats.plateau_hits as f64);
    rep.set("core.scan_breaks", delta[4]);
    rep.set(
        "energy.bill_ns",
        stage("energy.bill") * 1e9 / bills.max(1) as f64,
    );
    rep.set("energy.bills", bills as f64);
    rep.set(
        "trace.stage_coverage",
        (build_s + sched_s + idle_s + scan_s) / cold_s,
    );
}
