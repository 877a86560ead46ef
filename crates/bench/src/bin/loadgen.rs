//! Load generator for `lamps-serve`: sustained mixed traffic, latency
//! percentiles, and a bitwise differential against the in-process
//! solver.
//!
//! Drives an **open-loop** arrival process (requests are sent on a
//! fixed schedule at `--rate` req/s regardless of how fast responses
//! come back — the honest way to measure a service under load) over
//! `--conns` pipelined connections. The workload mixes request sizes
//! (STG-style graphs of 10/20/40 tasks at coarse grain), all four
//! strategies, all four paper deadline factors, and a sprinkle of
//! step-budgeted requests that exercise the degraded path.
//!
//! **Differential mode** (`--differential`): after the run, every
//! solved or error response to a planned request is answered again
//! locally through [`answer`], the path a server worker takes, and
//! compared **bit for bit** by [`check_answer`] — energy bits,
//! frequency bits, processor count, makespan, step count, degradation
//! flag, or error kind; unbudgeted answers must also equal plain
//! [`solve_with_cache`]. One differing bit fails the run. This only
//! holds when the server runs without `--timeout-ms` (wall-clock
//! budgets are not reproducible; step budgets are).
//!
//! After the paced phase, [`BURSTS`] **saturation bursts** (`--burst`
//! requests each, sent with no pacing, each drained before the next)
//! measure what the open-loop phase cannot: actual drain throughput with
//! the queue full, plus the admission-control path under genuine
//! overload (a burst outruns the queue, so `overloaded` rejections show
//! up in the recorded counters). The median burst's solves/s is the
//! gate's regression metric — the paced phase's solves/s merely echoes
//! the arrival rate when the server keeps up. One burst lasts only
//! 10–30 ms, so a single one swings with whatever else the machine is
//! doing; the median of several does not.
//!
//! Once the traffic is over, the generator times one **in-process
//! pass** over each burst's request lines on its own thread — parse,
//! then [`answer`] on a fresh cache, as a worker does — and records the
//! median saturated rate over the median in-process rate as
//! `ratios.saturated_over_inprocess`. Both rates come from the same run
//! on the same machine, so the ratio moves when the served path slows
//! down relative to the solver, whatever the machine's speed.
//!
//! Results land in `BENCH_serve.json` (`--out`): solves/s, latency
//! p50/p90/p99/max, ok/degraded/rejected/error counts, the server's own
//! counters (including the panic counter, which must be 0), and the
//! differential verdict. The `gate` binary checks this file in CI.
//!
//! With no `--addr`, the generator self-hosts a server on an ephemeral
//! port (still over real TCP). With `--addr`, it drives an external
//! daemon and can stop it afterwards with `--shutdown`. Every wait is
//! bounded — a dead or wedged server makes the generator exit nonzero,
//! never hang.

use lamps_bench::cli::{or_die, Options};
use lamps_bench::suite::DEADLINE_FACTORS;
use lamps_core::cache::ScheduleCache;
use lamps_core::{solve_with_cache, SchedulerConfig, Strategy};
use lamps_serve::protocol::{
    answer, encode_request, encode_solve_request, parse_request, parse_response, DeadlineSpec,
    Limits, Request, Response, SolveRequest,
};
use lamps_serve::{ServeConfig, Server};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::{TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};
use lamps_verify::check_answer;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Request-size mix in STG units (scaled to coarse grain) — the
/// run-time re-solve band, matching the `campaign` corpus.
const SIZES: [usize; 3] = [10, 20, 40];

/// Saturation bursts per run; the recorded saturated and in-process
/// rates are medians over them. Odd, so the median is one burst's.
const BURSTS: usize = 7;

/// One planned request; the request id indexes this table.
struct Plan {
    graph_idx: usize,
    strategy: Strategy,
    factor: f64,
    budget_steps: Option<u64>,
}

impl Plan {
    /// The solve request planned as request `id`.
    fn request(&self, id: u64, graphs: &[TaskGraph]) -> SolveRequest {
        SolveRequest {
            id,
            strategy: self.strategy,
            deadline: DeadlineSpec::Factor(self.factor),
            graph: graphs[self.graph_idx].clone(),
            budget_steps: self.budget_steps,
        }
    }
}

#[derive(Default)]
struct Log {
    latencies_us: Vec<u64>,
    ok: u64,
    degraded: u64,
    rejected: u64,
    errors: u64,
    parse_failures: u64,
    /// Solved and error responses, the differential's subjects.
    answers: Vec<Response>,
}

struct SharedState {
    pending: Mutex<HashMap<u64, Instant>>,
    log: Mutex<Log>,
    stats: Mutex<Option<Vec<(String, u64)>>>,
    shutdown_acked: AtomicBool,
}

fn receiver(stream: TcpStream, shared: Arc<SharedState>) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return, // includes the read timeout: give up, main notices
        }
        let text = line.trim();
        if text.is_empty() {
            continue;
        }
        let resp = match parse_response(text) {
            Ok(r) => r,
            Err(_) => {
                shared.log.lock().expect("log").parse_failures += 1;
                continue;
            }
        };
        let sent = resp
            .id()
            .and_then(|id| shared.pending.lock().expect("pending").remove(&id));
        let mut log = shared.log.lock().expect("log");
        match resp {
            Response::Solved(ref s) => {
                if let Some(at) = sent {
                    log.latencies_us.push(at.elapsed().as_micros() as u64);
                }
                if s.degraded {
                    log.degraded += 1;
                } else {
                    log.ok += 1;
                }
                log.answers.push(resp);
            }
            Response::Overloaded { .. } => log.rejected += 1,
            Response::Error { .. } => {
                log.errors += 1;
                log.answers.push(resp);
            }
            Response::Pong { .. } => {}
            Response::Stats { body, .. } => {
                *shared.stats.lock().expect("stats") = Some(body.counters);
            }
            Response::Telemetry { .. } | Response::Flight { .. } => {}
            Response::ShuttingDown { .. } => {
                shared.shutdown_acked.store(true, Ordering::SeqCst);
            }
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// The middle value of `rates` (the upper middle of an even count), or
/// 0 when there is none. Sorts `rates` in place.
fn median(rates: &mut [f64]) -> f64 {
    rates.sort_unstable_by(f64::total_cmp);
    rates.get(rates.len() / 2).copied().unwrap_or(0.0)
}

/// Spin until `cond` holds or `timeout` passes. True on success.
fn wait_for(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while !cond() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// Seconds of one in-process pass over `lines` on this thread: each is
/// parsed and answered on a fresh cache, as a server worker does,
/// without the wire, the queue or the worker threads.
fn inprocess_pass_seconds(lines: &[String], cfg: &SchedulerConfig) -> f64 {
    let limits = Limits::default();
    let start = Instant::now();
    for line in lines {
        let Ok(Request::Solve(req)) = parse_request(line.trim_end(), &limits) else {
            panic!("loadgen encoded a line its own server would not solve: {line}");
        };
        let mut cache = ScheduleCache::for_graph(&req.graph);
        std::hint::black_box(answer(&req, &req.budget(None), cfg, &mut cache).1);
    }
    start.elapsed().as_secs_f64()
}

/// Answer every planned request the server answered (solved or error)
/// again locally, on warm per-graph caches, and compare bit for bit.
/// Returns (responses checked, mismatch descriptions).
fn run_differential(
    log: &Log,
    plans: &[Plan],
    graphs: &[TaskGraph],
    cfg: &SchedulerConfig,
) -> (u64, Vec<String>) {
    let mut caches: Vec<ScheduleCache<'_>> = graphs.iter().map(ScheduleCache::for_graph).collect();
    let mut checked = 0u64;
    let mut mismatches = Vec::new();
    for served in &log.answers {
        // Control-op ids live past the plan table; only a solved
        // response must answer a planned request.
        let Some((id, plan)) = served
            .id()
            .and_then(|id| Some((id, plans.get(id as usize)?)))
        else {
            if let Response::Solved(s) = served {
                mismatches.push(format!("request {}: matches no planned request", s.id));
            }
            continue;
        };
        checked += 1;
        let req = plan.request(id, graphs);
        let cache = &mut caches[plan.graph_idx];
        let (local, _) = answer(&req, &req.budget(None), cfg, cache);
        let violations = check_answer(served, id, plan.strategy, &local);
        mismatches.extend(violations.iter().map(|v| format!("request {id}: {v}")));
        // Unbudgeted answers must also equal the plain (non-budget)
        // production entry point.
        let (Ok(b), None) = (&local, plan.budget_steps) else {
            continue;
        };
        let deadline_s = req.deadline.seconds(&req.graph, cfg);
        match solve_with_cache(plan.strategy, deadline_s, cfg, cache) {
            Ok(plain) if plain.energy.total().to_bits() == b.solution.energy.total().to_bits() => {}
            Ok(plain) => mismatches.push(format!(
                "request {id}: budget path diverged from solve_with_cache: {:016x} vs {:016x}",
                b.solution.energy.total().to_bits(),
                plain.energy.total().to_bits()
            )),
            Err(e) => mismatches.push(format!(
                "request {id}: solve_with_cache failed locally: {e}"
            )),
        }
    }
    (checked, mismatches)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let opts = Options::parse(&[
        "addr",
        "conns",
        "rate",
        "requests",
        "smoke",
        "differential",
        "out",
        "seed",
        "workers",
        "queue",
        "budget-every",
        "budget-steps",
        "shutdown",
        "drain-timeout-ms",
        "burst",
    ]);
    let smoke = opts.flag("smoke");
    let requests = opts.usize("requests", if smoke { 96 } else { 1200 });
    let burst = opts.usize("burst", if smoke { 256 } else { 2048 });
    let rate = opts.f64("rate", if smoke { 400.0 } else { 600.0 });
    let conns_n = opts.usize("conns", if smoke { 2 } else { 4 }).max(1);
    let seed = opts.u64("seed", 42);
    let differential = opts.flag("differential");
    let do_shutdown = opts.flag("shutdown");
    let out_path = opts.string("out", "BENCH_serve.json");
    let budget_every = opts.usize("budget-every", 4);
    let budget_steps = opts.u64("budget-steps", 6).max(1);
    let drain = Duration::from_millis(opts.u64("drain-timeout-ms", 60_000));
    let cfg = SchedulerConfig::paper();

    assert!(rate > 0.0, "--rate must be positive");
    assert!(requests > 0, "--requests must be positive");

    // Workload: a few graphs per size band, cycled through by the plan.
    let per_size = if smoke { 3 } else { 8 };
    let mut graphs: Vec<TaskGraph> = Vec::new();
    for (i, &n) in SIZES.iter().enumerate() {
        graphs.extend(
            stg_group(n, per_size, seed.wrapping_add(i as u64))
                .into_iter()
                .map(|g| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT)),
        );
    }
    let strategies = Strategy::all();
    let total_sent = requests + BURSTS * burst;
    let plans: Vec<Plan> = (0..total_sent)
        .map(|i| Plan {
            graph_idx: i % graphs.len(),
            strategy: strategies[i % strategies.len()],
            factor: DEADLINE_FACTORS[(i / strategies.len()) % DEADLINE_FACTORS.len()],
            budget_steps: (budget_every > 0 && i % budget_every == budget_every - 1)
                .then_some(budget_steps),
        })
        .collect();
    let budgeted = plans.iter().filter(|p| p.budget_steps.is_some()).count();

    // Target server: external (--addr) or self-hosted on an ephemeral
    // port. Self-hosting still goes through real TCP.
    let addr_flag = opts.string("addr", "");
    let (server, addr) = if addr_flag.is_empty() {
        let mut sc = ServeConfig::default();
        sc.addr = "127.0.0.1:0".to_string();
        sc.workers = opts.usize("workers", sc.workers);
        // Shallower than the daemon default so the saturation burst
        // genuinely overflows it and real `overloaded` rejections land
        // in the recorded counters.
        sc.queue_capacity = opts.usize("queue", 64);
        let s = or_die(Server::start(sc));
        let a = s.addr().to_string();
        (Some(s), a)
    } else {
        (None, addr_flag)
    };

    let shared = Arc::new(SharedState {
        pending: Mutex::new(HashMap::with_capacity(requests)),
        log: Mutex::new(Log::default()),
        stats: Mutex::new(None),
        shutdown_acked: AtomicBool::new(false),
    });
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns_n);
    let mut receivers = Vec::with_capacity(conns_n);
    for _ in 0..conns_n {
        let stream = or_die(TcpStream::connect(&addr));
        let _ = stream.set_nodelay(true);
        or_die(stream.set_read_timeout(Some(drain)));
        let reader = or_die(stream.try_clone());
        let shared = Arc::clone(&shared);
        receivers.push(std::thread::spawn(move || receiver(reader, shared)));
        streams.push(stream);
    }

    let encode = |i: usize| {
        let plan = &plans[i];
        encode_solve_request(
            i as u64,
            plan.strategy,
            DeadlineSpec::Factor(plan.factor),
            &graphs[plan.graph_idx],
            plan.budget_steps,
        )
    };
    let mut send = |i: usize| {
        let line = encode(i);
        shared
            .pending
            .lock()
            .expect("pending")
            .insert(i as u64, Instant::now());
        or_die(streams[i % conns_n].write_all(line.as_bytes()));
    };
    // Bounded drain: every sent request must be answered (ok, degraded,
    // overloaded, or error) before the timeout, else fail loudly.
    let drain_or_die = |phase: &str| {
        if !wait_for(drain, || shared.pending.lock().expect("pending").is_empty()) {
            let left = shared.pending.lock().expect("pending").len();
            eprintln!("error: {left} {phase} requests unanswered after {drain:?}");
            std::process::exit(1);
        }
    };

    // Phase 1 — open-loop: request i is due at start + i/rate,
    // regardless of response progress. Latency percentiles come from
    // this phase only.
    let start = Instant::now();
    for i in 0..requests {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        send(i);
    }
    let send_elapsed = start.elapsed();
    drain_or_die("paced");
    let elapsed = start.elapsed().as_secs_f64();
    let (paced_lat, paced_solved) = {
        let log = shared.log.lock().expect("log");
        (log.latencies_us.clone(), log.ok + log.degraded)
    };

    // Phase 2 — saturation bursts: no pacing, queue fills, admission
    // control kicks in. The median burst's solved-per-second is the
    // capacity figure the gate regresses on.
    let bursts = if burst > 0 { BURSTS } else { 0 };
    let burst_ids = |k: usize| requests + k * burst..requests + (k + 1) * burst;
    let (mut burst_elapsed, mut burst_solved, mut burst_rejected) = (0.0, 0, 0);
    let mut sat_rates = Vec::with_capacity(bursts);
    for k in 0..bursts {
        let (pre_solved, pre_rejected) = {
            let log = shared.log.lock().expect("log");
            (log.ok + log.degraded, log.rejected)
        };
        let t0 = Instant::now();
        for i in burst_ids(k) {
            send(i);
        }
        drain_or_die("burst");
        let e = t0.elapsed().as_secs_f64();
        let log = shared.log.lock().expect("log");
        let solved = log.ok + log.degraded - pre_solved;
        sat_rates.push(solved as f64 / e.max(1e-9));
        burst_elapsed += e;
        burst_solved += solved;
        burst_rejected += log.rejected - pre_rejected;
    }
    let sat_solves_per_sec = median(&mut sat_rates);

    // Server counters: over the wire from an external daemon, straight
    // from the handle when self-hosting.
    let server_counters: Vec<(String, u64)> = if let Some(server) = &server {
        let s = server.stats();
        vec![
            ("connections".into(), s.connections),
            ("requests".into(), s.requests),
            ("ok".into(), s.solved_ok),
            ("degraded".into(), s.degraded),
            ("rejected".into(), s.rejected),
            ("solve_errors".into(), s.solve_errors),
            ("protocol_errors".into(), s.protocol_errors),
            ("panics".into(), s.panics),
        ]
    } else {
        let stats_id = total_sent as u64;
        or_die(streams[0].write_all(encode_request(&Request::Stats { id: stats_id }).as_bytes()));
        if !wait_for(Duration::from_secs(10), || {
            shared.stats.lock().expect("stats").is_some()
        }) {
            eprintln!("error: server did not answer the stats request within 10s");
            std::process::exit(1);
        }
        shared.stats.lock().expect("stats").take().expect("waited")
    };

    if do_shutdown {
        let shutdown_id = total_sent as u64 + 1;
        or_die(
            streams[0].write_all(encode_request(&Request::Shutdown { id: shutdown_id }).as_bytes()),
        );
        if !wait_for(Duration::from_secs(10), || {
            shared.shutdown_acked.load(Ordering::SeqCst)
        }) {
            eprintln!("error: server did not acknowledge shutdown within 10s");
            std::process::exit(1);
        }
    }
    for s in &streams {
        let _ = s.shutdown(Shutdown::Write);
    }
    for r in receivers {
        let _ = r.join();
    }
    if let Some(server) = server {
        server.shutdown();
    }

    let log = Arc::try_unwrap(shared)
        .map(|s| s.log.into_inner().expect("log"))
        .unwrap_or_else(|_| panic!("receiver threads still hold the log"));
    let answered = log.ok + log.degraded + log.rejected + log.errors;
    let solves_per_sec = paced_solved as f64 / elapsed.max(1e-9);
    let mut lat = paced_lat;
    lat.sort_unstable();

    println!(
        "loadgen: {requests} paced requests over {conns_n} conns at {rate}/s → {paced_solved} solved in {elapsed:.2}s ({solves_per_sec:.0} solves/s, send window {:.2}s)",
        send_elapsed.as_secs_f64()
    );
    if burst > 0 {
        println!(
            "bursts: {BURSTS} × {burst} requests → {burst_solved} solved, {burst_rejected} rejected in {burst_elapsed:.2}s ({sat_solves_per_sec:.0} solves/s saturated, median burst)"
        );
    }
    println!(
        "totals: {} ok, {} degraded, {} rejected, {} errors | latency_us p50 {} p90 {} p99 {} max {}",
        log.ok,
        log.degraded,
        log.rejected,
        log.errors,
        percentile(&lat, 0.50),
        percentile(&lat, 0.90),
        percentile(&lat, 0.99),
        percentile(&lat, 1.0)
    );
    if log.parse_failures > 0 {
        eprintln!("error: {} unparseable response lines", log.parse_failures);
        std::process::exit(1);
    }
    if answered != total_sent as u64 {
        eprintln!("error: {answered} responses for {total_sent} requests");
        std::process::exit(1);
    }

    // The same-run reference for the saturated rate: each burst's
    // lines, served in-process once the traffic is over.
    let (mut inprocess_elapsed, mut inprocess_lines) = (0.0, 0);
    let mut inprocess_rates = Vec::with_capacity(bursts);
    for k in 0..bursts {
        let lines: Vec<String> = burst_ids(k).map(encode).collect();
        let e = inprocess_pass_seconds(&lines, &cfg);
        inprocess_rates.push(lines.len() as f64 / e.max(1e-9));
        inprocess_elapsed += e;
        inprocess_lines += lines.len();
    }
    let inprocess_solves_per_sec = median(&mut inprocess_rates);
    let saturated_over_inprocess = sat_solves_per_sec / inprocess_solves_per_sec.max(1e-9);
    println!(
        "in-process: {inprocess_lines} burst lines parsed, solved and encoded in {inprocess_elapsed:.3}s ({inprocess_solves_per_sec:.0} solves/s, median burst); saturated/in-process {saturated_over_inprocess:.3}"
    );

    let (diff_checked, mismatches) = if differential {
        run_differential(&log, &plans, &graphs, &cfg)
    } else {
        (0, Vec::new())
    };
    if differential {
        println!(
            "differential: {diff_checked} responses re-solved locally, {} mismatches",
            mismatches.len()
        );
    }

    let mut json = String::with_capacity(1024);
    let _ = write!(
        json,
        "{{\n  \"schema\": \"lamps-serve-bench-v1\",\n  \"smoke\": {smoke},\n  \"requests\": {requests},\n  \"conns\": {conns_n},\n  \"rate_per_sec\": {rate},\n  \"graphs\": {},\n  \"budgeted_requests\": {budgeted},\n  \"elapsed_seconds\": {elapsed},\n  \"solves_per_sec\": {solves_per_sec},\n  \"ok\": {},\n  \"degraded\": {},\n  \"rejected\": {},\n  \"errors\": {},\n  \"latency_us\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},\n  \"saturation\": {{\"bursts\": {}, \"requests\": {}, \"elapsed_seconds\": {burst_elapsed}, \"solves_per_sec\": {sat_solves_per_sec}, \"solved\": {burst_solved}, \"rejected\": {burst_rejected}}},\n",
        graphs.len(),
        log.ok,
        log.degraded,
        log.rejected,
        log.errors,
        percentile(&lat, 0.50),
        percentile(&lat, 0.90),
        percentile(&lat, 0.99),
        percentile(&lat, 1.0),
        bursts,
        bursts * burst,
    );
    let _ = write!(
        json,
        "  \"inprocess\": {{\"lines\": {inprocess_lines}, \"elapsed_seconds\": {inprocess_elapsed}, \"solves_per_sec\": {inprocess_solves_per_sec}}},\n  \"ratios\": {{\"saturated_over_inprocess\": {saturated_over_inprocess}}},\n",
    );
    let _ = write!(
        json,
        "  \"differential\": {{\"enabled\": {differential}, \"checked\": {diff_checked}, \"all_bitwise_equal\": {}}},\n  \"server\": {{",
        mismatches.is_empty(),
    );
    for (i, (name, value)) in server_counters.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {value}");
    }
    json.push_str("}\n}\n");
    or_die(std::fs::write(&out_path, &json));
    println!("wrote {out_path}");

    if !mismatches.is_empty() {
        eprintln!("error: differential found {} mismatches:", mismatches.len());
        for m in mismatches.iter().take(8) {
            eprintln!("  {m}");
        }
        std::process::exit(1);
    }
}
