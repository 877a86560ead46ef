//! The `serve_small` and `serve_large` workloads: the real `serve`
//! daemon, driven over one TCP connection by one sender and one
//! receiver thread.
//!
//! Phases: a closed-loop warm-up (unrecorded, because a fresh daemon
//! runs slower in its first seconds), an open-loop phase at a fixed
//! rate well below saturation (latency), then closed-loop saturation
//! windows (throughput). Open-loop latency runs from each request's
//! *due* time to its response, so a stall in the generator itself is
//! charged to the requests it delays; how late the generator ran is
//! reported beside it.
//!
//! Every response passes `lamps_verify::check_response_line` and must
//! match, bit for bit, a local `solve_with_budget_cache` of its request.
//! Requests repeat, so each distinct request is solved locally once and
//! each distinct response body is checked once.

use crate::report::Report;
use crate::solver::{
    check_cells, replay_stages, solve_grouped, stratified_group, total_seconds, Corpus, FACTORS,
};
use crate::stats::{percentile, tail};
use crate::timing::{calibrate, scale, Passes};
use crate::trace::Tracer;
use crate::{peak_rss_mib, timed_setup, Ctx};
use lamps_core::cache::{CacheBuffers, ScheduleCache};
use lamps_core::{
    solve_with_budget_cache, solve_with_cache, SchedulerConfig, SolveBudget, Strategy,
};
use lamps_serve::protocol::{
    encode_solve_request, encode_solved, parse_request, parse_response, strategy_wire_name,
    DeadlineSpec, Limits, Request, Response, SolvedResponse,
};
use lamps_taskgraph::rng::splitmix64;
use lamps_taskgraph::TaskGraph;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One serve workload's traffic.
pub struct Shape {
    /// STG sizes of the request graphs.
    sizes: &'static [usize],
    /// Graphs per size.
    per_size: usize,
    /// Open-loop arrival rate, requests per second.
    rate: f64,
    /// Closed-loop warm-up requests.
    warmup: usize,
    /// Requests per saturation window.
    window: usize,
    /// Saturation windows (doubled in a traced run: half record spans).
    windows: usize,
    /// Requests in flight during the closed-loop phases.
    in_flight: usize,
    /// Open-loop requests replayed in-process by a traced run.
    replay: usize,
}

/// Small graphs: the wire and queue hand-off dominate a request.
pub const SMALL: Shape = Shape {
    sizes: &[10, 20, 40],
    per_size: 32,
    rate: 4000.0,
    warmup: 60_000,
    window: 15_000,
    windows: 9,
    in_flight: 32,
    replay: 4000,
};

/// 1000-task graphs: decoding and cold list scheduling dominate.
pub const LARGE: Shape = Shape {
    sizes: &[1000],
    per_size: 16,
    rate: 100.0,
    warmup: 300,
    window: 150,
    windows: 15,
    in_flight: 8,
    replay: 200,
};

/// Every `BUDGET_EVERY`-th request carries a step budget (in runs of
/// 16, so each strategy and factor is asked with and without one).
const BUDGET_EVERY: usize = 4;
/// The step budget those requests carry; it truncates most LAMPS+PS
/// searches, so the degraded path is exercised.
const BUDGET_STEPS: u64 = 6;
/// Longest wait for any single response or daemon event.
const WAIT: Duration = Duration::from_secs(60);
/// The open-loop sender sleeps until this long before a request is due
/// and spins the rest, so timer slack does not make it late.
const SPIN: Duration = Duration::from_micros(60);

/// A distinct request: graph, strategy, deadline factor, budget.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    graph: usize,
    strategy: usize,
    factor: usize,
    budgeted: bool,
}

/// The generated inputs. Request `i` asks for strategy `i mod 4` at
/// factor `(i / 4) mod 4`, a quarter of them (in runs of 16) with a step
/// budget, so every seed asks for the same mix; the seed picks each
/// request's graph. A request line is its id, a head encoding the
/// strategy, factor and budget, and the encoded graph.
struct Inputs {
    seed: u64,
    graphs: Vec<TaskGraph>,
    /// Indexed by [`Key::head`].
    heads: Vec<String>,
    /// One per graph, ending the line.
    bodies: Vec<String>,
}

const ID_PREFIX: &str = "{\"id\":";
const GRAPH_FIELD: &str = "\"graph\":";

impl Key {
    /// Index of this key's strategy × factor × budget head.
    fn head(&self) -> usize {
        (self.strategy * FACTORS.len() + self.factor) * 2 + self.budgeted as usize
    }

    /// The line `encode_solve_request` writes for this key, id 0.
    fn encode(&self, graphs: &[TaskGraph]) -> String {
        encode_solve_request(
            0,
            Strategy::all()[self.strategy],
            DeadlineSpec::Factor(FACTORS[self.factor]),
            &graphs[self.graph],
            self.budgeted.then_some(BUDGET_STEPS),
        )
    }
}

impl Inputs {
    fn new(shape: &Shape, seed: u64) -> Result<Inputs, String> {
        let mut graphs = Vec::new();
        for (i, &n) in shape.sizes.iter().enumerate() {
            graphs.extend(stratified_group(
                n,
                shape.per_size,
                seed.wrapping_add(i as u64),
            ));
        }
        let split = |line: String| {
            let at = line.find(GRAPH_FIELD).expect("solve lines carry a graph");
            (
                line[ID_PREFIX.len() + 1..at].to_string(),
                line[at..].to_string(),
            )
        };
        let inputs = Inputs {
            seed,
            heads: (0..4 * FACTORS.len() * 2)
                .map(|h| split(Inputs::key_of_head(h, 0).encode(&graphs)).0)
                .collect(),
            bodies: (0..graphs.len())
                .map(|g| split(Inputs::key_of_head(0, g).encode(&graphs)).1)
                .collect(),
            graphs,
        };
        // The halves must reassemble into the encoder's own lines.
        let mut line = Vec::new();
        for i in 0..inputs.heads.len() * BUDGET_EVERY {
            inputs.line_into(i, &mut line);
            let after_id = ID_PREFIX.len() + i.to_string().len();
            let encoded = inputs.key(i).encode(&inputs.graphs);
            if line[after_id..] != encoded.as_bytes()[ID_PREFIX.len() + 1..] {
                return Err(format!(
                    "request line {i} differs from encode_solve_request"
                ));
            }
        }
        Ok(inputs)
    }

    fn key_of_head(head: usize, graph: usize) -> Key {
        Key {
            graph,
            strategy: head / (2 * FACTORS.len()),
            factor: head / 2 % FACTORS.len(),
            budgeted: head % 2 == 1,
        }
    }

    /// What request `i` asks for.
    fn key(&self, i: usize) -> Key {
        let mut x = self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Key {
            graph: (splitmix64(&mut x) % self.graphs.len() as u64) as usize,
            strategy: i % 4,
            factor: (i / 4) % FACTORS.len(),
            budgeted: (i / 16) % BUDGET_EVERY == BUDGET_EVERY - 1,
        }
    }

    /// Every distinct request.
    fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        (0..self.graphs.len())
            .flat_map(|g| (0..self.heads.len()).map(move |h| Inputs::key_of_head(h, g)))
    }

    /// Write request `i`'s line into `buf`.
    fn line_into(&self, i: usize, buf: &mut Vec<u8>) {
        let k = self.key(i);
        buf.clear();
        buf.extend_from_slice(ID_PREFIX.as_bytes());
        buf.extend_from_slice(i.to_string().as_bytes());
        buf.extend_from_slice(self.heads[k.head()].as_bytes());
        buf.extend_from_slice(self.bodies[k.graph].as_bytes());
    }
}

/// A running daemon child. Dropping it kills the process if it is still
/// alive and waits for it, so no exit path leaves it behind.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Start `bin` on an ephemeral port and wait until it listens.
    fn spawn(bin: &std::path::Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("lamps-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        // Own the child before checking the line, so a daemon that did
        // not report listening is still reaped on the way out.
        let mut d = Daemon {
            child,
            addr: String::new(),
            stdout,
        };
        d.addr = addr.ok_or_else(|| format!("daemon did not report listening: {line:?}"))?;
        Ok(d)
    }

    /// Drain over the wire and wait for a clean exit.
    fn stop(mut self) -> Result<(), String> {
        let mut s = TcpStream::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(WAIT)).map_err(|e| e.to_string())?;
        s.write_all(b"{\"id\":0,\"op\":\"shutdown\"}\n")
            .map_err(|e| format!("send shutdown: {e}"))?;
        let mut ack = String::new();
        let _ = BufReader::new(&s).read_line(&mut ack);
        let t0 = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if t0.elapsed() > WAIT => return Err("daemon did not exit".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        if !rest.contains("0 panics") {
            return Err(format!("daemon drain summary reports panics: {rest:?}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// State the receiver fills and the sender reads.
struct Shared {
    origin: Instant,
    /// Receipt time per request, ns since `origin` (0 = unanswered).
    recv_ns: Vec<AtomicU64>,
    /// 1 + index of the distinct body answering each request (0 = none).
    body: Vec<AtomicU32>,
}

/// What the receiver saw besides solved responses.
#[derive(Default)]
struct RecvLog {
    /// Distinct solved-response tails (everything after the id).
    bodies: Vec<String>,
    /// Lines answering a solve request with anything but a solution.
    refused: Vec<String>,
}

fn receiver(
    stream: TcpStream,
    shared: Arc<Shared>,
    done: mpsc::Sender<()>,
    control: mpsc::Sender<String>,
) -> RecvLog {
    let n = shared.recv_ns.len() as u64;
    let mut log = RecvLog::default();
    let mut index: HashMap<Box<str>, u32> = HashMap::new();
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return log,
            Ok(_) => {}
        }
        let now = shared.origin.elapsed().as_nanos() as u64;
        let text = line.trim_end();
        let parsed = text.strip_prefix(ID_PREFIX).and_then(|rest| {
            let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
            Some((rest[..digits].parse::<u64>().ok()?, &rest[digits..]))
        });
        match parsed {
            Some((id, tail)) if id < n => {
                if tail.starts_with(",\"status\":\"ok\"")
                    || tail.starts_with(",\"status\":\"degraded\"")
                {
                    let idx = match index.get(tail) {
                        Some(&i) => i,
                        None => {
                            let i = log.bodies.len() as u32;
                            log.bodies.push(tail.to_string());
                            index.insert(tail.into(), i);
                            i
                        }
                    };
                    shared.body[id as usize].store(idx + 1, Ordering::Relaxed);
                } else {
                    log.refused.push(text.to_string());
                }
                shared.recv_ns[id as usize].store(now.max(1), Ordering::Release);
                let _ = done.send(());
            }
            _ => {
                let _ = control.send(text.to_string());
            }
        }
    }
}

/// The sending side: one connection, requests written in plan order.
struct Sender<'a> {
    stream: TcpStream,
    inputs: &'a Inputs,
    done: mpsc::Receiver<()>,
    control: mpsc::Receiver<String>,
    buf: Vec<u8>,
    sent: usize,
    answered: usize,
    next_control_id: u64,
}

impl Sender<'_> {
    /// Write request `id`; with a tracer, record the write as a span.
    fn send(&mut self, id: usize, tracer: Option<&mut Tracer>) -> Result<(), String> {
        let t0 = Instant::now();
        self.inputs.line_into(id, &mut self.buf);
        self.stream
            .write_all(&self.buf)
            .map_err(|e| format!("send request {id}: {e}"))?;
        if let Some(t) = tracer {
            t.record("serve.send", t0, Instant::now(), id as u64);
        }
        self.sent += 1;
        Ok(())
    }

    fn wait_one(&mut self) -> Result<(), String> {
        self.done.recv_timeout(WAIT).map_err(|_| {
            format!(
                "no response within {WAIT:?} ({} unanswered)",
                self.sent - self.answered
            )
        })?;
        self.answered += 1;
        Ok(())
    }

    fn drain(&mut self) -> Result<(), String> {
        while self.answered < self.sent {
            self.wait_one()?;
        }
        Ok(())
    }

    /// Requests `ids`, keeping at most `in_flight` unanswered.
    fn closed_loop(
        &mut self,
        ids: std::ops::Range<usize>,
        in_flight: usize,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(), String> {
        for id in ids {
            while self.sent - self.answered >= in_flight {
                self.wait_one()?;
            }
            self.send(id, tracer.as_deref_mut())?;
        }
        self.drain()
    }

    /// Requests `ids` at `rate` per second from a moment from now,
    /// regardless of responses, then waits for every answer. Appends
    /// each request's due time (ns since `origin`) and how late the
    /// sender was for it.
    fn open_loop(
        &mut self,
        ids: std::ops::Range<usize>,
        rate: f64,
        origin: Instant,
        due_ns: &mut Vec<u64>,
        late_ns: &mut Vec<u64>,
    ) -> Result<(), String> {
        let start = Instant::now() + Duration::from_millis(1);
        for (k, id) in ids.enumerate() {
            let due = start + Duration::from_secs_f64(k as f64 / rate);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                let left = due - now;
                if left > SPIN {
                    std::thread::sleep(left - SPIN);
                } else {
                    std::hint::spin_loop();
                }
            }
            late_ns.push(due.elapsed().as_nanos() as u64);
            due_ns.push((due - origin).as_nanos() as u64);
            self.send(id, None)?;
            while self.done.try_recv().is_ok() {
                self.answered += 1;
            }
        }
        self.drain()
    }

    /// Count and sum of the daemon's own `serve.latency_us` histogram,
    /// from the wire `telemetry` op.
    fn server_latency(&mut self) -> Result<(u64, u64), String> {
        let id = self.next_control_id;
        self.next_control_id += 1;
        self.stream
            .write_all(format!("{{\"id\":{id},\"op\":\"telemetry\"}}\n").as_bytes())
            .map_err(|e| format!("send telemetry: {e}"))?;
        let line = self
            .control
            .recv_timeout(WAIT)
            .map_err(|_| "no telemetry response".to_string())?;
        match parse_response(&line) {
            Ok(Response::Telemetry { id: got, body }) if got == id => {
                let h = body
                    .histogram("serve.latency_us")
                    .ok_or("telemetry has no serve.latency_us histogram")?;
                Ok((h.count, h.sum))
            }
            other => Err(format!("unexpected control response {line:?}: {other:?}")),
        }
    }
}

/// What a local solve says the daemon must answer.
struct Expected {
    energy_bits: u64,
    freq_bits: u64,
    n_procs: u64,
    makespan_cycles: u64,
    steps: u64,
    degraded: bool,
}

fn deadline_s(g: &TaskGraph, factor: usize, cfg: &SchedulerConfig) -> f64 {
    FACTORS[factor] * g.critical_path_cycles() as f64 / cfg.max_frequency()
}

/// Solve every distinct request locally; count unbudgeted answers that
/// disagree with the plain `solve_with_cache` entry point.
fn expected_answers(
    inputs: &Inputs,
    cfg: &SchedulerConfig,
    rep: &mut Report,
) -> (HashMap<Key, Expected>, Vec<[f64; 4]>) {
    let strategies = Strategy::all();
    let mut caches: Vec<ScheduleCache<'_>> =
        inputs.graphs.iter().map(ScheduleCache::for_graph).collect();
    let mut out = HashMap::new();
    for k in inputs.keys() {
        let d = deadline_s(&inputs.graphs[k.graph], k.factor, cfg);
        let budget = if k.budgeted {
            SolveBudget::steps(BUDGET_STEPS)
        } else {
            SolveBudget::unlimited()
        };
        let cache = &mut caches[k.graph];
        match solve_with_budget_cache(strategies[k.strategy], d, cfg, cache, &budget) {
            Ok(b) => {
                let s = &b.solution;
                if !k.budgeted {
                    let plain = solve_with_cache(strategies[k.strategy], d, cfg, cache);
                    if plain.map(|p| p.energy.total().to_bits()) != Ok(s.energy.total().to_bits()) {
                        rep.fail(1, "local budget path differs from solve_with_cache");
                    }
                }
                out.insert(
                    k,
                    Expected {
                        energy_bits: s.energy.total().to_bits(),
                        freq_bits: s.level.freq.to_bits(),
                        n_procs: s.n_procs as u64,
                        makespan_cycles: s.makespan_cycles,
                        steps: b.steps,
                        degraded: !b.completeness.is_complete(),
                    },
                );
            }
            Err(e) => rep.fail(1, format!("local solve of a planned request failed: {e}")),
        }
    }
    // S&S energy per (graph, factor): the denominator of energy_ratio.
    let ss = caches
        .iter_mut()
        .zip(&inputs.graphs)
        .map(|(cache, g)| {
            [0, 1, 2, 3].map(|f| {
                solve_with_cache(Strategy::ScheduleStretch, deadline_s(g, f, cfg), cfg, cache)
                    .map_or(f64::NAN, |s| s.energy.total())
            })
        })
        .collect();
    (out, ss)
}

fn matches(s: &SolvedResponse, e: &Expected, strategy: Strategy) -> bool {
    s.energy_bits == e.energy_bits
        && s.freq_bits == e.freq_bits
        && s.n_procs == e.n_procs
        && s.makespan_cycles == e.makespan_cycles
        && s.steps == e.steps
        && s.degraded == e.degraded
        && s.strategy == strategy_wire_name(strategy)
}

/// Run one serve workload.
pub fn run(
    ctx: &Ctx,
    shape: &Shape,
    rep: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<(), String> {
    let cfg = SchedulerConfig::paper();
    let strategies = Strategy::all();
    let open_n = ((shape.rate * ctx.seconds) as usize).max(100);
    let windows = if tracer.is_some() {
        2 * shape.windows
    } else {
        shape.windows
    };
    let total = shape.warmup + open_n + windows * shape.window;
    let ((inputs, daemon), setup_s) = timed_setup(|| {
        let inputs = Inputs::new(shape, ctx.seed)?;
        let daemon = Daemon::spawn(&ctx.serve_bin)?;
        Ok((inputs, daemon))
    })?;
    let (expected, ss_energy) = expected_answers(&inputs, &cfg, rep);

    let shared = Arc::new(Shared {
        origin: Instant::now(),
        recv_ns: (0..total).map(|_| AtomicU64::new(0)).collect(),
        body: (0..total).map(|_| AtomicU32::new(0)).collect(),
    });
    let stream = TcpStream::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(WAIT))
        .map_err(|e| e.to_string())?;
    let (done_tx, done_rx) = mpsc::channel();
    let (control_tx, control_rx) = mpsc::channel();
    let recv_half = stream.try_clone().map_err(|e| e.to_string())?;
    let recv_shared = Arc::clone(&shared);
    let recv_thread =
        std::thread::spawn(move || receiver(recv_half, recv_shared, done_tx, control_tx));
    let mut tx = Sender {
        stream,
        inputs: &inputs,
        done: done_rx,
        control: control_rx,
        buf: Vec::with_capacity(1 << 16),
        sent: 0,
        answered: 0,
        next_control_id: total as u64,
    };

    // Warm-up, then the open loop bracketed by two telemetry snapshots,
    // then the saturation windows. The open loop runs in one-second
    // slices with a calibration between them. The daemon's threads are
    // not ours to time, so the client calibrates on one thread.
    let open = shape.warmup..shape.warmup + open_n;
    let slice = shape.rate as usize;
    let phases = (|| -> Result<_, String> {
        let mut passes = [Passes::default(), Passes::default()]; // [untraced, traced]
        tx.closed_loop(0..shape.warmup, shape.in_flight, None)?;
        let before = tx.server_latency()?;
        let (mut due_ns, mut late_ns, mut slice_scales) = (Vec::new(), Vec::new(), Vec::new());
        for start in open.clone().step_by(slice) {
            let ids = start..(start + slice).min(open.end);
            let cal = calibrate(1);
            tx.open_loop(ids, shape.rate, shared.origin, &mut due_ns, &mut late_ns)?;
            slice_scales.push(scale(cal, calibrate(1)));
        }
        let after = tx.server_latency()?;
        for w in 0..windows {
            let start = open.end + w * shape.window;
            let ids = start..start + shape.window;
            let cal = calibrate(1);
            let traced = tracer.is_some() && w % 2 == 1;
            let t0 = shared.origin.elapsed().as_nanos() as u64;
            let spans = tracer.as_deref_mut().filter(|_| traced);
            tx.closed_loop(ids.clone(), shape.in_flight, spans)?;
            let t1 = ids
                .map(|i| shared.recv_ns[i].load(Ordering::Acquire))
                .max()
                .unwrap_or(t0);
            let k = scale(cal, calibrate(1));
            passes[traced as usize].add_rate(k, shape.window, (t1 - t0) as f64 * 1e-9);
        }
        Ok((before, after, due_ns, late_ns, slice_scales, passes))
    })();
    let rss = peak_rss_mib(&daemon.child.id().to_string());
    let _ = tx.stream.shutdown(Shutdown::Both);
    let log = recv_thread.join().map_err(|_| "receiver panicked")?;
    let stopped = daemon.stop();
    let (before, after, due_ns, late_ns, slice_scales, mut passes) = phases?;
    stopped?;
    rep.attempted = total as u64;

    // Oracle: every distinct body is well formed and every request's
    // body matches the local solve of that request.
    let mut body_ok = Vec::with_capacity(log.bodies.len());
    for tail in &log.bodies {
        let line = format!("{ID_PREFIX}0{tail}");
        let violations = lamps_verify::check_response_line(&line);
        let parsed = match parse_response(&line) {
            Ok(Response::Solved(s)) if violations.is_empty() => Some(s),
            _ => None,
        };
        body_ok.push(parsed);
    }
    let (mut unanswered, mut wrong, mut served_j, mut ss_j) = (0u64, 0u64, 0.0, 0.0);
    for id in 0..total {
        let k = &inputs.key(id);
        if shared.recv_ns[id].load(Ordering::Acquire) == 0 {
            unanswered += 1;
            continue;
        }
        let b = shared.body[id].load(Ordering::Relaxed);
        if b == 0 {
            continue; // refused: counted from the log below
        }
        match (&body_ok[b as usize - 1], expected.get(k)) {
            (Some(s), Some(e)) if matches(s, e, strategies[k.strategy]) => {
                served_j += f64::from_bits(s.energy_bits);
                ss_j += ss_energy[k.graph][k.factor];
            }
            _ => wrong += 1,
        }
    }
    rep.fail(unanswered, "request never answered");
    rep.fail(
        wrong,
        "response failed check_response_line or differs from the local solve",
    );
    rep.fail(
        log.refused.len() as u64,
        "request refused (overloaded or error)",
    );
    if let Some(line) = log.refused.first() {
        eprintln!("first refusal: {line}");
    }

    // Open-loop latency, one pass per second of arrivals.
    let mut latency_ns: Vec<u64> = open
        .clone()
        .zip(&due_ns)
        .map(|(id, &due)| {
            shared.recv_ns[id]
                .load(Ordering::Acquire)
                .saturating_sub(due)
        })
        .collect();
    for (second, &k) in latency_ns.chunks_mut(slice).zip(&slice_scales) {
        passes[0].add_latencies(k, second);
    }
    latency_ns.sort_unstable();

    if let Some(t) = tracer.as_mut() {
        for (id, &due) in open.clone().zip(&due_ns) {
            let recv = shared.recv_ns[id].load(Ordering::Acquire);
            let at = |ns: u64| shared.origin + Duration::from_nanos(ns);
            t.record("serve.request", at(due), at(recv.max(due)), id as u64);
        }
    }
    if let Some(t) = tracer {
        let client_mean_us = latency_ns.iter().sum::<u64>() as f64 / latency_ns.len() as f64 / 1e3;
        let server_mean_us = (after.1 - before.1) as f64 / (after.0 - before.0).max(1) as f64;
        let tl = tail(&latency_ns);
        let degraded_requests = shared
            .body
            .iter()
            .filter(|b| {
                let b = b.load(Ordering::Relaxed) as usize;
                b > 0 && log.bodies[b - 1].starts_with(",\"status\":\"degraded\"")
            })
            .count();
        rep.set("serve.server_mean_us", server_mean_us);
        rep.set("serve.wire_mean_us", client_mean_us - server_mean_us);
        rep.set("serve.tail_us", tl.map_or(0.0, |t| t.value as f64 / 1e3));
        rep.set("serve.tail_samples", latency_ns.len() as f64);
        rep.set(
            "serve.gen_late_ms",
            late_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        );
        rep.set("serve.degraded", degraded_requests as f64);
        rep.set(
            "serve.rejected",
            log.refused
                .iter()
                .filter(|l| l.contains("\"overloaded\""))
                .count() as f64,
        );
        passes[0].report(rep);
        rep.set(
            "trace.overhead_frac",
            Passes::overhead_frac(&passes[0], &passes[1]),
        );
        replay_requests(&inputs, open.clone(), shape.replay, &cfg, &expected, t, rep);

        // The solver stages of the request graphs, every cell unbudgeted.
        let corpus = Corpus::new(inputs.graphs.clone(), &cfg);
        let (oracle, prod_s, _) = solve_grouped(&corpus, &cfg, false, |_| true);
        let (unpruned, unpruned_s, _) = solve_grouped(&corpus, &cfg, true, |_| true);
        check_cells(
            rep,
            &oracle,
            &unpruned,
            "request graphs: pruned vs unpruned",
        );
        replay_stages(&corpus, &cfg, t, &oracle, rep);
        rep.set(
            "core.unpruned_ratio",
            total_seconds(&unpruned_s) / total_seconds(&prod_s),
        );
    } else {
        rep.set("setup_s", setup_s);
        rep.set("energy_ratio", served_j / ss_j);
        rep.set("peak_rss_mb", rss?);
    }
    Ok(())
}

/// Replay open-loop request lines in-process through the daemon's own
/// stages — `parse_request`, `solve_with_budget_cache` on recycled
/// `CacheBuffers`, `encode_solved` — and set the per-stage p50s.
fn replay_requests(
    inputs: &Inputs,
    open: std::ops::Range<usize>,
    count: usize,
    cfg: &SchedulerConfig,
    expected: &HashMap<Key, Expected>,
    tracer: &mut Tracer,
    rep: &mut Report,
) {
    let limits = Limits::default();
    let mut bufs = CacheBuffers::default();
    let mut stages: [Vec<u64>; 3] = Default::default();
    let mut line = Vec::new();
    let root = tracer.open("serve.replay", 0);
    for id in open.take(count) {
        let key = inputs.key(id);
        inputs.line_into(id, &mut line);
        let line = std::str::from_utf8(&line).expect("request lines are UTF-8");
        let span = tracer.open("serve.replay_request", id as u64);
        let t0 = Instant::now();
        let parsed = parse_request(line.trim_end(), &limits);
        let t1 = Instant::now();
        let Ok(Request::Solve(req)) = parsed else {
            rep.fail(1, "replayed request line did not parse as a solve");
            tracer.close(span);
            continue;
        };
        let d = match req.deadline {
            DeadlineSpec::Factor(f) => {
                f * req.graph.critical_path_cycles() as f64 / cfg.max_frequency()
            }
            DeadlineSpec::Seconds(s) => s,
        };
        let budget = SolveBudget {
            max_steps: req.budget_steps,
            token: None,
            deadline: None,
        };
        let mut cache = ScheduleCache::for_graph_recycled(&req.graph, std::mem::take(&mut bufs));
        let result = solve_with_budget_cache(req.strategy, d, cfg, &mut cache, &budget);
        let t2 = Instant::now();
        let encoded = result
            .as_ref()
            .map(|b| encode_solved(req.id, req.strategy, b));
        let t3 = Instant::now();
        bufs = cache.into_buffers();
        tracer.record("serve.parse", t0, t1, id as u64);
        tracer.record("serve.solve", t1, t2, id as u64);
        tracer.record("serve.encode", t2, t3, id as u64);
        tracer.close(span);
        for (v, (a, b)) in stages.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
            v.push((b - a).as_nanos() as u64);
        }
        let ok = match (&encoded, expected.get(&key)) {
            (Ok(line), Some(e)) => matches!(
                parse_response(line),
                Ok(Response::Solved(s)) if matches(&s, e, req.strategy)
            ),
            _ => false,
        };
        if !ok {
            rep.fail(1, "replayed request differs from the local solve");
        }
    }
    tracer.close(root);
    for (name, v) in ["serve.parse_us", "serve.solve_us", "serve.encode_us"]
        .into_iter()
        .zip(&mut stages)
    {
        v.sort_unstable();
        rep.set(name, percentile(v, 0.5) as f64 / 1e3);
    }
}
