//! The daemon: TCP accept loop, per-connection reader/writer threads,
//! and a sharded worker pool over one bounded job queue.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──spawns──▶ connection thread (one per client)
//!                              │  reads lines, parses, answers control
//!                              │  ops inline; try_push solve jobs
//!                              ▼
//!                       Bounded<Job> (admission control)
//!                              │  Full ⇒ "overloaded" response
//!                              ▼
//!  worker 0..N  ── each owns a warm CacheBuffers set, recycled via
//!                  ScheduleCache::for_graph_recycled / into_buffers
//!                  (the PR 6 machinery) ── responses go back through a
//!                  per-connection mpsc channel to its writer thread
//! ```
//!
//! **Degradation, not collapse:** every solve runs through
//! [`crate::protocol::answer`], over
//! [`lamps_core::solve_with_budget_cache`]. A per-request step budget
//! (from the request or [`ServeConfig::default_budget_steps`]) and an
//! optional wall-clock budget counted **from admission**
//! ([`ServeConfig::request_timeout`]) bound the search; a truncated
//! search still returns its best feasible candidate, tagged
//! `"degraded"`. Under overload the queue refuses new work with an
//! explicit `overloaded` response instead of growing without bound.
//!
//! **Graceful shutdown:** a `shutdown` request (or
//! [`Server::begin_shutdown`]) stops the accept loop and closes the
//! queue to new admissions, but everything already admitted is drained:
//! workers finish the queue, responses flush through the writer
//! threads, and only then does [`Server::wait`] unblock reads and join
//! the connection threads.
//!
//! **Never panic outward:** each job runs under `catch_unwind`; a panic
//! costs that worker its warm buffers (rebuilt cold), answers the
//! request with an `internal` error, and increments the
//! [`StatsSnapshot::panics`] counter the robustness tests assert is
//! zero.

use crate::protocol::{
    answer, encode_error, encode_flight, encode_overloaded, encode_pong, encode_shutdown_ack,
    encode_stats, encode_telemetry, parse_request, HistogramSummary, Limits, ProtoError, Request,
    SolveRequest, TelemetryBody,
};
use crate::queue::{Bounded, PushError};
use lamps_core::cache::{CacheBuffers, ScheduleCache};
use lamps_core::SchedulerConfig;
use lamps_obs::flight;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7719` (port 0 for tests).
    pub addr: String,
    /// Worker threads, each owning one warm buffer set.
    pub workers: usize,
    /// Bounded-queue capacity; pushes beyond it are rejected as
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Step budget applied to requests that do not carry their own.
    pub default_budget_steps: Option<u64>,
    /// Wall-clock budget per request, measured from admission — queued
    /// time counts, so overload degrades answers instead of stretching
    /// the queue.
    pub request_timeout: Option<Duration>,
    /// Per-connection read and write timeout; a connection idle (or
    /// dribbling a partial line) past this is closed, and so is one
    /// whose client stops reading its replies. The slow-loris defense.
    pub idle_timeout: Duration,
    /// Request payload ceilings.
    pub limits: Limits,
    /// The platform/power model requests are solved against.
    pub scheduler: SchedulerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7719".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1).max(1))
                .unwrap_or(1),
            queue_capacity: 256,
            default_budget_steps: None,
            request_timeout: None,
            idle_timeout: Duration::from_secs(30),
            limits: Limits::default(),
            scheduler: SchedulerConfig::paper(),
        }
    }
}

/// Monotonic server counters (always on; the `stats` op and the tests
/// read these, and they mirror into `lamps-obs` when metrics are
/// enabled).
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    solved_ok: AtomicU64,
    degraded: AtomicU64,
    rejected: AtomicU64,
    solve_errors: AtomicU64,
    protocol_errors: AtomicU64,
    panics: AtomicU64,
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Solve requests admitted to the queue.
    pub requests: u64,
    /// Complete solves answered `ok`.
    pub solved_ok: u64,
    /// Budget-truncated solves answered `degraded`.
    pub degraded: u64,
    /// Admissions refused (`overloaded` responses).
    pub rejected: u64,
    /// Solves that ended in a structured solver error.
    pub solve_errors: u64,
    /// Lines rejected before solving (malformed, oversized, bad graph).
    pub protocol_errors: u64,
    /// Worker panics caught (must stay 0).
    pub panics: u64,
}

impl ServerStats {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            solved_ok: self.solved_ok.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            solve_errors: self.solve_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }
}

/// Bump a local counter and its obs mirror in one step.
fn bump(counter: &AtomicU64, obs_name: &'static str) {
    counter.fetch_add(1, Ordering::Relaxed);
    if lamps_obs::metrics_enabled() {
        lamps_obs::counter(obs_name).inc();
    }
}

/// One admitted unit of work.
struct Job {
    req: Box<SolveRequest>,
    admitted: Instant,
    reply: mpsc::Sender<String>,
}

struct Shared {
    config: ServeConfig,
    addr: SocketAddr,
    queue: Bounded<Job>,
    shutdown: AtomicBool,
    stats: ServerStats,
    /// A read-side handle of each live connection, keyed by connection
    /// id, for the final unblock. Each connection removes its own entry
    /// when it ends, so its socket closes (the client reads EOF) and a
    /// long-lived daemon holds no descriptor for a closed connection.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // No new admissions; everything already queued still drains.
        self.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping it triggers shutdown and joins every
/// thread.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start: accept loop plus `workers` solver threads.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Bounded::new(config.queue_capacity),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            stats: ServerStats::default(),
            conn_streams: Mutex::new(HashMap::new()),
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            shared,
            accept: Some(accept),
            workers: worker_handles,
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Connections accepted and not yet closed.
    pub fn live_connections(&self) -> usize {
        self.shared.conn_streams.lock().expect("streams").len()
    }

    /// Trigger a graceful drain without blocking: stop accepting, close
    /// the queue to new work. Also reachable over the wire as
    /// `{"op": "shutdown"}`.
    pub fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until a shutdown is triggered (by [`Self::begin_shutdown`]
    /// or a wire request), the queue is drained, every response is
    /// flushed, and all threads are joined. Returns the final counters.
    pub fn wait(mut self) -> StatsSnapshot {
        self.join_all();
        self.shared.stats.snapshot()
    }

    /// [`Self::begin_shutdown`] then [`Self::wait`].
    pub fn shutdown(self) -> StatsSnapshot {
        self.begin_shutdown();
        self.wait()
    }

    fn join_all(&mut self) {
        // Accept exits once shutdown is triggered (possibly much later,
        // by a wire request — this is the daemon's "run until told to
        // stop" blocking point).
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Workers exit when the closed queue is drained; every response
        // they produced is already in its connection's writer channel.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Unblock connection readers (SHUT_RD only — pending response
        // writes still flush), then join them.
        for s in self.shared.conn_streams.lock().expect("streams").values() {
            let _ = s.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = self.conns.lock().expect("conns").drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a late client) is dropped
        }
        let Ok(stream) = stream else {
            // Out of descriptors (or a transient accept error): back off
            // instead of spinning until a connection closes.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        bump(&shared.stats.connections, "serve.connections");
        let id = shared.stats.connections.load(Ordering::Relaxed);
        flight::record(flight::SERVE_ACCEPT, id, 0, 0);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.config.idle_timeout));
        // A client that stops reading stalls its writer no longer than
        // an idle reader, so replies cannot pile up and wedge shutdown.
        let _ = stream.set_write_timeout(Some(shared.config.idle_timeout));
        if let Ok(clone) = stream.try_clone() {
            shared
                .conn_streams
                .lock()
                .expect("streams")
                .insert(id, clone);
        }
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                connection_loop(&shared, stream);
                shared.conn_streams.lock().expect("streams").remove(&id);
            })
            .expect("spawn connection");
        let mut conns = conns.lock().expect("conns");
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Why the reader stopped consuming a connection.
enum ReadEnd {
    Eof,
    IdleTimeout,
    Oversized,
    IoError,
}

fn connection_loop(shared: &Arc<Shared>, stream: TcpStream) {
    let _span = lamps_obs::span("serve", "connection");
    let (tx, rx) = mpsc::channel::<String>();
    let mut write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::Builder::new()
        .name("serve-conn-writer".to_string())
        .spawn(move || {
            // Exits when every sender (reader + in-flight jobs) is gone
            // and the channel is drained, or the client stops reading.
            while let Ok(line) = rx.recv() {
                if write_half.write_all(line.as_bytes()).is_err() {
                    return;
                }
            }
            let _ = write_half.flush();
        })
        .expect("spawn writer");

    let end = read_lines(shared, stream, &tx);
    if matches!(end, ReadEnd::Oversized) {
        bump(&shared.stats.protocol_errors, "serve.protocol_errors");
        let _ = tx.send(encode_error(
            None,
            "oversized",
            &format!(
                "request line exceeds {} bytes",
                shared.config.limits.max_line_bytes
            ),
        ));
    }
    // Dropping our sender lets the writer finish flushing job responses
    // that are still in flight, then exit.
    drop(tx);
    let _ = writer.join();
}

/// Smallest free space a `read` is offered; the read buffer grows when
/// less is left.
const READ_CHUNK: usize = 16 * 1024;

/// Consume request lines until the client disconnects, stalls, or
/// overruns the line limit. A panic anywhere in request handling is
/// caught per line so one poisoned request cannot take the connection
/// thread down with it.
///
/// Lines are decoded in place: `read` fills the buffer directly, each
/// complete line is handed to the decoder as a slice of it, the newline
/// scan resumes where the previous one stopped, and the unfinished tail
/// is moved to the front once per `read`.
fn read_lines(shared: &Arc<Shared>, mut stream: TcpStream, tx: &mpsc::Sender<String>) -> ReadEnd {
    let max_line = shared.config.limits.max_line_bytes;
    // `buf[..end]` holds bytes not yet answered; `buf[end..]` is free
    // space for the next read (zeroed once, when the buffer grows).
    let mut buf = vec![0u8; READ_CHUNK];
    let mut end = 0;
    // Bytes of `buf[..end]` already known to hold no newline.
    let mut scanned = 0;
    loop {
        // Answer every complete line currently buffered.
        let mut start = 0;
        while let Some(off) = buf[scanned..end].iter().position(|&b| b == b'\n') {
            let nl = scanned + off;
            if nl + 1 - start > max_line {
                return ReadEnd::Oversized;
            }
            handle_bytes(shared, &buf[start..nl], tx);
            start = nl + 1;
            scanned = start;
        }
        if start > 0 {
            buf.copy_within(start..end, 0);
            end -= start;
        }
        scanned = end;
        if end > max_line {
            return ReadEnd::Oversized;
        }
        if buf.len() - end < READ_CHUNK {
            buf.resize(2 * buf.len(), 0);
        }
        match stream.read(&mut buf[end..]) {
            Ok(0) => return ReadEnd::Eof,
            Ok(n) => end += n,
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                    return ReadEnd::IdleTimeout
                }
                std::io::ErrorKind::Interrupted => continue,
                _ => return ReadEnd::IoError,
            },
        }
    }
}

/// Answer one raw line (without its newline). A line that is not UTF-8
/// is `malformed_json` with no id; blank lines are ignored.
fn handle_bytes(shared: &Arc<Shared>, line: &[u8], tx: &mpsc::Sender<String>) {
    let text = match std::str::from_utf8(line) {
        Ok(text) => text.trim_end_matches('\r').trim(),
        Err(e) => {
            bump(&shared.stats.protocol_errors, "serve.protocol_errors");
            let _ = tx.send(encode_error(
                None,
                "malformed_json",
                &format!(
                    "request line is not valid UTF-8 at byte {}",
                    e.valid_up_to()
                ),
            ));
            return;
        }
    };
    if text.is_empty() {
        return;
    }
    let handled = catch_unwind(AssertUnwindSafe(|| handle_line(shared, text, tx)));
    if handled.is_err() {
        shared.stats.panics.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(encode_error(None, "internal", "request handling panicked"));
    }
}

fn handle_line(shared: &Arc<Shared>, line: &str, tx: &mpsc::Sender<String>) {
    match parse_request(line, &shared.config.limits) {
        Err(ProtoError { id, kind, message }) => {
            bump(&shared.stats.protocol_errors, "serve.protocol_errors");
            let _ = tx.send(encode_error(id, kind, &message));
        }
        Ok(Request::Ping { id }) => {
            let _ = tx.send(encode_pong(id));
        }
        Ok(Request::Stats { id }) => {
            let _ = tx.send(encode_stats(id, &stats_body(shared)));
        }
        Ok(Request::Telemetry { id }) => {
            let _ = tx.send(encode_telemetry(id, &telemetry_body(shared)));
        }
        Ok(Request::Flight { id, last }) => {
            let snap = lamps_obs::flight::snapshot();
            let _ = tx.send(encode_flight(id, snap.tail(last), snap.dropped));
        }
        Ok(Request::Shutdown { id }) => {
            let _ = tx.send(encode_shutdown_ack(id));
            shared.begin_shutdown();
        }
        Ok(Request::Solve(req)) => {
            let id = req.id;
            let job = Job {
                req,
                admitted: Instant::now(),
                reply: tx.clone(),
            };
            // Stamp admission *before* the push: once the job is in the
            // queue a worker may journal solve.start immediately, and
            // the admit event must not post-date it.
            let admit_ts = flight::now_us();
            match shared.queue.try_push(job) {
                Ok(depth) => {
                    bump(&shared.stats.requests, "serve.requests");
                    flight::record_at(admit_ts, flight::SERVE_ADMIT, id, depth as u64, 0);
                    if lamps_obs::metrics_enabled() {
                        lamps_obs::gauge("serve.queue_depth").set(depth as u64);
                    }
                }
                Err(PushError::Full(job)) => {
                    bump(&shared.stats.rejected, "serve.rejected");
                    flight::record(flight::SERVE_OVERLOAD, id, shared.queue.len() as u64, 0);
                    let _ = job.reply.send(encode_overloaded(
                        id,
                        shared.queue.len(),
                        shared.queue.capacity(),
                    ));
                }
                Err(PushError::Closed(job)) => {
                    bump(&shared.stats.protocol_errors, "serve.protocol_errors");
                    let _ = job.reply.send(encode_error(
                        Some(id),
                        "shutting_down",
                        "server is draining and no longer admits work",
                    ));
                }
            }
        }
    }
}

/// The `stats` payload: the server's always-on counters, queue/worker
/// gauges, and the request-latency quantiles (when the obs registry has
/// seen any samples).
fn stats_body(shared: &Arc<Shared>) -> TelemetryBody {
    let s = shared.stats.snapshot();
    let mut body = TelemetryBody {
        counters: [
            ("connections", s.connections),
            ("requests", s.requests),
            ("ok", s.solved_ok),
            ("degraded", s.degraded),
            ("rejected", s.rejected),
            ("solve_errors", s.solve_errors),
            ("protocol_errors", s.protocol_errors),
            ("panics", s.panics),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect(),
        gauges: [
            ("queue_depth", shared.queue.len() as u64),
            ("queue_capacity", shared.queue.capacity() as u64),
            ("workers", shared.config.workers as u64),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_string(), v))
        .collect(),
        histograms: Vec::new(),
    };
    let snap = lamps_obs::registry::snapshot();
    if let Some((count, sum, buckets)) = snap.histogram("serve.latency_us") {
        body.histograms.push(HistogramSummary::from_buckets(
            "serve.latency_us".to_string(),
            count,
            sum,
            buckets,
        ));
    }
    body
}

/// The `telemetry` payload: the full process-wide metrics registry
/// (every counter, gauge, and histogram-with-quantiles), overlaid with
/// the server's always-on values so the serve counters are authoritative
/// even when the registry is disabled.
fn telemetry_body(shared: &Arc<Shared>) -> TelemetryBody {
    let snap = lamps_obs::registry::snapshot();
    let mut body = TelemetryBody {
        counters: snap.counters.clone(),
        gauges: snap.gauges.clone(),
        histograms: snap
            .histograms
            .iter()
            .map(|(name, count, sum, buckets)| {
                HistogramSummary::from_buckets(name.clone(), *count, *sum, buckets)
            })
            .collect(),
    };
    let s = shared.stats.snapshot();
    let overlay_counters = [
        ("serve.connections", s.connections),
        ("serve.requests", s.requests),
        ("serve.ok", s.solved_ok),
        ("serve.degraded", s.degraded),
        ("serve.rejected", s.rejected),
        ("serve.solve_errors", s.solve_errors),
        ("serve.protocol_errors", s.protocol_errors),
        ("serve.panics", s.panics),
    ];
    for (name, v) in overlay_counters {
        match body.counters.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => body.counters.push((name.to_string(), v)),
        }
    }
    let overlay_gauges = [
        ("serve.queue_depth", shared.queue.len() as u64),
        ("serve.queue_capacity", shared.queue.capacity() as u64),
        ("serve.workers", shared.config.workers as u64),
    ];
    for (name, v) in overlay_gauges {
        match body.gauges.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = v,
            None => body.gauges.push((name.to_string(), v)),
        }
    }
    body.counters.sort();
    body.gauges.sort();
    body
}

fn worker_loop(shared: &Arc<Shared>) {
    let mut bufs = CacheBuffers::default();
    while let Some(job) = shared.queue.pop() {
        let id = job.req.id;
        flight::record(
            flight::SERVE_QUEUE_DEPTH,
            id,
            shared.queue.len() as u64,
            shared.queue.capacity() as u64,
        );
        let reply = job.reply.clone();
        let warm = std::mem::take(&mut bufs);
        match catch_unwind(AssertUnwindSafe(|| handle_job(shared, job, warm))) {
            Ok(returned) => bufs = returned,
            Err(_) => {
                // The warm buffers died with the panic; restart cold.
                bufs = CacheBuffers::default();
                bump(&shared.stats.panics, "serve.panics");
                flight::record(flight::SERVE_PANIC, id, 0, 0);
                // Post-mortem: the journal holds what led up to this.
                flight::last_gasp("worker-panic");
                let _ = reply.send(encode_error(
                    Some(id),
                    "internal",
                    "solver panicked; request dropped",
                ));
            }
        }
    }
}

fn handle_job(shared: &Arc<Shared>, job: Job, bufs: CacheBuffers) -> CacheBuffers {
    let _span = lamps_obs::span("serve", "request");
    let req = &job.req;
    let mut budget = req.budget(shared.config.default_budget_steps);
    if let Some(t) = shared.config.request_timeout {
        // Counted from admission: time spent queued eats the budget, so
        // a backlog degrades answers instead of stretching latencies.
        budget = budget.with_deadline(job.admitted + t);
    }
    let mut cache = ScheduleCache::for_graph_recycled(&req.graph, bufs);
    flight::record(flight::SERVE_SOLVE_START, req.id, 0, 0);
    let (result, line) = answer(req, &budget, &shared.config.scheduler, &mut cache);
    match &result {
        Ok(b) if b.completeness.is_complete() => {
            bump(&shared.stats.solved_ok, "serve.ok");
            flight::record(flight::SERVE_SOLVE_DONE, req.id, b.steps, 0);
        }
        Ok(b) => {
            bump(&shared.stats.degraded, "serve.degraded");
            flight::record(flight::SERVE_SOLVE_DONE, req.id, b.steps, 1);
        }
        Err(_) => {
            bump(&shared.stats.solve_errors, "serve.solve_errors");
            flight::record(flight::SERVE_SOLVE_DONE, req.id, 0, 2);
        }
    }
    if lamps_obs::metrics_enabled() {
        lamps_obs::histogram("serve.latency_us").record(job.admitted.elapsed().as_micros() as u64);
    }
    let _ = job.reply.send(line);
    flight::record(flight::SERVE_REPLY, req.id, 0, 0);
    cache.into_buffers()
}
