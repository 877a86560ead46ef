//! `top` for a running `lamps-serve` daemon: poll the wire `telemetry`
//! op and render a live one-screen dashboard.
//!
//! ```text
//! top --addr 127.0.0.1:7719 --interval-ms 1000
//! ```
//!
//! Each tick prints request throughput (from counter deltas between
//! polls), solve-latency p50/p99, queue depth against capacity, and the
//! shed/degraded rates — the four numbers that tell you whether the
//! daemon is keeping up, drowning, or shedding.
//!
//! * `--addr` — daemon address (required).
//! * `--interval-ms` — poll period (default 1000).
//! * `--once` — poll a single time, print one snapshot, exit (CI mode;
//!   equivalent to `--iterations 1`).
//! * `--iterations` — exit after N polls (0 = run until the connection
//!   drops or ctrl-C).
//! * `--telemetry-out` — save the last raw `telemetry` response line to
//!   a file, for offline schema checks (`gate --telemetry`).
//! * `--flight-out` — also issue a `flight` op on exit and save the raw
//!   response line.
//! * `--last` — how many journal events the `flight` op asks for
//!   (default 256).
//! * `--shutdown` — send a `shutdown` request after the final poll, so
//!   one invocation can both observe and drain a CI daemon.
//!
//! Connection failures exit nonzero with a one-line error; a daemon
//! that answers `telemetry` with anything but a telemetry response is
//! a protocol error and also exits nonzero.

use lamps_bench::cli::{or_die, Options};
use lamps_serve::protocol::Request;
use lamps_serve::{encode_request, parse_response, Response, TelemetryBody};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// One request line out, one raw response line back.
    fn roundtrip(&mut self, req: &Request) -> std::io::Result<String> {
        self.stream.write_all(encode_request(req).as_bytes())?;
        let mut buf = String::new();
        if self.reader.read_line(&mut buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(buf.trim_end().to_string())
    }
}

/// The numbers one dashboard row is built from.
struct Sample {
    at: Instant,
    requests: u64,
    degraded: u64,
    rejected: u64,
}

fn sample(body: &TelemetryBody, at: Instant) -> Sample {
    let c = |name: &str| body.counter(name).unwrap_or(0);
    Sample {
        at,
        requests: c("serve.requests"),
        degraded: c("serve.degraded"),
        rejected: c("serve.rejected"),
    }
}

fn rate(delta: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        delta as f64 / secs
    } else {
        0.0
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        100.0 * part as f64 / whole as f64
    } else {
        0.0
    }
}

fn quantile_ms(body: &TelemetryBody, q: &str) -> String {
    let Some(h) = body.histogram("serve.latency_us") else {
        return "-".to_string();
    };
    let v = match q {
        "p50" => h.p50,
        "p99" => h.p99,
        _ => h.p90,
    };
    match v {
        Some(us) => format!("{:.2}", us / 1000.0),
        None => "-".to_string(),
    }
}

fn render(body: &TelemetryBody, prev: Option<&Sample>, now: &Sample) -> String {
    let (dt, dreq) = match prev {
        Some(p) => (
            now.at.duration_since(p.at).as_secs_f64(),
            now.requests.saturating_sub(p.requests),
        ),
        None => (0.0, 0),
    };
    format!(
        "req {:>8}  {:>8.1}/s | p50 {:>8} ms  p99 {:>8} ms | queue {:>4}/{:<4} | shed {:>5.1}%  degraded {:>5.1}%",
        now.requests,
        rate(dreq, dt),
        quantile_ms(body, "p50"),
        quantile_ms(body, "p99"),
        body.gauge("serve.queue_depth").unwrap_or(0),
        body.gauge("serve.queue_capacity").unwrap_or(0),
        pct(now.rejected, now.requests + now.rejected),
        pct(now.degraded, now.requests.max(1)),
    )
}

fn main() {
    let opts = Options::parse(&[
        "addr",
        "interval-ms",
        "once",
        "iterations",
        "telemetry-out",
        "flight-out",
        "last",
        "shutdown",
    ]);
    let addr = opts.string("addr", "");
    if addr.is_empty() {
        eprintln!("error: --addr is required");
        std::process::exit(2);
    }
    let interval = Duration::from_millis(opts.u64("interval-ms", 1000));
    let iterations = if opts.flag("once") {
        1
    } else {
        opts.u64("iterations", 0)
    };
    let telemetry_out = opts.string("telemetry-out", "");
    let flight_out = opts.string("flight-out", "");
    let last = opts.u64("last", 256);

    let mut client = or_die(Client::connect(&addr));
    let mut prev: Option<Sample> = None;
    let mut polls = 0u64;
    let mut last_raw;
    loop {
        let raw = or_die(client.roundtrip(&Request::Telemetry { id: polls + 1 }));
        let at = Instant::now();
        let body = match or_die(parse_response(&raw)) {
            Response::Telemetry { body, .. } => body,
            other => {
                eprintln!("error: expected a telemetry response, got {other:?}");
                std::process::exit(1);
            }
        };
        let now = sample(&body, at);
        println!("{}", render(&body, prev.as_ref(), &now));
        let _ = std::io::stdout().flush();
        prev = Some(now);
        last_raw = raw;
        polls += 1;
        if iterations > 0 && polls >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }

    if !telemetry_out.is_empty() {
        or_die(lamps_obs::expo::write_atomic(
            std::path::Path::new(&telemetry_out),
            &last_raw,
        ));
    }
    if !flight_out.is_empty() {
        let raw = or_die(client.roundtrip(&Request::Flight {
            id: polls + 1,
            last: last as usize,
        }));
        match or_die(parse_response(&raw)) {
            Response::Flight { .. } => {}
            other => {
                eprintln!("error: expected a flight response, got {other:?}");
                std::process::exit(1);
            }
        }
        or_die(lamps_obs::expo::write_atomic(
            std::path::Path::new(&flight_out),
            &raw,
        ));
    }
    if opts.flag("shutdown") {
        let raw = or_die(client.roundtrip(&Request::Shutdown { id: polls + 2 }));
        println!("shutdown acknowledged: {raw}");
    }
}
