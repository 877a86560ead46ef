//! The wire fuzzer's lines against a live daemon.
//!
//! A `Server` on an ephemeral port gets a few hundred seeded lines from
//! [`lamps_verify::daemon_lines`] — grammar-generated and byte-mutated,
//! invalid UTF-8 included — over one connection, one line at a time.
//! Every line must earn exactly one response whose error code (or
//! success) and echoed id match what the in-process decoder gives the
//! same line ([`lamps_verify::check_line`] and `parse_request`), and the
//! daemon must still solve a valid request afterwards.
//!
//! The daemon reads a line the way the in-process side is fed here: a
//! line that is not UTF-8 is `malformed_json` with no id, a trailing
//! `\r` and surrounding whitespace are trimmed, and a blank line gets no
//! answer (so blank lines are not sent). `shutdown` ops are not sent
//! either: they would end the run.

use lamps_serve::protocol::{parse_request, Request};
use lamps_serve::{parse_response, Response, ServeConfig, Server};
use lamps_verify::{check_line, daemon_lines};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

const SEED: u64 = 2006;
const LINES: u64 = 600;

/// Solver errors a decoded solve may earn; anything else is a fault.
const SOLVE_ERRORS: &[&str] = &["infeasible", "bad_deadline", "power", "budget_exhausted"];

const GOOD_SOLVE: &str = "{\"id\":77,\"strategy\":\"lamps\",\"deadline_factor\":2.0,\
     \"graph\":{\"weights\":[3100000,6200000],\"edges\":[[0,1]]}}";

fn request_id(req: &Request) -> u64 {
    match req {
        Request::Solve(s) => s.id,
        Request::Ping { id }
        | Request::Stats { id }
        | Request::Telemetry { id }
        | Request::Flight { id, .. }
        | Request::Shutdown { id } => *id,
    }
}

/// Whether `resp` is the daemon's answer to the decoded request `req`.
fn answers(req: &Request, resp: &Response) -> bool {
    match (req, resp) {
        (Request::Solve(_), Response::Solved(_)) => true,
        (Request::Solve(_), Response::Error { kind, .. }) => SOLVE_ERRORS.contains(&kind.as_str()),
        (Request::Ping { .. }, Response::Pong { .. })
        | (Request::Stats { .. }, Response::Stats { .. })
        | (Request::Telemetry { .. }, Response::Telemetry { .. })
        | (Request::Flight { .. }, Response::Flight { .. }) => true,
        _ => false,
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Client { stream, reader }
    }

    /// Send one line, read one response line.
    fn roundtrip(&mut self, line: &[u8]) -> Response {
        self.stream.write_all(line).expect("write");
        self.stream.write_all(b"\n").expect("write");
        let mut buf = String::new();
        let n = self.reader.read_line(&mut buf).expect("read a response");
        assert!(n > 0, "the daemon closed the connection");
        parse_response(buf.trim_end()).unwrap_or_else(|e| panic!("unparseable {buf:?}: {e}"))
    }
}

#[test]
fn daemon_answers_every_fuzz_line_as_the_decoder_does() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let limits = config.limits;
    let server = Server::start(config).expect("bind test server");
    let mut client = Client::connect(&server);

    let (mut sent, mut not_utf8, mut decoded) = (0, 0, 0);
    let mut rejected = std::collections::BTreeMap::<&str, u32>::new();
    for (i, bytes) in daemon_lines(SEED, LINES).iter().enumerate() {
        let (want, want_id, req) = match std::str::from_utf8(bytes) {
            Err(_) => {
                not_utf8 += 1;
                (Some("malformed_json"), None, None)
            }
            Ok(text) => {
                let text = text.trim_end_matches('\r').trim();
                let parsed = parse_request(text, &limits);
                if text.is_empty() || matches!(parsed, Ok(Request::Shutdown { .. })) {
                    continue;
                }
                let kind = check_line(text, &limits)
                    .unwrap_or_else(|v| panic!("line {i} breaks the decoder: {v}: {text:?}"));
                match parsed {
                    Ok(req) => (kind, Some(request_id(&req)), Some(req)),
                    Err(e) => (kind, e.id, None),
                }
            }
        };
        sent += 1;
        let resp = client.roundtrip(bytes);
        let line = String::from_utf8_lossy(bytes);
        match (&req, want) {
            (Some(req), None) => {
                decoded += 1;
                assert!(
                    answers(req, &resp),
                    "line {i} decodes in process but the daemon answered {resp:?}: {line:?}"
                );
            }
            (None, Some(kind)) => {
                *rejected.entry(kind).or_default() += 1;
                assert!(
                    matches!(&resp, Response::Error { kind: got, .. } if got == kind),
                    "line {i} is {kind} in process, the daemon answered {resp:?}: {line:?}"
                );
            }
            _ => panic!("line {i}: decoder and check_line disagree: {line:?}"),
        }
        assert_eq!(resp.id(), want_id, "line {i} echoed id: {line:?}");
    }

    // A stray extra response to any line would be read here instead.
    assert_eq!(
        client.roundtrip(b"{\"id\":424242,\"op\":\"ping\"}"),
        Response::Pong { id: 424242 }
    );
    match client.roundtrip(GOOD_SOLVE.as_bytes()) {
        Response::Solved(r) => assert_eq!(r.id, 77),
        other => panic!("expected a solved response, got {other:?}"),
    }
    // The stream reaches every outcome class.
    assert!(
        sent > 500 && not_utf8 > 50 && decoded > 20,
        "{sent} {not_utf8} {decoded}"
    );
    for kind in ["malformed_json", "bad_request", "bad_graph"] {
        assert!(rejected.get(kind).is_some_and(|&n| n >= 5), "{rejected:?}");
    }
    assert_eq!(server.stats().panics, 0);
    eprintln!("{sent} lines sent: {decoded} decoded, {not_utf8} not UTF-8, {rejected:?}");
    server.shutdown();
}
