//! Protocol-robustness tests: hostile and broken clients must get a
//! structured error or a clean close — never a panic, never a hang.
//!
//! Every test ends by asserting the server's caught-panic counter is
//! still zero and (where it matters) that the server still answers a
//! well-formed request afterwards. Client-side protocol handling runs
//! under `catch_unwind` so a panic in the machinery under test registers
//! as a test failure with context rather than a poisoned harness.

use lamps_serve::protocol::Response;
use lamps_serve::{parse_response, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// A server on an ephemeral port with test-friendly timeouts.
fn test_server(mutate: impl FnOnce(&mut ServeConfig)) -> Server {
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    mutate(&mut config);
    Server::start(config).expect("bind test server")
}

/// A test client: write half plus one persistent buffered reader (a
/// fresh `BufReader` per read would eat pipelined responses).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(server: &Server) -> Client {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    Client { stream, reader }
}

impl Client {
    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    /// Send one line, read one response line.
    fn roundtrip(&mut self, line: &str) -> Response {
        self.write(line.as_bytes());
        self.write(b"\n");
        self.read_response()
    }

    fn read_response(&mut self) -> Response {
        let mut buf = String::new();
        self.reader.read_line(&mut buf).expect("read response");
        parse_response(buf.trim()).unwrap_or_else(|e| panic!("unparseable response {buf:?}: {e}"))
    }

    /// Drain to EOF; returns the bytes read (0 = clean close).
    fn read_to_eof(&mut self) -> usize {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).unwrap_or(0)
    }
}

const GOOD_SOLVE: &str = "{\"id\":77,\"strategy\":\"lamps\",\"deadline_factor\":2.0,\
     \"graph\":{\"weights\":[3100000,6200000],\"edges\":[[0,1]]}}";

/// The server must still answer a well-formed request — the liveness
/// probe every hostile-input test ends with.
fn assert_still_serving(server: &Server) {
    let mut s = connect(server);
    match s.roundtrip(GOOD_SOLVE) {
        Response::Solved(r) => assert_eq!(r.id, 77),
        other => panic!("expected a solved response, got {other:?}"),
    }
}

#[test]
fn malformed_json_gets_structured_error_and_connection_survives() {
    let server = test_server(|_| {});
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = connect(&server);
        for bad in [
            "this is not json",
            "{\"id\":}",
            "[1,2,3]",
            "{\"id\":1,\"op\":\"warp\"}",
            "{\"id\":2,\"strategy\":\"lamps\"}",
            "{\"id\":3,\"strategy\":\"lamps\",\"deadline_factor\":2,\"graph\":{\"weights\":[]}}",
        ] {
            match s.roundtrip(bad) {
                Response::Error { .. } => {}
                other => panic!("{bad:?} should earn an error, got {other:?}"),
            }
        }
        // Same connection still solves after six rejected lines.
        match s.roundtrip(GOOD_SOLVE) {
            Response::Solved(r) => assert_eq!(r.id, 77),
            other => panic!("expected solved, got {other:?}"),
        }
    }));
    assert!(outcome.is_ok(), "protocol handling panicked");
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn error_responses_echo_the_request_id_whenever_extractable() {
    let server = test_server(|_| {});
    let mut s = connect(&server);
    // Id extractable → echoed.
    let resp = s.roundtrip("{\"id\":41,\"op\":\"nope\"}");
    assert_eq!(resp.id(), Some(41));
    // Id not extractable → explicit null, not a dropped line.
    let resp = s.roundtrip("garbage");
    assert!(matches!(resp, Response::Error { id: None, .. }));
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn work_overflow_earns_a_bad_graph_error_not_a_wrapped_deadline() {
    // 2049 tasks of 2^53 cycles in a chain: each weight is legal on the
    // wire, the total work is not a u64. The daemon must refuse the
    // graph rather than derive a deadline from a wrapped critical path.
    let server = test_server(|_| {});
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let n = 2049;
        let weights = vec!["9007199254740992"; n].join(",");
        let edges = (0..n - 1)
            .map(|i| format!("[{i},{}]", i + 1))
            .collect::<Vec<_>>()
            .join(",");
        let line = format!(
            "{{\"id\":12,\"strategy\":\"lamps\",\"deadline_factor\":2,\
             \"graph\":{{\"weights\":[{weights}],\"edges\":[{edges}]}}}}"
        );
        let mut s = connect(&server);
        match s.roundtrip(&line) {
            Response::Error { id, kind, .. } => {
                assert_eq!((id, kind.as_str()), (Some(12), "bad_graph"));
            }
            other => panic!("expected a bad_graph error, got {other:?}"),
        }
    }));
    assert!(outcome.is_ok(), "protocol handling panicked");
    assert_still_serving(&server);
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn oversized_line_is_rejected_and_connection_closed() {
    let server = test_server(|c| c.limits.max_line_bytes = 256);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = connect(&server);
        // 4 KiB of garbage with no newline: the reader must refuse to
        // buffer past the limit, answer `oversized`, and close.
        let blob = vec![b'x'; 4096];
        s.write(&blob);
        match s.read_response() {
            Response::Error { kind, .. } => assert_eq!(kind, "oversized"),
            other => panic!("expected oversized error, got {other:?}"),
        }
        // The server closed its end: reads drain to EOF.
        assert_eq!(
            s.read_to_eof(),
            0,
            "connection should be closed after oversized line"
        );
    }));
    assert!(outcome.is_ok(), "oversized handling panicked");
    assert_still_serving(&server);
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn slow_loris_partial_line_is_timed_out_not_buffered_forever() {
    let server = test_server(|c| c.idle_timeout = Duration::from_millis(150));
    let mut s = connect(&server);
    // Dribble a partial request and then stall.
    s.write(b"{\"id\":1,\"strategy\":\"la");
    // The server must give up within the idle timeout and close.
    assert_eq!(s.read_to_eof(), 0, "stalled connection should be closed");
    assert_still_serving(&server);
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn mid_request_disconnect_is_absorbed() {
    let server = test_server(|_| {});
    for _ in 0..5 {
        let mut s = connect(&server);
        // Send a complete solve and slam the connection before reading
        // the answer — the worker's reply lands on a dead channel.
        s.write(GOOD_SOLVE.as_bytes());
        s.write(b"\n");
        drop(s);
    }
    // And one that dies mid-line.
    let mut s = connect(&server);
    s.write(b"{\"id\":9,\"strategy");
    drop(s);
    std::thread::sleep(Duration::from_millis(100));
    assert_still_serving(&server);
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn pipelined_requests_all_answer_with_their_own_id() {
    let server = test_server(|_| {});
    let mut s = connect(&server);
    let mut batch = String::new();
    for id in [10u64, 11, 12, 13] {
        batch.push_str(&format!(
            "{{\"id\":{id},\"strategy\":\"ss\",\"deadline_factor\":2.0,\
             \"graph\":{{\"weights\":[3100000]}}}}\n"
        ));
    }
    batch.push_str("{\"id\":14,\"op\":\"ping\"}\n");
    s.write(batch.as_bytes());
    let mut seen: Vec<u64> = (0..5)
        .map(|_| s.read_response().id().expect("id"))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, vec![10, 11, 12, 13, 14]);
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn zero_capacity_queue_rejects_with_overloaded() {
    let server = test_server(|c| c.queue_capacity = 0);
    let mut s = connect(&server);
    match s.roundtrip(GOOD_SOLVE) {
        Response::Overloaded { id, queue_depth } => {
            assert_eq!(id, 77);
            assert_eq!(queue_depth, 0);
        }
        other => panic!("expected overloaded, got {other:?}"),
    }
    // Control ops bypass the queue and still work under overload.
    assert!(matches!(
        s.roundtrip("{\"id\":1,\"op\":\"ping\"}"),
        Response::Pong { id: 1 }
    ));
    let stats = server.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.panics, 0);
}

#[test]
fn wire_shutdown_acks_then_drains_and_refuses_new_work() {
    let server = test_server(|_| {});
    let addr = server.addr();
    let mut s = connect(&server);
    // One solve, then shutdown, then a late solve — all pipelined.
    let mut batch = String::from(GOOD_SOLVE);
    batch.push('\n');
    batch.push_str("{\"id\":100,\"op\":\"shutdown\"}\n");
    s.write(batch.as_bytes());
    let first = s.read_response();
    let second = s.read_response();
    let mut statuses: Vec<&str> = Vec::new();
    for r in [&first, &second] {
        statuses.push(match r {
            Response::Solved(_) => "solved",
            Response::ShuttingDown { .. } => "shutting_down",
            other => panic!("unexpected {other:?}"),
        });
    }
    statuses.sort_unstable();
    assert_eq!(statuses, ["shutting_down", "solved"]);
    // Work sent after the drain began is refused, not silently dropped.
    match s.roundtrip(GOOD_SOLVE) {
        Response::Error { kind, .. } => assert_eq!(kind, "shutting_down"),
        other => panic!("expected shutting_down error, got {other:?}"),
    }
    drop(s);
    let stats = server.wait();
    assert_eq!(stats.panics, 0);
    // The listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A connect may still succeed if the OS races the close; but a
            // request on it must never be answered. Bound the check.
            let mut s = TcpStream::connect(addr).expect("raced connect");
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let _ = s.write_all(b"{\"id\":1,\"op\":\"ping\"}\n");
            let mut buf = [0u8; 64];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        }
    );
}

#[test]
fn stats_racing_ordered_shutdown_always_answers_or_refuses_structurally() {
    let server = test_server(|c| c.idle_timeout = Duration::from_millis(500));
    let addr = server.addr();
    // Four clients hammer the control plane while the main thread pulls
    // the plug mid-stream. Every in-flight `stats` must end one of three
    // ways — a Stats answer, a structured refusal, or a clean close —
    // within the read timeout. A timeout is a hang and fails the test.
    let hammers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || -> Result<usize, String> {
                let mut answered = 0usize;
                for i in 0..200 {
                    let stream = match TcpStream::connect(addr) {
                        Ok(s) => s,
                        // Listener gone: the shutdown won the race.
                        Err(_) => return Ok(answered),
                    };
                    stream
                        .set_read_timeout(Some(Duration::from_secs(5)))
                        .map_err(|e| e.to_string())?;
                    stream.set_nodelay(true).ok();
                    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
                    let mut w = &stream;
                    if w.write_all(b"{\"id\":1,\"op\":\"stats\"}\n").is_err() {
                        // Reset while writing: structural refusal.
                        return Ok(answered);
                    }
                    let mut buf = String::new();
                    match reader.read_line(&mut buf) {
                        Ok(0) => return Ok(answered), // clean EOF
                        Ok(_) => match parse_response(buf.trim()) {
                            Ok(Response::Stats { id: 1, .. }) => answered += 1,
                            Ok(Response::ShuttingDown { .. } | Response::Error { .. }) => {
                                return Ok(answered)
                            }
                            Ok(other) => {
                                return Err(format!("iteration {i}: unexpected {other:?}"))
                            }
                            Err(e) => {
                                return Err(format!("iteration {i}: unparseable {buf:?}: {e}"))
                            }
                        },
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            return Err(format!("iteration {i}: stats hung past the timeout"))
                        }
                        // Reset mid-read as the socket is torn down.
                        Err(_) => return Ok(answered),
                    }
                }
                Ok(answered)
            })
        })
        .collect();
    // Let the hammers land some answers, then shut down underneath them.
    std::thread::sleep(Duration::from_millis(50));
    server.begin_shutdown();
    let mut total_answered = 0usize;
    for h in hammers {
        match h.join() {
            Ok(Ok(n)) => total_answered += n,
            Ok(Err(msg)) => panic!("hammer thread: {msg}"),
            Err(_) => panic!("hammer thread panicked"),
        }
    }
    assert!(
        total_answered > 0,
        "no stats request was ever answered; the race never overlapped"
    );
    let stats = server.wait();
    assert_eq!(stats.panics, 0);
}

#[test]
fn budget_steps_degrade_instead_of_failing() {
    let server = test_server(|_| {});
    let mut s = connect(&server);
    // A wide graph with a tiny step budget: the search truncates and
    // the response says so.
    let line = "{\"id\":55,\"strategy\":\"lamps_ps\",\"deadline_factor\":8.0,\"budget_steps\":2,\
         \"graph\":{\"weights\":[3100000,3100000,3100000,3100000,3100000,3100000,3100000,3100000]}}";
    match s.roundtrip(line) {
        Response::Solved(r) => {
            assert_eq!(r.id, 55);
            assert!(r.degraded, "2-step budget on a wide graph must degrade");
            assert!(r.steps <= 2);
        }
        other => panic!("expected degraded solve, got {other:?}"),
    }
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn duplicate_keys_are_named_and_the_connection_keeps_serving() {
    let server = test_server(|_| {});
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = connect(&server);
        for (line, want_id, key) in [
            (
                "{\"id\":20,\"op\":\"ping\",\"op\":\"stats\"}",
                Some(20),
                "op",
            ),
            ("{\"id\":21,\"id\":22,\"op\":\"ping\"}", None, "id"),
            (
                "{\"id\":23,\"strategy\":\"lamps\",\"strategy\":\"ss\",\"deadline_factor\":2,\
                 \"graph\":{\"weights\":[1]}}",
                Some(23),
                "strategy",
            ),
            (
                "{\"id\":24,\"strategy\":\"lamps\",\"deadline_factor\":2,\
                 \"graph\":{\"weights\":[1],\"weights\":[2]}}",
                Some(24),
                "graph.weights",
            ),
        ] {
            match s.roundtrip(line) {
                Response::Error { id, kind, message } => {
                    assert_eq!((id, kind.as_str()), (want_id, "bad_request"), "{line}");
                    assert_eq!(message, format!("duplicate key {key:?}"));
                }
                other => panic!("{line} should earn an error, got {other:?}"),
            }
        }
        match s.roundtrip(GOOD_SOLVE) {
            Response::Solved(r) => assert_eq!(r.id, 77),
            other => panic!("expected solved, got {other:?}"),
        }
    }));
    assert!(outcome.is_ok(), "protocol handling panicked");
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn non_rfc_numbers_and_invalid_utf8_are_malformed_json_without_an_id() {
    let server = test_server(|_| {});
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut s = connect(&server);
        let mut lines: Vec<Vec<u8>> = ["05", "2.", "-.0", "1.e0", "+1"]
            .iter()
            .map(|num| format!("{{\"id\":{num},\"op\":\"ping\"}}").into_bytes())
            .collect();
        // A 0xFF byte inside the strategy name, and a truncated sequence.
        lines.push(
            b"{\"id\":30,\"strategy\":\"l\xffmps\",\"deadline_factor\":2,\"graph\":{\"weights\":[1]}}"
                .to_vec(),
        );
        lines.push(b"{\"id\":31,\"op\":\"ping\",\"x\":\"\xe2\x82\"}".to_vec());
        for line in &lines {
            s.write(line);
            s.write(b"\n");
            match s.read_response() {
                Response::Error { id, kind, .. } => {
                    assert_eq!((id, kind.as_str()), (None, "malformed_json"), "{line:?}");
                }
                other => panic!("{line:?} should earn an error, got {other:?}"),
            }
        }
        match s.roundtrip(GOOD_SOLVE) {
            Response::Solved(r) => assert_eq!(r.id, 77),
            other => panic!("expected solved, got {other:?}"),
        }
    }));
    assert!(outcome.is_ok(), "protocol handling panicked");
    assert_eq!(server.stats().panics, 0);
    assert_eq!(server.stats().protocol_errors, 7);
}

#[test]
fn a_line_split_across_many_writes_is_answered_once() {
    let server = test_server(|_| {});
    let mut s = connect(&server);
    let line = format!("{GOOD_SOLVE}\n");
    for piece in line.as_bytes().chunks(5) {
        s.write(piece);
        std::thread::sleep(Duration::from_millis(1));
    }
    match s.read_response() {
        Response::Solved(r) => assert_eq!(r.id, 77),
        other => panic!("expected solved, got {other:?}"),
    }
    // A second line whose newline arrives alone, after a CR.
    s.write(b"{\"id\":3,\"op\":\"ping\"}\r");
    std::thread::sleep(Duration::from_millis(5));
    s.write(b"\n");
    assert!(matches!(s.read_response(), Response::Pong { id: 3 }));
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn many_lines_in_one_write_each_answer_with_their_own_id() {
    let server = test_server(|_| {});
    let mut s = connect(&server);
    let mut batch = String::new();
    let mut want = Vec::new();
    for id in 100u64..160 {
        if id % 3 == 0 {
            batch.push_str(&format!("{{\"id\":{id},\"op\":\"ping\"}}\n"));
        } else {
            batch.push_str(&format!(
                "{{\"id\":{id},\"strategy\":\"lamps\",\"deadline_factor\":2.0,\
                 \"graph\":{{\"weights\":[3100000,{}],\"edges\":[[0,1]]}}}}\n",
                id * 1000
            ));
        }
        // Blank lines in between are skipped, not answered.
        if id % 7 == 0 {
            batch.push_str(" \r\n\n");
        }
        want.push(id);
    }
    s.write(batch.as_bytes());
    let mut seen: Vec<u64> = want
        .iter()
        .map(|_| s.read_response().id().expect("id"))
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, want);
    assert_eq!(server.stats().panics, 0);
}

/// Poll until the server's connection registry is empty, or give up
/// after `limit`.
fn registry_drains(server: &Server, limit: Duration) -> bool {
    let start = std::time::Instant::now();
    while server.live_connections() > 0 {
        if start.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn half_closed_client_reads_eof_well_inside_the_idle_timeout() {
    let idle = Duration::from_secs(5);
    let server = test_server(|c| c.idle_timeout = idle);
    let mut s = connect(&server);
    match s.roundtrip("{\"id\":3,\"op\":\"ping\"}") {
        Response::Pong { id } => assert_eq!(id, 3),
        other => panic!("expected pong, got {other:?}"),
    }
    let start = std::time::Instant::now();
    s.stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(s.read_to_eof(), 0, "no bytes after the pong");
    let waited = start.elapsed();
    assert!(
        waited < idle / 5,
        "the server held a half-closed connection open for {waited:?}"
    );
    assert!(registry_drains(&server, Duration::from_secs(2)));
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn closed_connections_leave_the_registry() {
    let server = test_server(|_| {});
    for i in 0..200u64 {
        let mut s = connect(&server);
        if i % 2 == 0 {
            match s.roundtrip(&format!("{{\"id\":{i},\"op\":\"ping\"}}")) {
                Response::Pong { id } => assert_eq!(id, i),
                other => panic!("expected pong, got {other:?}"),
            }
        }
        drop(s);
    }
    // An odd-numbered client closes without a round trip, so the last
    // one can close before the server accepts it: wait for every accept
    // before asking whether the registry drained.
    let start = std::time::Instant::now();
    while server.stats().connections < 200 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        registry_drains(&server, Duration::from_secs(10)),
        "{} closed connections still registered",
        server.live_connections()
    );
    assert_eq!(server.stats().connections, 200);
    assert_still_serving(&server);
    assert!(registry_drains(&server, Duration::from_secs(10)));
    assert_eq!(server.stats().panics, 0);
}

#[test]
fn a_client_that_never_reads_cannot_wedge_shutdown() {
    let server = test_server(|c| {
        c.workers = 1;
        c.idle_timeout = Duration::from_millis(500);
    });
    let mut s = connect(&server);
    // Far more reply bytes than the socket buffers of both ends hold, so
    // the connection's writer stalls for good unless its write times out.
    // Each line lacks its id, so each counts as a protocol error once read.
    let lines = 200_000;
    s.write("{\"op\":\"stats\"}\n".repeat(lines).as_bytes());
    let start = std::time::Instant::now();
    while server.stats().protocol_errors < lines as u64 {
        assert!(start.elapsed() < Duration::from_secs(10), "lines unread");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.shutdown());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown wedged behind a client that never reads");
    assert_eq!(stats.panics, 0);
    drop(s);
}
