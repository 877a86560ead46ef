//! Proof that a flight recorder segment holds 32 bytes per event.
//!
//! A fresh thread records 10,000 events of three kinds into a default
//! segment (4096 events). Its live heap afterwards must be the ring's
//! `4096 · 32` bytes plus the segment's small fixed part: the kind
//! table (three tags and a `u16` index vector), the shared segment
//! header and its pointer in the global segment list. The snapshot must
//! still return exactly the newest 4096 events with the thread's id,
//! kinds and payloads.
//!
//! Only the recording thread is counted. The file contains a single
//! `#[test]`, so the recording thread is the process's first segment.

use lamps_obs::flight::{self, FlightEvent, DEFAULT_SEGMENT_CAPACITY};
use lamps_testalloc::{on_this_thread, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const KINDS: [&str; 3] = [
    flight::SERVE_ADMIT,
    flight::SERVE_SOLVE_DONE,
    flight::SERVE_REPLY,
];
const EVENTS: u64 = 10_000;
/// Bytes allowed beyond the ring: the kind table (3 × 16 bytes of tags
/// and 3 × 2 bytes of indices, each vector rounded up to 4 entries) and
/// the segment header, about 230 bytes in all. The old 56-byte events
/// alone would exceed the bound by 96 KiB.
const FIXED_ALLOWANCE: i64 = 512;

fn payload(i: u64) -> FlightEvent {
    FlightEvent {
        ts_us: i,
        tid: 0,
        kind: KINDS[(i % 3) as usize],
        key: i,
        a: 2 * i,
        b: u64::MAX - i,
    }
}

#[test]
fn a_segment_holds_32_bytes_per_event_plus_its_kind_table() {
    assert_eq!(DEFAULT_SEGMENT_CAPACITY, 4096);
    flight::enable_flight();
    let live = std::thread::spawn(|| {
        on_this_thread(|| {
            for i in 0..EVENTS {
                let e = payload(i);
                flight::record_at(e.ts_us, e.kind, e.key, e.a, e.b);
            }
        })
        .1
        .bytes
    })
    .join()
    .unwrap();
    flight::disable_flight();

    let ring = (DEFAULT_SEGMENT_CAPACITY * 32) as i64;
    assert!(live >= ring, "the ring is {ring} bytes, only {live} live");
    assert!(
        live <= ring + FIXED_ALLOWANCE,
        "segment holds {live} bytes, over {ring} + {FIXED_ALLOWANCE}"
    );

    // The recording thread owns the process's first segment: tid 0.
    let snap = flight::snapshot();
    assert_eq!(snap.dropped, EVENTS - DEFAULT_SEGMENT_CAPACITY as u64);
    let want: Vec<FlightEvent> = (EVENTS - DEFAULT_SEGMENT_CAPACITY as u64..EVENTS)
        .map(payload)
        .collect();
    assert_eq!(snap.events, want, "exactly the newest 4096 events");
}
