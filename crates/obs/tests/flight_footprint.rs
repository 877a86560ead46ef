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
//! Only the recording thread is counted: the test harness's main thread
//! allocates now and then while a test runs. The file contains a single
//! `#[test]`, so the counter has one owner and the recording thread is
//! the process's first segment. The library crate forbids `unsafe`; the
//! `GlobalAlloc` impl below lives in this integration test only.

use lamps_obs::flight::{self, FlightEvent, DEFAULT_SEGMENT_CAPACITY};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// System allocator that keeps a running total of live heap bytes.
struct ByteCountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the recording thread; allocations elsewhere are not counted.
    static TRACKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn add(bytes: i64) {
    if TRACKED.with(|t| t.get()) {
        LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: ByteCountingAlloc = ByteCountingAlloc;

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
        TRACKED.with(|t| t.set(true));
        let before = LIVE_BYTES.load(Ordering::Relaxed);
        for i in 0..EVENTS {
            let e = payload(i);
            flight::record_at(e.ts_us, e.kind, e.key, e.a, e.b);
        }
        let live = LIVE_BYTES.load(Ordering::Relaxed) - before;
        TRACKED.with(|t| t.set(false));
        live
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
