//! Proof that an online stream owns its stream-level arrays and nothing
//! else.
//!
//! A fault-free stream of `F` frames of `N` jobs must hold one copy of
//! the job WCETs on the heap and nothing else: exactly `8·N` bytes in one
//! allocation, whatever `F` is and whether or not a WCET fits in `u32`.
//! Its actuals are drawn from that copy on every read, not stored, and
//! its arrivals are a progression stored inline, not a per-frame array:
//! no per-frame vectors, no fault arrays, no capacity slack. A stream
//! with faults adds its eight flat fault arrays and nothing else: with
//! `O` overruns and `D` DVS faults over all its frames it owns exactly
//!
//! `8·N + 8·F + 12·F + 8·⌈F/64⌉ + 12·O + 24·D` bytes
//!
//! (per frame two 4-byte end offsets and a fail-stop slot of a `u32`
//! processor and an `f64` time, one 64-bit presence word per 64 frames;
//! per overrun a `u32` task and an `f64` factor in two columns, not a
//! padded 16-byte `Overrun`; 24 bytes per `DvsFault`), again in a
//! constant number of allocations whatever `F` is. A byte-counting global
//! allocator measures the live heap around each build.
//!
//! This file deliberately contains a single `#[test]`: the counters are
//! process-global, and a sibling test allocating on another thread
//! would skew them. The library crate forbids `unsafe`; the
//! `GlobalAlloc` impl below lives in this integration test only.

use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{DvsFault, FaultIntensity, OnlineStream, Overrun};
use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicI64, Ordering};

/// System allocator that keeps a running total of live heap bytes and
/// of allocation calls.
struct CountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The stream `make` returns, the heap bytes still live after it
/// returns, and the allocation calls it made.
fn retained(make: impl FnOnce() -> OnlineStream) -> (OnlineStream, i64, i64) {
    let (bytes, allocs) = (
        LIVE_BYTES.load(Ordering::Relaxed),
        ALLOCS.load(Ordering::Relaxed),
    );
    let s = make();
    (
        s,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
        ALLOCS.load(Ordering::Relaxed) - allocs,
    )
}

/// `8·N`: the copy of the job WCETs the actuals derive from.
fn fault_free_bytes(jobs: usize) -> i64 {
    (size_of::<u64>() * jobs) as i64
}

fn dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    s.to_frame_dag()
}

/// A frame whose `big` job's WCET, 5·10⁹ cycles, needs `u64`.
fn big_wcet_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 1_000_000_000, 8_000_000_000);
    let big = s.add("big", 5_000_000_000, 8_000_000_000);
    s.depends(src, big).unwrap();
    s.to_frame_dag()
}

#[test]
fn streams_hold_only_their_arrays() {
    let dag = dag();
    let n = dag.graph.len();
    let f_max = lamps_core::SchedulerConfig::paper().max_frequency();

    for frames in [1, 10, 250] {
        let (s, bytes, allocs) = retained(|| {
            OnlineStream::synthesize(&dag, 2, frames, 1.0, 0.55, 0.75, None, f_max, 2006)
        });
        assert_eq!((s.frames.len(), s.frames.jobs()), (frames, n));
        assert_eq!(bytes, fault_free_bytes(n), "synthesize, {frames} frames");
        assert_eq!(allocs, 1, "synthesize, {frames} frames");

        let (s, bytes, allocs) = retained(|| OnlineStream::periodic(&dag, frames, 1.0, f_max));
        assert_eq!(s.frames.len(), frames);
        assert_eq!(bytes, fault_free_bytes(n), "periodic, {frames} frames");
        assert_eq!(allocs, 1, "periodic, {frames} frames");
    }

    // A WCET above `u32::MAX`: a stored column would be wide, but the
    // derived one costs the same 8 bytes a job, whether or not the draws
    // fit in `u32`.
    let wide = big_wcet_dag();
    let wn = wide.graph.len();
    for frames in [1, 10, 250] {
        let (s, bytes, allocs) = retained(|| OnlineStream::periodic(&wide, frames, 1.0, f_max));
        assert_eq!(s.frames.len(), frames);
        assert_eq!(bytes, fault_free_bytes(wn), "wide periodic");
        assert_eq!(allocs, 1, "wide periodic, {frames} frames");

        let (s, bytes, allocs) = retained(|| {
            OnlineStream::synthesize(&wide, 1, frames, 1.0, 0.9, 1.0, None, f_max, 2006)
        });
        assert!(s.frames.actual().iter().any(|a| a > u64::from(u32::MAX)));
        assert_eq!(bytes, fault_free_bytes(wn), "wide synthesize");
        assert_eq!(allocs, 1, "wide synthesize, {frames} frames");

        let (s, bytes, allocs) = retained(|| {
            OnlineStream::synthesize(&wide, 1, frames, 1.0, 0.5, 0.8, None, f_max, 2006)
        });
        assert!(s.frames.actual().iter().all(|a| a <= u64::from(u32::MAX)));
        assert_eq!(bytes, fault_free_bytes(wn), "narrow draws of a wide WCET");
        assert_eq!(allocs, 1, "narrow draws of a wide WCET, {frames} frames");
    }

    // With faults: the eight flat fault arrays on top, at exact size.
    // An overrun is stored as its two fields, not as the padded struct.
    assert_eq!((size_of::<Overrun>(), size_of::<DvsFault>()), (16, 24));
    let overrun_bytes = size_of::<u32>() + size_of::<f64>();
    let moderate = FaultIntensity::moderate();
    for frames in [1, 10, 64, 65, 125] {
        let (s, bytes, allocs) = retained(|| {
            OnlineStream::synthesize(&dag, 2, frames, 1.0, 0.6, 1.0, Some(&moderate), f_max, 2006)
        });
        assert_eq!(s.frames.len(), frames);
        let overruns: usize = s.frames.iter().map(|fr| fr.faults.overruns.len()).sum();
        let dvs: usize = s.frames.iter().map(|fr| fr.faults.dvs.len()).sum();
        assert!(s.frames.iter().all(|fr| fr.faults.fail_stop.is_some()));
        let fault_bytes = 8 * frames
            + 12 * frames
            + 8 * frames.div_ceil(64)
            + overrun_bytes * overruns
            + 24 * dvs;
        assert_eq!(
            bytes,
            fault_free_bytes(n) + fault_bytes as i64,
            "moderate faults, {frames} frames"
        );
        // One for the WCET copy, one per fault array, and the shrink of
        // each flat array (the two overrun columns and the DVS faults)
        // from its worst-case reservation.
        assert!(overruns > 0 && dvs > 0, "{frames} frames draw both kinds");
        assert_eq!(allocs, 12, "moderate faults, {frames} frames");
    }
}
