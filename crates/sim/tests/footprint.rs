//! Proof that an online stream owns its stream-level arrays and nothing
//! else.
//!
//! A stream of `F` frames of `N` jobs built by `synthesize` or
//! `periodic` must hold one copy of the job WCETs on the heap and
//! nothing else: exactly `8·N` bytes in one allocation, whatever `F` is,
//! whether or not a WCET fits in `u32`, and with or without faults. Its
//! actuals and faults are drawn from that copy and an inline recipe on
//! every read, not stored, and its arrivals are a progression stored
//! inline, not a per-frame array: no per-frame vectors, no fault arrays,
//! no capacity slack.
//!
//! A table assembled by `FrameTable::from_parts` stores what it is
//! given. The copy of a faulty stream, with `O` overruns and `D` DVS
//! faults over all its frames, holds its `8·F` arrivals, its `8·F·N`
//! actuals and eight flat fault arrays of exactly
//!
//! `8·F + 12·F + 8·⌈F/64⌉ + 12·O + 24·D` bytes
//!
//! (per frame two 4-byte end offsets and a fail-stop slot of a `u32`
//! processor and an `f64` time, one 64-bit presence word per 64 frames;
//! per overrun a `u32` task and an `f64` factor in two columns, not a
//! padded 16-byte `Overrun`; 24 bytes per `DvsFault`), one allocation
//! per fault array whatever `F` is. A byte-counting global allocator
//! measures the live heap around each build.

use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{DvsFault, FaultIntensity, FaultPlan, FrameTable, OnlineStream, Overrun};
use lamps_testalloc::{on_this_thread, CountingAlloc};
use std::mem::size_of;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The stream `make` returns, the heap bytes still live after it
/// returns, and the allocation calls it made.
fn retained(make: impl FnOnce() -> OnlineStream) -> (OnlineStream, i64, u64) {
    let (s, tally) = on_this_thread(make);
    (s, tally.bytes, tally.calls)
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

    // With faults: a synthesized stream stores the fault recipe inline
    // and draws every frame's plan on read, so it owns the same `8·N`
    // bytes in one allocation. Its `from_parts` copy stores the same
    // frames: explicit arrivals, a `u64` actuals column and the eight
    // flat fault arrays, at exact size, one allocation per array. An
    // overrun is stored as its two fields, not as the padded struct.
    assert_eq!((size_of::<Overrun>(), size_of::<DvsFault>()), (16, 24));
    let overrun_bytes = size_of::<u32>() + size_of::<f64>();
    let moderate = FaultIntensity::moderate();
    for frames in [1, 10, 64, 65, 125] {
        let (s, bytes, allocs) = retained(|| {
            OnlineStream::synthesize(&dag, 2, frames, 1.0, 0.6, 1.0, Some(&moderate), f_max, 2006)
        });
        assert_eq!(s.frames.len(), frames);
        assert_eq!(
            bytes,
            fault_free_bytes(n),
            "moderate faults, {frames} frames"
        );
        assert_eq!(allocs, 1, "moderate faults, {frames} frames");

        let overruns: usize = s.frames.iter().map(|fr| fr.faults.overruns.len()).sum();
        let dvs: usize = s.frames.iter().map(|fr| fr.faults.dvs.len()).sum();
        assert!(s.frames.iter().all(|fr| fr.faults.fail_stop.is_some()));
        assert!(overruns > 0 && dvs > 0, "{frames} frames draw both kinds");
        let fault_bytes = 8 * frames
            + 12 * frames
            + 8 * frames.div_ceil(64)
            + overrun_bytes * overruns
            + 24 * dvs;
        let parts = || {
            let t = &s.frames;
            let plans: Vec<FaultPlan> = t.iter().map(|fr| fr.faults.to_plan()).collect();
            (t.arrival_s().to_vec(), t.actual().to_vec(), plans)
        };
        // Built inside the measurement, the copy keeps its inputs'
        // arrivals and actuals and the fault arrays; the plans it
        // flattens are freed.
        let (copy, stored) = on_this_thread(|| {
            let (arrivals, actual, plans) = parts();
            FrameTable::from_parts(arrivals, n, actual, plans).unwrap()
        });
        assert_eq!(copy, s.frames, "{frames} frames: the copy reads the same");
        assert_eq!(
            stored.bytes,
            (8 * frames + 8 * frames * n + fault_bytes) as i64,
            "stored moderate faults, {frames} frames"
        );
        let (arrivals, actual, plans) = parts();
        let (_, tally) =
            on_this_thread(|| FrameTable::from_parts(arrivals, n, actual, plans).unwrap());
        assert_eq!(tally.calls, 8, "stored moderate faults, {frames} frames");
    }
}

/// Reading a synthesized fault stream allocates nothing: each frame's
/// view through `get` and `iter`, its fail-stop, and every overrun and
/// DVS fault it draws, over every frame.
#[test]
fn reading_derived_faults_allocates_nothing() {
    let dag = dag();
    let f_max = lamps_core::SchedulerConfig::paper().max_frequency();
    let severe = FaultIntensity::severe();
    let s = OnlineStream::synthesize(&dag, 3, 125, 1.0, 0.6, 1.0, Some(&severe), f_max, 2006);
    let (read, tally) = on_this_thread(|| {
        let (mut overruns, mut dvs, mut fail_stops, mut bits) = (0, 0, 0, 0u64);
        for (i, fr) in s.frames.iter().enumerate() {
            let again = s.frames.get(i).expect("frame below len").faults;
            for faults in [fr.faults, again] {
                for o in faults.overruns {
                    overruns += 1;
                    bits ^= o.factor.to_bits();
                }
                for d in faults.dvs.iter() {
                    dvs += 1;
                    bits ^= u64::from(d.proc.0);
                }
                if let Some(fs) = faults.fail_stop {
                    fail_stops += 1;
                    bits ^= fs.at_s.to_bits();
                }
            }
        }
        (overruns, dvs, fail_stops, bits)
    });
    let (overruns, dvs, fail_stops, _) = read;
    assert!(overruns > 0 && dvs > 0, "the stream draws both kinds");
    assert_eq!(fail_stops, 2 * s.frames.len());
    assert_eq!(tally.calls, 0, "{read:?}");
}
