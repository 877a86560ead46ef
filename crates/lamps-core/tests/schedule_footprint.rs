//! Proof that a memoized schedule owns only its per-run arrays.
//!
//! Every schedule a `ScheduleCache` memoizes for one graph shares the
//! cache's one duration column (the graph's weights), so a warm miss
//! — the list-scheduler workspace and the memo spine already grown —
//! makes exactly five allocations: `start` (8·N bytes), `proc` (4·N),
//! the CSR `order` arena (4·N) and `offsets` (8·(P+1)), plus the
//! `Arc<Schedule>` the memo holds. That is `16·N + 8·(P+1)` bytes and
//! the `Arc` header per schedule, with the duration column not counted.
//! A counting global allocator measures both the calls and the live
//! bytes around each miss of a cache recycled from one that already
//! scheduled the same shapes.
//!
//! Only the test's own thread is counted, and the file contains a
//! single `#[test]`, so the counters have one owner. The library crate
//! forbids `unsafe`; the `GlobalAlloc` impl below lives in this
//! integration test only.

use lamps_core::cache::ScheduleCache;
use lamps_sched::Schedule;
use lamps_taskgraph::{GraphBuilder, TaskGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator counting allocation calls and live heap bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the test's thread; allocations elsewhere are not counted.
    static TRACKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn note(calls: u64, delta: i64) {
    if TRACKED.with(|t| t.get()) {
        ALLOC_CALLS.fetch_add(calls, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls and retained heap bytes of one cache miss on `n`
/// processors; the schedule's `Arc` stays in the memo.
fn miss(cache: &mut ScheduleCache<'_>, n: usize) -> (u64, i64) {
    assert!(!cache.is_cached(n), "{n} processors must be a miss");
    let calls = ALLOC_CALLS.load(Ordering::Relaxed);
    let bytes = LIVE_BYTES.load(Ordering::Relaxed);
    cache.schedule(n);
    (
        ALLOC_CALLS.load(Ordering::Relaxed) - calls,
        LIVE_BYTES.load(Ordering::Relaxed) - bytes,
    )
}

/// `16·N + 8·(P+1)` bytes of arrays plus the `Arc<Schedule>` block
/// (strong and weak counts, then the struct).
fn schedule_bytes(n_tasks: usize, n_procs: usize) -> i64 {
    let arc = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Schedule>();
    (16 * n_tasks + 8 * (n_procs + 1) + arc) as i64
}

/// 240 tasks in 12 layers, each task depending on two tasks of the
/// previous layer.
fn layered() -> TaskGraph {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<_> = (0..20).map(|i| b.add_task(5 + i % 7)).collect();
    for layer in 1..12 {
        let cur: Vec<_> = (0..20).map(|i| b.add_task(3 + (layer + i) % 11)).collect();
        for (i, &t) in cur.iter().enumerate() {
            b.add_edge(prev[i], t).unwrap();
            b.add_edge(prev[(i + 7) % prev.len()], t).unwrap();
        }
        prev = cur;
    }
    b.build().unwrap()
}

/// Every memoized schedule's duration column is one allocation, holding
/// the graph's weights.
fn assert_one_shared_column(cache: &mut ScheduleCache<'_>, counts: &[usize]) {
    let graph = cache.graph();
    let schedules: Vec<Arc<Schedule>> = counts.iter().map(|&n| cache.schedule_arc(n)).collect();
    let first = schedules[0].durations();
    assert_eq!(first, graph.weights());
    for s in &schedules[1..] {
        assert!(
            std::ptr::eq(s.durations(), first),
            "the schedule on {} processors has its own duration column",
            s.n_procs()
        );
    }
}

#[test]
fn warm_cache_misses_allocate_four_arrays_and_one_arc() {
    TRACKED.with(|t| t.set(true));
    let graph = layered();
    let n = graph.len();
    let counts = [20usize, 1, 3, 8];

    // A fresh cache: its cold runs grow the workspace and the memo
    // spine to this graph's shapes.
    let mut cache = ScheduleCache::for_graph(&graph);
    assert_one_shared_column(&mut cache, &counts);

    // A recycled cache, as a batch worker builds one per graph: every
    // miss now runs in a warm workspace.
    let mut cache = ScheduleCache::for_graph_recycled(&graph, cache.into_buffers());
    for &p in &counts {
        let (calls, bytes) = miss(&mut cache, p);
        assert!(
            calls <= 5,
            "a warm miss on {p} processors made {calls} allocations; \
             start, proc, order, offsets and the Arc are five"
        );
        assert_eq!(
            bytes,
            schedule_bytes(n, p),
            "heap bytes of the schedule on {p}"
        );
    }
    assert_one_shared_column(&mut cache, &counts);
    TRACKED.with(|t| t.set(false));
}
