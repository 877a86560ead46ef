//! Proof that a warm [`ListScheduleWorkspace`] really is allocation-free.
//!
//! The solver's LAMPS scan leans on the contract documented on
//! [`lamps_sched::list_schedule_into`], and the online suffix re-solve
//! on the same contract of [`lamps_sched::reschedule_remaining`]: once
//! the workspace (and, for partial runs, the output
//! [`PartialSchedule`]) has been through a run of a given shape, every
//! further run clears and refills the same buffers and touches the heap
//! **zero** times. This test enforces the contract with a counting
//! global allocator — if someone reintroduces a per-run `Vec::new()` or
//! lets a heap grow run-to-run, the count moves and the test names the
//! regression. Materializing a warm run into an owned `Schedule` makes
//! exactly four allocations: the duration column is the caller's.
//!
//! Only the test's own thread is counted: the test harness's other
//! threads (its main thread, for one) may allocate while the test runs.
//! The library crate forbids `unsafe`; the `GlobalAlloc` impl below
//! lives in this integration test only.

use lamps_sched::list::{list_schedule_into, ListScheduleWorkspace};
use lamps_sched::partial::{reschedule_remaining, PartialSchedule, ProcAvailability};
use lamps_taskgraph::{GraphBuilder, TaskGraph};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator with a count of every `alloc`/`realloc` call on
/// the tracked thread (deallocation is free to happen; only *new*
/// memory breaks the contract).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's thread; allocations elsewhere are not counted.
    static TRACKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn note() {
    if TRACKED.with(|t| t.get()) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn warm_workspace_runs_allocate_nothing() {
    TRACKED.with(|t| t.set(true));
    // A layered DAG big enough to exercise every internal buffer: 240
    // tasks in 12 layers, each task depending on two tasks of the
    // previous layer.
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
    let graph = b.build().unwrap();
    let keys: Vec<u64> = (0..graph.len() as u64).collect();
    let proc_counts = [1usize, 3, 8, 20];

    // Cold phase: the first run per processor count may allocate freely
    // (buffers grow to their high-water mark here).
    let mut ws = ListScheduleWorkspace::new();
    let mut cold = [0u64; 4];
    for (slot, &n) in cold.iter_mut().zip(&proc_counts) {
        *slot = list_schedule_into(&mut ws, &graph, n, &keys);
    }

    // Warm phase: identical runs against the same workspace must not
    // touch the allocator at all. (The results land in a stack array —
    // nothing in the measured region may allocate, including the test's
    // own bookkeeping.)
    let mut warm = [0u64; 4];
    let before = allocations();
    for (slot, &n) in warm.iter_mut().zip(&proc_counts) {
        *slot = list_schedule_into(&mut ws, &graph, n, &keys);
    }
    let grew = allocations() - before;
    assert_eq!(
        grew, 0,
        "warm list_schedule_into runs performed {grew} allocation(s); \
         the zero-allocation contract is broken"
    );

    // The reuse must also be semantically invisible.
    assert_eq!(cold, warm, "warm runs changed the makespans");
    assert!(
        cold[0] >= cold[proc_counts.len() - 1],
        "more processors cannot lengthen the makespan"
    );

    // Materializing a warm run shares the caller's duration column:
    // start, proc and the CSR order arena are the only allocations.
    let durations: Arc<[u64]> = Arc::from(graph.weights());
    list_schedule_into(&mut ws, &graph, 8, &keys);
    let before = allocations();
    let schedule = ws.to_schedule(Arc::clone(&durations));
    let grew = allocations() - before;
    assert_eq!(
        grew, 4,
        "to_schedule performed {grew} allocation(s); start, proc, order \
         and offsets are four"
    );
    assert!(std::ptr::eq(schedule.durations(), &*durations));
    assert_eq!(schedule.makespan_cycles(), cold[2]);
    drop(schedule);

    // The indexed ready-queue's degenerate paths must hold the same
    // contract: an all-zero-weight chain (every event at instant 0, one
    // giant same-instant retirement batch) and a zero-weight fan-out
    // (ready set fills in a single batch) exercise the bitset ready-set
    // and radix event-queue along branches the layered DAG above never
    // reaches. Same cold-then-warm protocol, same workspace.
    let mut zb = GraphBuilder::new();
    let chain: Vec<_> = (0..64).map(|_| zb.add_task(0)).collect();
    for w in chain.windows(2) {
        zb.add_edge(w[0], w[1]).unwrap();
    }
    let root = zb.add_task(0);
    for _ in 0..32 {
        let m = zb.add_task(0);
        zb.add_edge(root, m).unwrap();
    }
    let zero_graph = zb.build().unwrap();
    let zero_keys: Vec<u64> = vec![3; zero_graph.len()];

    let mut zero_cold = [0u64; 4];
    for (slot, &n) in zero_cold.iter_mut().zip(&proc_counts) {
        *slot = list_schedule_into(&mut ws, &zero_graph, n, &zero_keys);
    }
    let mut zero_warm = [0u64; 4];
    let before = allocations();
    for (slot, &n) in zero_warm.iter_mut().zip(&proc_counts) {
        *slot = list_schedule_into(&mut ws, &zero_graph, n, &zero_keys);
    }
    let grew = allocations() - before;
    assert_eq!(
        grew, 0,
        "warm zero-weight runs performed {grew} allocation(s); \
         the ready-queue's batch-retirement path allocates"
    );
    assert_eq!(
        zero_cold, zero_warm,
        "warm zero-weight runs changed the makespans"
    );
    assert_eq!(zero_cold, [0; 4], "an all-zero-weight graph has makespan 0");

    // Partial runs through the same workspace into one reused output:
    // a done prefix with late finish times (queued releases), staggered
    // wake-ups and a failed processor, on both graphs above. Every input
    // is built before the measured region.
    let cuts: Vec<_> = [(&graph, &keys), (&zero_graph, &zero_keys)]
        .into_iter()
        .flat_map(|(g, k)| [partial_cut(g, k, 1, 3), partial_cut(g, k, 3, 8)])
        .collect();
    let mut out = PartialSchedule::new();
    let mut partial_cold = [0u64; 4];
    for (slot, (g, k, done, fd, avail)) in partial_cold.iter_mut().zip(&cuts) {
        reschedule_remaining(&mut ws, g, done, fd, avail, k, &mut out);
        *slot = out.makespan_cycles();
    }
    let mut partial_warm = [0u64; 4];
    let before = allocations();
    for (slot, (g, k, done, fd, avail)) in partial_warm.iter_mut().zip(&cuts) {
        reschedule_remaining(&mut ws, g, done, fd, avail, k, &mut out);
        *slot = out.makespan_cycles();
    }
    let grew = allocations() - before;
    assert_eq!(
        grew, 0,
        "warm reschedule_remaining runs performed {grew} allocation(s); \
         the partial runs' zero-allocation contract is broken"
    );
    assert_eq!(
        partial_cold, partial_warm,
        "warm partial runs changed the makespans"
    );
    assert!(
        partial_cold[0] > 0,
        "the layered graph's pending rest takes time"
    );
}

type Cut<'a> = (
    &'a TaskGraph,
    &'a [u64],
    Vec<bool>,
    Vec<u64>,
    Vec<ProcAvailability>,
);

/// A partial-run input: the first `num/den` of `graph`'s topological
/// order done, finishing at staggered late cycles, on four processors
/// that wake at staggered cycles, the last one failed.
fn partial_cut<'a>(graph: &'a TaskGraph, keys: &'a [u64], num: usize, den: usize) -> Cut<'a> {
    let n = graph.len();
    let mut done = vec![false; n];
    let mut finish_done = vec![0u64; n];
    for (i, t) in graph
        .topo_order()
        .into_iter()
        .take(n * num / den)
        .enumerate()
    {
        done[t.index()] = true;
        finish_done[t.index()] = 10 + (i as u64 % 5) * 7;
    }
    let n_procs = 4;
    let avail = (0..n_procs)
        .map(|p| {
            if p + 1 == n_procs {
                ProcAvailability::Failed
            } else {
                ProcAvailability::FreeAt(p as u64 * 9)
            }
        })
        .collect();
    (graph, keys, done, finish_done, avail)
}
