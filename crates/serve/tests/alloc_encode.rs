//! Proof that `encode_solve_request` makes exactly one allocation: the
//! line's buffer, reserved from an upper bound and never grown.
//!
//! The bound takes the widest weight's digits for every weight and the
//! widest task index's digits for both ends of every edge, so a graph
//! whose weights reach `u64::MAX` fits as well as an ordinary one; the
//! finished bytes become the returned `String` without a copy.
//!
//! Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) are counted on
//! the test's own thread only, and the file contains a single `#[test]`,
//! so the counter has one owner. The library crate forbids `unsafe`; the
//! `GlobalAlloc` impl below lives in this integration test only.

use lamps_core::Strategy;
use lamps_serve::encode_solve_request;
use lamps_serve::protocol::DeadlineSpec;
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId, COARSE_GRAIN_CYCLES_PER_UNIT};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator that counts allocation calls on tracked threads.
struct CountingAlloc;

thread_local! {
    /// Set on the test's thread; allocations elsewhere are not counted.
    static TRACKED: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if TRACKED.with(Cell::get) {
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result and the number of allocation calls it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = std::hint::black_box(f());
    (out, CALLS.with(Cell::get) - before)
}

/// A chain of `n` tasks whose middle task weighs `u64::MAX` (the rest
/// weigh 0, so the total work fits), plus an edge from every task to
/// the last: 20-digit weights beside the widest indices.
fn max_weight_graph(n: u32) -> TaskGraph {
    let mut b = GraphBuilder::with_capacity(n as usize, 2 * n as usize);
    for i in 0..n {
        b.add_task(if i == n / 2 { u64::MAX } else { 0 });
    }
    for i in 0..n - 1 {
        b.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        if i + 2 < n {
            b.add_edge(TaskId(i), TaskId(n - 1)).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn encode_solve_request_allocates_once() {
    let mut graphs: Vec<(String, TaskGraph)> = Vec::new();
    for n in [10, 1000, 5000] {
        for (i, g) in stg_group(n, 2, 2006).into_iter().enumerate() {
            graphs.push((format!("stg_group({n})[{i}]"), g.clone()));
            // Coarse grain, as the load generators send them: 7- to
            // 9-digit weights.
            let scaled = g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
            graphs.push((format!("stg_group({n})[{i}] coarse"), scaled));
        }
        graphs.push((format!("max_weight_graph({n})"), max_weight_graph(n as u32)));
    }
    TRACKED.with(|t| t.set(true));
    for (name, g) in &graphs {
        for (id, deadline, budget) in [
            (0, DeadlineSpec::Factor(2.0), None),
            (1 << 53, DeadlineSpec::Seconds(0.0125), Some(u64::MAX)),
            (7, DeadlineSpec::Seconds(f64::MIN_POSITIVE), Some(64)),
            (u64::MAX, DeadlineSpec::Factor(-f64::MAX), None),
        ] {
            let (line, calls) =
                allocations(|| encode_solve_request(id, Strategy::LampsPs, deadline, g, budget));
            assert_eq!(
                calls,
                1,
                "{name} ({} tasks, {} edges, {} B line), id {id}, {deadline:?}, budget {budget:?}: {calls} allocations",
                g.len(),
                g.edge_count(),
                line.len()
            );
            assert!(line.ends_with("]}}\n"), "{name}");
        }
    }
}
