//! Proof that a built graph owns exactly its CSR arrays and nothing else.
//!
//! An unnamed graph of `N` tasks and `E` distinct edges must hold
//! `8·N` bytes of weights, `2 · 4·(N+1)` bytes of offsets and
//! `2 · 4·E` bytes of adjacency on the heap: no per-task name slots, no
//! capacity slack left by duplicate edges, no builder leftovers. A
//! byte-counting global allocator measures the live heap around each
//! build. Named graphs must still carry every name. (The cached
//! critical path and total work are inline fields: no heap bytes.)
//!
//! Only the test's own thread is counted: the test harness's main
//! thread allocates now and then while a test runs, and counting it
//! made the byte totals flaky. The file still contains a single
//! `#[test]`, so the counter has one owner. The library crate forbids
//! `unsafe`; the `GlobalAlloc` impl below lives in this integration
//! test only.

use lamps_kpn::{unroll, Network, UnrollConfig};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::{apps, stg, GraphBuilder, TaskGraph, TaskId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// System allocator that keeps a running total of live heap bytes.
struct ByteCountingAlloc;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set on the test's thread; allocations elsewhere are not counted.
    static TRACKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn add(delta: i64) {
    if TRACKED.with(|t| t.get()) {
        LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
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

/// Heap bytes still live after `make` returns its graph.
fn retained(make: impl FnOnce() -> TaskGraph) -> (TaskGraph, i64) {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let g = make();
    (g, LIVE_BYTES.load(Ordering::Relaxed) - before)
}

fn lean_bytes(g: &TaskGraph) -> i64 {
    let (n, e) = (g.len() as i64, g.edge_count() as i64);
    8 * n + 8 * (n + 1) + 8 * e
}

#[test]
fn unnamed_graphs_hold_only_their_csr_and_named_graphs_keep_names() {
    TRACKED.with(|t| t.set(true));
    // Hand-built, with duplicate edges and an isolated task.
    let (g, bytes) = retained(|| {
        let mut b = GraphBuilder::with_capacity(64, 256);
        let ts: Vec<TaskId> = (0..10).map(|i| b.add_task(i + 1)).collect();
        for w in ts.windows(2).take(8) {
            b.add_edge(w[0], w[1]).unwrap();
            b.add_edge(w[0], w[1]).unwrap();
            b.add_edge(ts[0], w[1]).unwrap();
        }
        b.build().unwrap()
    });
    assert_eq!((g.len(), g.edge_count()), (10, 8 + 7));
    assert_eq!(bytes, lean_bytes(&g));
    assert_eq!(g.name(TaskId(9)), None);
    assert_eq!(g.label(TaskId(9)), "T9");

    // Generated campaign-sized graphs: everything but the kept graph is
    // freed again.
    for i in 0..12 {
        let (g, bytes) = retained(|| stg_group(40, 12, 2006).swap_remove(i));
        assert_eq!(bytes, lean_bytes(&g), "stg_group graph {i}");
    }

    // Decoded graphs are unnamed too.
    let text = stg::write(&apps::proxies::fpppp());
    let (g, bytes) = retained(|| stg::parse(&text).unwrap());
    assert_eq!(bytes, lean_bytes(&g));
    assert!(g.tasks().all(|t| g.name(t).is_none()));

    // Named graphs keep every name, and labels follow them.
    let gop = apps::mpeg::paper_gop();
    assert_eq!(gop.name(TaskId(0)), Some("I0"));
    assert_eq!(gop.label(TaskId(14)), "B14");
    assert!(gop.tasks().all(|t| gop.name(t).is_some()));
    let net = Network::fig1_example(10, 20, 30);
    let cfg = UnrollConfig {
        copies: 3,
        first_deadline_cycles: 100,
        period_cycles: 60,
    };
    let u = unroll(&net, &cfg).unwrap();
    assert_eq!(u.graph.len(), 9);
    for (i, want) in ["T1#0", "T2#0", "T3#0", "T1#1", "T3#2"]
        .iter()
        .zip([0u32, 1, 2, 3, 8])
        .map(|(name, i)| (i, name))
    {
        assert_eq!(u.graph.name(TaskId(i)), Some(*want));
        assert_eq!(u.graph.label(TaskId(i)), *want);
    }

    // A name after unnamed tasks pads the earlier ones with `None`.
    let mut b = GraphBuilder::new();
    let a = b.add_task(1);
    let c = b.add_named_task("late", 2);
    b.add_edge(a, c).unwrap();
    let g = b.build().unwrap();
    assert_eq!((g.name(a), g.label(a)), (None, "T0".to_string()));
    assert_eq!((g.name(c), g.label(c)), (Some("late"), "late".to_string()));
    assert_eq!(g.scale_weights(3).name(c), Some("late"));
}
