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

use lamps_core::cache::ScheduleCache;
use lamps_sched::Schedule;
use lamps_taskgraph::{GraphBuilder, TaskGraph};
use lamps_testalloc::{on_this_thread, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls and retained heap bytes of one cache miss on `n`
/// processors; the schedule's `Arc` stays in the memo.
fn miss(cache: &mut ScheduleCache<'_>, n: usize) -> (u64, i64) {
    assert!(!cache.is_cached(n), "{n} processors must be a miss");
    let tally = on_this_thread(|| cache.schedule(n)).1;
    (tally.calls, tally.bytes)
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
}
