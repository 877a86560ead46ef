//! Proof that building and scaling a graph allocates only what the
//! graph keeps, plus a fixed amount of scratch.
//!
//! - `scale_weights` takes the graph by value and scales it in place:
//!   no allocation at all.
//! - `GraphBuilder::build` allocates the graph's adjacency arena at its
//!   final size, duplicate edges or not, and the two buffers of the
//!   top-level pass (a level per task, a stack of ready tasks): the same
//!   count for 100 tasks as for 10,000, and no scratch CSR arrays, no
//!   shrink after deduplication and no topological order on the side.
//!   The weights move from the builder without a copy.
//! - `layered::generate` keeps its layers as one array of start offsets,
//!   so its count does not grow with the layer count.

use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};
use lamps_testalloc::{on_this_thread, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result and the number of allocation calls it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = on_this_thread(|| std::hint::black_box(f()));
    (out, tally.calls)
}

/// A ladder of `n` tasks, each edge `i → i+1` added twice and `i → i+2`
/// once, in a builder sized exactly for it.
fn ladder(n: u32) -> GraphBuilder {
    let mut b = GraphBuilder::with_capacity(n as usize, 3 * n as usize);
    for i in 0..n {
        b.add_task(u64::from(i % 7) + 1);
    }
    for i in 0..n - 1 {
        b.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        b.add_edge(TaskId(i), TaskId(i + 1)).unwrap();
        if i + 2 < n {
            b.add_edge(TaskId(i), TaskId(i + 2)).unwrap();
        }
    }
    b
}

fn layered(n_layers: usize) -> TaskGraph {
    let cfg = LayeredConfig {
        n_tasks: 1000,
        n_layers,
        ..LayeredConfig::default()
    };
    generate(&cfg, 2006)
}

#[test]
fn construction_allocates_a_fixed_count() {
    let g = ladder(500).build().unwrap();
    let (scaled, calls) = allocations(|| g.scale_weights(3_100_000));
    assert_eq!(calls, 0, "scale_weights allocated");
    assert_eq!(scaled.weight(TaskId(0)), 3_100_000);

    let (small, large) = (ladder(100), ladder(10_000));
    let (small, small_calls) = allocations(|| small.build());
    let (large, large_calls) = allocations(|| large.build());
    assert_eq!((small.unwrap().len(), large.unwrap().len()), (100, 10_000));
    assert_eq!(
        small_calls, large_calls,
        "build of 10,000 tasks made {large_calls} allocations, of 100 tasks {small_calls}"
    );
    // The arena, the level buffer and the ready stack.
    assert_eq!(
        large_calls, 3,
        "build allocated scratch beyond its fixed set"
    );

    let (few, few_calls) = allocations(|| layered(2));
    let (many, many_calls) = allocations(|| layered(1000));
    assert_eq!(few.len(), many.len());
    assert_eq!(
        few_calls, many_calls,
        "layered::generate made {many_calls} allocations for 1000 layers, {few_calls} for 2"
    );
}
