//! Proof that the pool's own allocations do not grow with the item
//! count.
//!
//! Results go straight into caller-owned slots, so a call allocates the
//! output vector, its worker threads and nothing per item. A pool that
//! collected results into per-worker vectors and merged them afterwards
//! would make `O(log n)` growth allocations per worker; this test counts
//! every `alloc`/`realloc` with a global allocator and demands that a
//! call over 10,000 items makes exactly as many as a call over 100.
//! The workers allocate on their own threads, so every thread counts.

use lamps_parallel::{Pool, PoolMetrics};
use lamps_testalloc::{on_all_threads, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const POOL: Pool = Pool::new(
    "alloc_pool",
    "parallel",
    PoolMetrics {
        calls: "parallel.alloc.calls",
        items: "parallel.alloc.items",
        worker_busy_us: "parallel.alloc.worker_busy_us",
        worker_idle_us: "parallel.alloc.worker_idle_us",
        worker_items: "parallel.alloc.worker_items",
    },
);

/// Allocations made by one `map_with` call over `items`, whose closure
/// allocates nothing. The fewest over three calls, so a stray
/// allocation elsewhere in the process cannot inflate the figure.
fn allocations_for(items: &[u64]) -> u64 {
    (0..3)
        .map(|_| {
            let (out, tally) = on_all_threads(|| {
                POOL.map_with(
                    items,
                    || 0u64,
                    |seen, &x, i| {
                        *seen += 1;
                        x.wrapping_mul(31) ^ i as u64
                    },
                )
            });
            assert_eq!(out.len(), items.len());
            assert_eq!(
                out[items.len() - 1],
                items[items.len() - 1].wrapping_mul(31) ^ (items.len() - 1) as u64
            );
            tally.calls
        })
        .min()
        .expect("three calls")
}

#[test]
fn pool_allocations_do_not_grow_with_the_item_count() {
    let small: Vec<u64> = (0..100).collect();
    let large: Vec<u64> = (0..10_000).collect();
    // Warm-up: the core count is read (and cached) on the first call.
    allocations_for(&small);
    let a_small = allocations_for(&small);
    let a_large = allocations_for(&large);
    assert_eq!(
        a_small, a_large,
        "map_with over 10,000 items made {a_large} allocations, over 100 items {a_small}: \
         the pool's own cost grew with the item count"
    );
}
