//! A minimal scoped-thread worker pool that writes into caller-owned
//! storage.
//!
//! One [`Pool`] describes a call site: a short name (used in panic
//! messages and worker span labels) and a table of metric names. The
//! core entry point is [`Pool::fill_with`]: the caller pairs every item
//! with the output slot it owns (an `&mut` into a vector, a row of a
//! flat table), and the pool hands each pair to exactly one worker,
//! which writes its result in place. [`Pool::map`] and
//! [`Pool::map_with`] are thin wrappers that fill a `Vec<Option<R>>`
//! the caller allocated. Per-worker state (a scratch workspace, an RNG,
//! schedule-cache buffers) is built once per worker per call, not once
//! per item.
//!
//! Every worker runs one claiming loop: lock the `Mutex` around the
//! enumerated pair iterator, take the next pair, unlock, run the
//! closure. Claiming one pair at a time balances uneven item costs, and
//! because every result lands in the slot it was paired with, there are
//! no per-worker result vectors and no ordered merge: the output
//! depends only on the items and the closure, never on thread
//! interleaving. The caller's thread runs the loop as worker 0 and
//! spawns only `n − 1` scoped threads, so on a single-core host (or for
//! an empty or singleton input) no thread is spawned and the same loop
//! runs inline, with the same ordering, panic format and metrics. No
//! `unsafe` anywhere — the crate forbids it.
//!
//! A panic inside the closure is caught per item: the remaining workers
//! stop claiming work, the scope joins cleanly, and the pool re-panics
//! on the caller's thread naming the lowest failing item index (plus
//! the original message when it was a string). Without this, the panic
//! would tear down one worker while the others kept burning through the
//! remaining items, and the eventual join error would not say which
//! input was responsible.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Metric names recorded by a [`Pool`] when the global metrics registry
/// is enabled. All fields are `&'static str` because the registry
/// interns names statically.
#[derive(Debug, Clone, Copy)]
pub struct PoolMetrics {
    /// Counter: number of `fill_with`/`map`/`map_with` calls.
    pub calls: &'static str,
    /// Counter: total items across all calls.
    pub items: &'static str,
    /// Histogram: per-worker microseconds spent inside the closure.
    /// The caller's thread counts as a worker.
    pub worker_busy_us: &'static str,
    /// Histogram: per-worker microseconds outside the closure
    /// (claiming and building per-worker state).
    pub worker_idle_us: &'static str,
    /// Histogram: items processed per worker.
    pub worker_items: &'static str,
}

/// A named parallel-map call site. Construct with [`Pool::new`]
/// (usually as a `const`) and call [`Pool::fill_with`], [`Pool::map`]
/// or [`Pool::map_with`].
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Label used in panic messages ("`{name}` worker panicked on item
    /// …") and worker span names.
    name: &'static str,
    /// Trace-span category for worker spans.
    span_cat: &'static str,
    metrics: PoolMetrics,
}

/// The machine's available parallelism, read once per process: the
/// query reads cgroup files on Linux, which costs more than a small
/// pool call. A later change of the process's CPU affinity or quota is
/// not seen.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

impl Pool {
    /// A pool description; `const`-constructible so call sites can keep
    /// one in a `static`.
    pub const fn new(name: &'static str, span_cat: &'static str, metrics: PoolMetrics) -> Self {
        Pool {
            name,
            span_cat,
            metrics,
        }
    }

    /// Workers a call over `n_items` items would use, the caller's
    /// thread included: the machine's available parallelism (counted
    /// once per process) capped by the item count.
    pub fn threads_for(&self, n_items: usize) -> usize {
        cores().min(n_items.max(1))
    }

    /// Apply `f` to every item, in parallel, preserving order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_with(items, || (), |(), item, _| f(item))
    }

    /// [`Pool::map`] with per-worker mutable state: `init` runs once on
    /// each worker (the caller's thread included), and `f` receives
    /// `(&mut state, &item, index)`. Use this to amortize scratch
    /// allocations across the items a worker processes; for the result
    /// to stay deterministic the state must not leak information
    /// between items in a way that changes `f`'s output (a cleared
    /// scratch buffer is fine, an accumulating cache that alters results
    /// is not).
    pub fn map_with<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T, usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        self.fill_with(
            items.iter().zip(out.iter_mut()),
            init,
            |state, (item, slot), i| {
                *slot = Some(f(state, item, i));
            },
        );
        out.into_iter()
            .map(|r| r.expect("every slot was filled"))
            .collect()
    }

    /// Hand every `(item, slot)` pair of `pairs` to exactly one worker,
    /// which calls `f(&mut state, pair, index)`; `index` is the pair's
    /// position in `pairs`. The pairs carry the caller's output storage,
    /// so `f` writes its result in place and nothing is merged after the
    /// workers join. `init` runs once on each worker, the caller's
    /// thread included, with the same determinism caveat as
    /// [`Pool::map_with`].
    ///
    /// Pairs are claimed in ascending order. When `f` panics, the
    /// workers stop claiming, and the pool re-panics on the caller's
    /// thread naming the lowest failing index; slots of unclaimed pairs
    /// are then left as the caller created them.
    pub fn fill_with<S, P, I, F>(&self, pairs: P, init: I, f: F)
    where
        P: ExactSizeIterator + Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, P::Item, usize) + Sync,
    {
        let n_items = pairs.len();
        if lamps_obs::metrics_enabled() {
            lamps_obs::counter(self.metrics.calls).inc();
            lamps_obs::counter(self.metrics.items).add(n_items as u64);
        }
        let claims = Mutex::new(pairs.enumerate());
        let stop = AtomicBool::new(false);
        let first_panic: Mutex<Option<(usize, String)>> = Mutex::new(None);
        let worker = |w: usize| {
            // Per-worker accounting only runs when observability is
            // on; the disabled path pays two relaxed atomic loads.
            let obs_on = lamps_obs::metrics_enabled();
            let _wspan = if lamps_obs::tracing_enabled() {
                lamps_obs::span_named(self.span_cat, format!("{}_worker_{w}", self.name))
            } else {
                lamps_obs::trace::Span::inert()
            };
            let started = obs_on.then(Instant::now);
            let mut busy_us: u64 = 0;
            let mut done: u64 = 0;
            let mut state = init();
            while !stop.load(Ordering::Relaxed) {
                let claimed = claims
                    .lock()
                    .expect("the pair iterator panicked on another worker")
                    .next();
                let Some((i, pair)) = claimed else {
                    break;
                };
                let item_start = obs_on.then(Instant::now);
                let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut state, pair, i)));
                if let Some(t0) = item_start {
                    busy_us += t0.elapsed().as_micros() as u64;
                }
                if let Err(payload) = outcome {
                    stop.store(true, Ordering::Relaxed);
                    let msg = payload_msg(&*payload);
                    // Only this arm locks `first_panic`, and it never
                    // panics while holding it.
                    let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                        *slot = Some((i, msg));
                    }
                    break;
                }
                done += 1;
            }
            if let Some(t0) = started {
                let total_us = t0.elapsed().as_micros() as u64;
                lamps_obs::histogram(self.metrics.worker_busy_us).record(busy_us);
                lamps_obs::histogram(self.metrics.worker_idle_us)
                    .record(total_us.saturating_sub(busy_us));
                lamps_obs::histogram(self.metrics.worker_items).record(done);
            }
        };
        let n_threads = self.threads_for(n_items);
        std::thread::scope(|scope| {
            for w in 1..n_threads {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
            worker(0);
        });

        if let Some((i, msg)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
            panic!("{} worker panicked on item {i}: {msg}", self.name);
        }
    }
}

/// Best-effort rendering of a caught panic payload.
fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_POOL: Pool = Pool::new(
        "test_pool",
        "parallel",
        PoolMetrics {
            calls: "parallel.test.calls",
            items: "parallel.test.items",
            worker_busy_us: "parallel.test.worker_busy_us",
            worker_idle_us: "parallel.test.worker_idle_us",
            worker_items: "parallel.test.worker_items",
        },
    );

    #[test]
    fn maps_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = TEST_POOL.map(&items, |&x| x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * (i as u64));
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(TEST_POOL.map(&empty, |&x| x).is_empty());
        assert_eq!(TEST_POOL.map(&[42], |&x| x + 1), vec![43]);
    }

    #[test]
    #[should_panic(expected = "test_pool worker panicked on item 37: boom at 37")]
    fn worker_panic_reports_lowest_failing_index() {
        let items: Vec<u64> = (0..256).collect();
        // Items at and above 37 panic; the report must name the lowest.
        TEST_POOL.map(&items, |&x| {
            if x >= 37 {
                panic!("boom at {x}");
            }
            x
        });
    }

    #[test]
    fn per_worker_state_is_reused_not_shared() {
        // Each worker gets its own Vec built by `init`; the closure
        // clears and refills it per item, so results are independent of
        // which worker ran which item.
        let items: Vec<u64> = (0..512).collect();
        let out = TEST_POOL.map_with(&items, Vec::<u64>::new, |scratch, &x, i| {
            scratch.clear();
            scratch.extend(0..=x % 7);
            scratch.iter().sum::<u64>() + i as u64
        });
        for (i, &v) in out.iter().enumerate() {
            let x = i as u64;
            let expected: u64 = (0..=x % 7).sum::<u64>() + x;
            assert_eq!(v, expected);
        }
    }

    #[test]
    fn state_init_runs_on_sequential_fallback_too() {
        let out = TEST_POOL.map_with(&[7u64], || 100u64, |s, &x, _| *s + x);
        assert_eq!(out, vec![107]);
    }

    #[test]
    fn heavier_closure() {
        let items: Vec<u64> = (0..64).collect();
        let out = TEST_POOL.map(&items, |&x| (0..1000).fold(x, |a, b| a.wrapping_add(b)));
        assert_eq!(out.len(), 64);
        assert_eq!(out[0], (0..1000).sum::<u64>());
    }
}
