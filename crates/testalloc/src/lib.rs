//! lamps-testalloc: the one counting global allocator behind the
//! workspace's allocation and heap-footprint pins.
//!
//! A pin test installs [`CountingAlloc`],
//!
//! ```
//! #[global_allocator]
//! static ALLOCATOR: lamps_testalloc::CountingAlloc = lamps_testalloc::CountingAlloc;
//! ```
//!
//! and measures a closure with [`on_this_thread`], which counts only the
//! calling thread (so the harness's other threads cannot skew a pin), or
//! with [`on_all_threads`], which counts every thread, for work that
//! allocates on threads it spawns. Either returns the closure's result
//! and a [`Tally`] relative to the start of the measurement: a block
//! allocated before it and freed inside counts negative. This crate is a
//! dev-dependency only, and it holds the workspace's only `unsafe` code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, reporting every call to the open measurements.
pub struct CountingAlloc;

/// What a measured closure did to the heap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Each `alloc`, `alloc_zeroed` and `realloc` is one call.
    pub calls: u64,
    /// Change in live heap bytes: a `realloc` moves it by new − old.
    pub bytes: i64,
    /// Change in live heap blocks: a `realloc` leaves it alone.
    pub blocks: i64,
    /// The highest `bytes` reached, counting both blocks of a `realloc`
    /// as live at once (an upper bound on the true peak).
    pub peak: i64,
}

impl Tally {
    /// Counts calls that make `grow` bytes live, then free `shrink`.
    fn record(&mut self, calls: u64, grow: i64, shrink: i64, blocks: i64) {
        self.calls += calls;
        self.bytes += grow;
        self.peak = self.peak.max(self.bytes);
        self.bytes -= shrink;
        self.blocks += blocks;
    }
}

thread_local! {
    /// This thread's open [`on_this_thread`] measurement, if any.
    static THIS_THREAD: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// The open [`on_all_threads`] measurement, and the lock it holds.
static ALL_THREADS: Mutex<Option<Tally>> = Mutex::new(None);
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Locks a mutex whose data every update leaves valid, poisoned or not.
fn lock<T>(m: &'static Mutex<T>) -> MutexGuard<'static, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Reports one allocator call to the open measurements. Allocates
/// nothing, so it cannot recurse.
fn record(calls: u64, grow: i64, shrink: i64, blocks: i64) {
    if let Some(mut t) = THIS_THREAD.get() {
        t.record(calls, grow, shrink, blocks);
        THIS_THREAD.set(Some(t));
    }
    if let Some(t) = lock(&ALL_THREADS).as_mut() {
        t.record(calls, grow, shrink, blocks);
    }
}

// SAFETY: every method passes its arguments unchanged to `System` and
// returns what `System` returns, so every pointer came from `System`.
// The bookkeeping beside it neither allocates nor touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64, 0, 1);
        // SAFETY: the caller meets `alloc`'s requirements for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64, 0, 1);
        // SAFETY: the caller meets `alloc_zeroed`'s requirements.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64, layout.size() as i64, 0);
        // SAFETY: the caller meets `realloc`'s requirements for `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, layout.size() as i64, -1);
        // SAFETY: the caller meets `dealloc`'s requirements for `ptr`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` and tallies the allocations it makes on the calling thread.
/// A nested measurement's figures count in the outer one too.
pub fn on_this_thread<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let outer = THIS_THREAD.replace(Some(Tally::default()));
    let out = f();
    let inner = THIS_THREAD.get().unwrap_or_default();
    THIS_THREAD.set(outer.map(|mut t| {
        let freed = inner.peak - inner.bytes;
        t.record(inner.calls, inner.peak, freed, inner.blocks);
        t
    }));
    (out, inner)
}

/// Runs `f` and tallies the allocations every thread makes meanwhile.
/// Measurements wait for one another, so `f` must not call this again.
pub fn on_all_threads<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let _one = lock(&ONE_AT_A_TIME);
    *lock(&ALL_THREADS) = Some(Tally::default());
    let out = f();
    let tally = lock(&ALL_THREADS).take().unwrap_or_default();
    (out, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

    #[global_allocator]
    static ALLOCATOR: CountingAlloc = CountingAlloc;

    fn bytes(n: usize) -> Vec<u8> {
        black_box(Vec::with_capacity(n))
    }

    #[test]
    fn another_threads_allocations_are_not_counted_on_this_thread() {
        let stop = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        let ((), tally) = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Relaxed) {
                    drop(bytes(64));
                    rounds.fetch_add(1, Relaxed);
                }
            });
            // Wait, without allocating, while the other thread makes a
            // thousand allocations.
            let measured = on_this_thread(|| {
                let start = rounds.load(Relaxed);
                while rounds.load(Relaxed) < start + 1000 {
                    std::hint::spin_loop();
                }
            });
            stop.store(true, Relaxed);
            measured
        });
        assert_eq!(tally, Tally::default());
    }

    #[test]
    fn all_threads_counts_a_spawned_threads_allocations() {
        let (kept, tally) = on_all_threads(|| {
            std::thread::spawn(|| (0..100).map(|_| bytes(64)).collect::<Vec<_>>())
                .join()
                .unwrap()
        });
        assert_eq!(kept.len(), 100);
        // Other tests may allocate and free meanwhile too, so only the
        // call count has a floor: the thread's 100 blocks and their list.
        assert!(tally.calls >= 101, "{tally:?}");
    }

    #[test]
    fn a_realloc_is_one_call_and_counts_both_blocks_at_its_peak() {
        // Grown in place of a 100-byte block live before the measurement:
        // both blocks live means 300 bytes above the starting level.
        let mut v = bytes(100);
        let ((), tally) = on_this_thread(|| v.reserve_exact(300));
        assert_eq!(v.capacity(), 300);
        let want = Tally {
            calls: 1,
            bytes: 300 - 100,
            blocks: 0,
            peak: 300,
        };
        assert_eq!(tally, want);

        // Both blocks inside the measurement: the peak is old + new.
        let (v, tally) = on_this_thread(|| {
            let mut v = bytes(100);
            v.reserve_exact(300);
            v
        });
        assert_eq!(v.capacity(), 300);
        let want = Tally {
            calls: 2,
            bytes: 300,
            blocks: 1,
            peak: 100 + 300,
        };
        assert_eq!(tally, want);
    }

    #[test]
    fn a_nested_measurement_hands_the_outer_tally_back() {
        let ((), outer) = on_this_thread(|| {
            let a = bytes(100);
            let (b, inner) = on_this_thread(|| bytes(50));
            let want = Tally {
                calls: 1,
                bytes: 50,
                blocks: 1,
                peak: 50,
            };
            assert_eq!(inner, want);
            drop(b);
            let c = bytes(10);
            drop((a, c));
        });
        let want = Tally {
            calls: 3,
            bytes: 0,
            blocks: 0,
            peak: 150,
        };
        assert_eq!(outer, want);
    }
}
