//! Proof that a warm suffix re-solve allocates only the plan it returns.
//!
//! Once a `SuffixSolver` has re-solved a frame shape, its arenas, its
//! list-scheduler workspace and its key memo are grown: a re-solve that
//! hits the memo for every level it sweeps compares the per-task
//! deadline bits in place and makes exactly the allocations of one clone
//! of its returned plan (the five arrays of a `PartialSchedule`), with
//! or without per-task deadlines, over one level or several.
//!
//! Only the test's own thread is counted, and the file contains a
//! single `#[test]`, so the counters have one owner. The library crate
//! forbids `unsafe`; the `GlobalAlloc` impl below lives in this
//! integration test only.

use lamps_core::suffix::{SuffixContext, SuffixSolver};
use lamps_core::SchedulerConfig;
use lamps_power::OperatingPoint;
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::TaskGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator counting allocation calls.
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

/// Allocation calls `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOC_CALLS.load(Ordering::Relaxed) - before)
}

fn graph() -> TaskGraph {
    generate(
        &LayeredConfig {
            n_tasks: 40,
            n_layers: 6,
            ..LayeredConfig::default()
        },
        11,
    )
    .scale_weights(3_100_000)
}

#[test]
fn warm_memo_hits_allocate_only_the_returned_plan() {
    TRACKED.with(|t| t.set(true));
    let cfg = SchedulerConfig::paper();
    let g = graph();
    let f_max = cfg.max_frequency();

    // A third of the topological order finished, one processor busy.
    let topo = g.topo_order();
    let mut finished = vec![false; g.len()];
    let mut finish_s = vec![0.0; g.len()];
    for (k, &t) in topo.iter().take(g.len() / 3).enumerate() {
        finished[t.index()] = true;
        finish_s[t.index()] = 1e-3 * (k + 1) as f64;
    }
    let busy = topo[g.len() / 3];
    let running = [Some((busy, 0.02)), None, None];
    let dead = [false; 3];
    let horizon = 3.0 * g.critical_path_cycles() as f64 / f_max;
    let own: Vec<f64> = g
        .tasks()
        .map(|t| {
            if t.index() % 4 == 0 {
                0.8 * horizon
            } else {
                f64::INFINITY
            }
        })
        .collect();

    let all: Vec<OperatingPoint> = cfg.levels.points().to_vec();
    let fastest = [*cfg.levels.fastest()];
    for own_due_s in [None, Some(own.as_slice())] {
        for candidates in [&all[..], &fastest[..]] {
            let ctx = SuffixContext {
                finished: &finished,
                finish_s: &finish_s,
                running: &running,
                dead: &dead,
                now_s: 0.015,
                deadline_s: horizon,
                own_due_s,
            };
            let mut solver = SuffixSolver::new();
            let cold = solver
                .resolve(&g, &ctx, candidates, None)
                .expect("work is pending");
            let misses = solver.key_cache_misses();
            let hits = solver.key_cache_hits();

            let (warm, calls) = counted(|| solver.resolve(&g, &ctx, candidates, None));
            let warm = warm.expect("work is pending");
            assert_eq!(
                solver.key_cache_misses(),
                misses,
                "the warm pass misses nothing"
            );
            assert_eq!(solver.key_cache_hits() - hits, warm.steps);
            assert_eq!(warm.plan, cold.plan);

            let (_clone, clone_calls) = counted(|| warm.plan.clone());
            let what = format!(
                "own deadlines: {}, {} levels, {} swept",
                own_due_s.is_some(),
                candidates.len(),
                warm.steps
            );
            assert_eq!(calls, clone_calls, "{what}");
            assert_eq!(calls, 5, "{what}");
        }
    }
}
