//! Proof that a warm suffix re-solve allocates nothing.
//!
//! Once a `SuffixSolver` has re-solved a frame shape into a caller-owned
//! `PartialSchedule`, its arenas, its list-scheduler workspace, its key
//! memo and that plan's five arrays are grown: a re-solve that hits the
//! memo for every level it sweeps compares the per-task deadline bits in
//! place, refills the plan in place and makes no allocation at all,
//! with or without per-task deadlines, over one level or several.

use lamps_core::suffix::{SuffixContext, SuffixSolver};
use lamps_core::SchedulerConfig;
use lamps_power::OperatingPoint;
use lamps_sched::partial::PartialSchedule;
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::TaskGraph;
use lamps_testalloc::{on_this_thread, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation calls `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, tally) = on_this_thread(f);
    (out, tally.calls)
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
fn warm_memo_hits_allocate_nothing() {
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
            let mut plan = PartialSchedule::new();
            let cold = solver
                .resolve(&g, &ctx, candidates, None, &mut plan)
                .expect("work is pending");
            let cold_plan = plan.clone();
            let misses = solver.key_cache_misses();
            let hits = solver.key_cache_hits();

            let (warm, calls) = counted(|| solver.resolve(&g, &ctx, candidates, None, &mut plan));
            let warm = warm.expect("work is pending");
            assert_eq!(
                solver.key_cache_misses(),
                misses,
                "the warm pass misses nothing"
            );
            assert_eq!(solver.key_cache_hits() - hits, warm.steps);
            assert_eq!((warm.steps, warm.feasible), (cold.steps, cold.feasible));
            assert_eq!(plan, cold_plan);

            let what = format!(
                "own deadlines: {}, {} levels, {} swept",
                own_due_s.is_some(),
                candidates.len(),
                warm.steps
            );
            assert_eq!(calls, 0, "{what}");
        }
    }
}
