//! Randomized property tests of the schedulers over random DAGs,
//! priorities, and processor counts. Driven by the workspace's internal
//! seeded RNG so they run offline and deterministically.

use lamps_sched::deadlines::latest_finish_times;
use lamps_sched::insertion::insertion_schedule;
use lamps_sched::list::list_schedule;
use lamps_sched::metrics::metrics;
use lamps_sched::{PriorityPolicy, ProcId, Schedule};
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};

const CASES: usize = 64;

fn arb_dag(rng: &mut Rng, max_tasks: usize) -> TaskGraph {
    let n = rng.gen_range(2usize..=max_tasks);
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = (0..n)
        .map(|_| b.add_task(rng.gen_range(0u64..60)))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.5) {
                b.add_edge(ids[i], ids[j]).expect("valid");
            }
        }
    }
    b.build().expect("acyclic")
}

/// Both schedulers produce valid schedules for every priority policy.
#[test]
fn all_schedulers_and_policies_valid() {
    let mut rng = Rng::seed_from_u64(0xD001);
    for _ in 0..CASES {
        let g = arb_dag(&mut rng, 16);
        let n_procs = rng.gen_range(1usize..5);
        let d = 2 * g.critical_path_cycles().max(1);
        for policy in PriorityPolicy::all() {
            let keys = policy.keys(&g, d);
            let s1 = list_schedule(&g, n_procs, &keys);
            assert!(s1.validate(&g).is_ok());
            let s2 = insertion_schedule(&g, n_procs, &keys);
            assert!(s2.validate(&g).is_ok());
        }
    }
}

/// Insertion scheduling respects Graham's bound and never exceeds
/// the serial makespan.
#[test]
fn insertion_respects_bounds() {
    let mut rng = Rng::seed_from_u64(0xD002);
    for _ in 0..CASES {
        let g = arb_dag(&mut rng, 16);
        let n_procs = rng.gen_range(1usize..5);
        let d = 2 * g.critical_path_cycles().max(1);
        let keys = latest_finish_times(&g, d);
        let s = insertion_schedule(&g, n_procs, &keys);
        let cpl = g.critical_path_cycles();
        let work = g.total_work_cycles();
        assert!(s.makespan_cycles() >= cpl.max(work.div_ceil(n_procs as u64)));
        assert!(s.makespan_cycles() <= work.max(cpl));
    }
}

/// On one processor, every work-conserving scheduler yields the
/// serial makespan.
#[test]
fn single_processor_serializes_for_all() {
    let mut rng = Rng::seed_from_u64(0xD003);
    for _ in 0..CASES {
        let g = arb_dag(&mut rng, 12);
        let d = 2 * g.critical_path_cycles().max(1);
        let keys = latest_finish_times(&g, d);
        assert_eq!(
            list_schedule(&g, 1, &keys).makespan_cycles(),
            g.total_work_cycles()
        );
        assert_eq!(
            insertion_schedule(&g, 1, &keys).makespan_cycles(),
            g.total_work_cycles()
        );
    }
}

/// Metrics are internally consistent on arbitrary schedules.
#[test]
fn metrics_consistent() {
    let mut rng = Rng::seed_from_u64(0xD004);
    for _ in 0..CASES {
        let g = arb_dag(&mut rng, 14);
        let n_procs = rng.gen_range(1usize..4);
        let slack = rng.gen_range(0u64..100);
        let d = 2 * g.critical_path_cycles().max(1);
        let keys = latest_finish_times(&g, d);
        let s = list_schedule(&g, n_procs, &keys);
        let horizon = s.makespan_cycles() + slack;
        if horizon == 0 {
            continue;
        }
        let m = metrics(&s, horizon).expect("horizon covers the makespan");
        assert!((0.0..=1.0 + 1e-12).contains(&m.utilization));
        assert!(m.imbalance >= 1.0 - 1e-12);
        assert!(m.employed <= n_procs);
        // Utilization × capacity == total work.
        let reconstructed = m.utilization * horizon as f64 * n_procs as f64;
        assert!((reconstructed - g.total_work_cycles() as f64).abs() < 1e-6);
    }
}

/// Monotone capacity: doubling the processors never increases the
/// event-driven list scheduler's makespan by more than the Graham
/// slack (and adding processors never hurts the *bound*). We assert
/// the weaker, always-true property: makespan(2n) ≤ makespan(n)
/// + CPL (anomalies exist, but they are bounded).
#[test]
fn capacity_anomalies_are_bounded() {
    let mut rng = Rng::seed_from_u64(0xD005);
    for _ in 0..CASES {
        let g = arb_dag(&mut rng, 14);
        let n_procs = rng.gen_range(1usize..3);
        let d = 2 * g.critical_path_cycles().max(1);
        let keys = latest_finish_times(&g, d);
        let m1 = list_schedule(&g, n_procs, &keys).makespan_cycles();
        let m2 = list_schedule(&g, n_procs * 2, &keys).makespan_cycles();
        assert!(m2 <= m1 + g.critical_path_cycles());
    }
}

/// A value near either end of `u64`, or anywhere in between.
fn arb_cycle(rng: &mut Rng) -> u64 {
    match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0u64..16),
        1 => u64::MAX - rng.gen_range(0u64..16),
        _ => rng.next_u64(),
    }
}

/// External schedules store `finish − start` (wrapping) and derive the
/// finish from it: every finish time passed to `Schedule::new` comes
/// back bit for bit, including ones before their start and ones near
/// `u64::MAX`, and the makespan is the largest of them.
#[test]
fn external_finish_times_round_trip() {
    let mut rng = Rng::seed_from_u64(0xD006);
    for _ in 0..CASES {
        let n = rng.gen_range(0usize..12);
        let n_procs = rng.gen_range(1usize..4);
        let start: Vec<u64> = (0..n).map(|_| arb_cycle(&mut rng)).collect();
        let finish: Vec<u64> = (0..n).map(|_| arb_cycle(&mut rng)).collect();
        let proc: Vec<ProcId> = (0..n)
            .map(|_| ProcId(rng.gen_range(0u32..n_procs as u32)))
            .collect();
        let s = Schedule::new(n_procs, start.clone(), finish.clone(), proc);
        for i in 0..n {
            let t = TaskId(i as u32);
            assert_eq!(s.start(t), start[i]);
            assert_eq!(s.finish(t), finish[i]);
            assert_eq!(s.durations()[i], finish[i].wrapping_sub(start[i]));
        }
        assert_eq!(
            s.makespan_cycles(),
            finish.iter().copied().max().unwrap_or(0)
        );
    }
}
