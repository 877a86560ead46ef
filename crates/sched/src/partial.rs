//! Re-list-scheduling a partially executed graph on a processor subset.
//!
//! When a processor fail-stops mid-run, or a task retires early, the
//! tasks that already finished (or are running to completion on
//! survivors) are facts; everything else must be re-placed on the
//! surviving processors. [`reschedule_remaining`] runs the list
//! scheduler of [`crate::list`] on that situation: tasks carry *release
//! times* inherited from their completed predecessors, and processors
//! become available at per-processor times (a survivor is busy until its
//! current task retires; a dead processor never becomes available).
//!
//! The result is a [`PartialSchedule`]: placements for the remaining
//! tasks only, in the same cycle domain as the input times. With every
//! task pending, all releases zero, and all processors available at
//! zero, the output matches [`crate::list::list_schedule`] exactly.
//!
//! [`reschedule_remaining_heap_reference`] is the same algorithm on
//! `BinaryHeap`s: the executable specification both list-scheduling
//! entry points are pinned to.

use crate::list::{reschedule_into, ListScheduleWorkspace};
use crate::schedule::{csr_fill, ProcId};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Availability of one processor for re-scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcAvailability {
    /// The processor survives and can accept work from the given cycle.
    FreeAt(u64),
    /// The processor has fail-stopped and must receive no further tasks.
    Failed,
}

/// Placements for the tasks that still had to run, filled by
/// [`reschedule_remaining`].
///
/// Start/finish/processor entries are meaningful only for tasks that
/// were *pending* (not `done`) in the call; entries of completed tasks
/// are left at zero / `ProcId(u32::MAX)`. A schedule that was never
/// filled holds no tasks and no processors.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialSchedule {
    start: Vec<u64>,
    finish: Vec<u64>,
    proc: Vec<ProcId>,
    /// Pending tasks in per-processor execution order, one flat CSR
    /// arena (same layout as [`crate::schedule::Schedule`]).
    order: Vec<TaskId>,
    offsets: Vec<usize>,
    makespan: u64,
    n_placed: usize,
}

impl PartialSchedule {
    /// An empty schedule, to be filled by [`reschedule_remaining`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Start time of pending task `t` in cycles.
    #[inline]
    pub fn start(&self, t: TaskId) -> u64 {
        self.start[t.index()]
    }

    /// Finish time of pending task `t` in cycles.
    #[inline]
    pub fn finish(&self, t: TaskId) -> u64 {
        self.finish[t.index()]
    }

    /// Processor assigned to pending task `t`.
    #[inline]
    pub fn proc(&self, t: TaskId) -> ProcId {
        self.proc[t.index()]
    }

    /// Pending tasks of processor `p` in execution order.
    pub fn tasks_on(&self, p: ProcId) -> &[TaskId] {
        &self.order[self.offsets[p.index()]..self.offsets[p.index() + 1]]
    }

    /// Completion cycle of the last re-placed task (0 if none were
    /// pending).
    pub fn makespan_cycles(&self) -> u64 {
        self.makespan
    }

    /// Number of tasks this schedule placed.
    pub fn n_placed(&self) -> usize {
        self.n_placed
    }
}

/// List-schedule the pending subset of `graph` on the surviving
/// processors, into `out`.
///
/// * `done[t]` — task `t` has already finished (or is guaranteed to
///   finish without re-placement); its completion cycle is
///   `finish_done[t]`.
/// * `finish_done[t]` — completion cycle of each done task (ignored for
///   pending tasks). Successor releases derive from these.
/// * `avail[p]` — when each processor can take new work, or
///   [`ProcAvailability::Failed`].
/// * `keys[t]` — list-scheduling priority (smaller = more urgent), e.g.
///   latest finish times from [`crate::deadlines::latest_finish_times`].
///
/// Work-conserving and deterministic with the same tie-breaks as
/// [`crate::list::list_schedule`]: ready ties on `(key, id)`, processor
/// ties prefer the most recently freed, then the lowest id. Once `ws`
/// and `out` have been through a run of this shape, a run performs
/// **zero heap allocations**.
///
/// # Panics
///
/// Panics if the slice lengths disagree with the graph, no processor
/// survives while tasks are pending, or a done task has a pending
/// predecessor.
pub fn reschedule_remaining(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    done: &[bool],
    finish_done: &[u64],
    avail: &[ProcAvailability],
    keys: &[u64],
    out: &mut PartialSchedule,
) {
    let n = graph.len();
    assert_eq!(done.len(), n, "one done flag per task");
    assert_eq!(finish_done.len(), n, "one finish time per task");
    assert_eq!(keys.len(), n, "one key per task");
    out.makespan = reschedule_into(ws, graph, done, finish_done, avail, keys);
    let (start, finish, proc, seq) = ws.results();
    out.start.clear();
    out.start.extend_from_slice(start);
    out.finish.clear();
    out.finish.extend_from_slice(finish);
    out.proc.clear();
    out.proc.extend_from_slice(proc);
    // Each processor's subsequence of the assignment order is its
    // execution order; done tasks are absent from it.
    csr_fill(
        avail.len(),
        proc,
        seq.iter().copied(),
        &mut out.order,
        &mut out.offsets,
    );
    out.n_placed = seq.len();
}

/// The heap oracle: [`reschedule_remaining`] written plainly on
/// `BinaryHeap`s and fresh vectors, kept as the executable specification
/// of the list scheduler's event order. With every task pending, all
/// releases zero and every processor free at 0 it is the whole-graph
/// [`crate::list::list_schedule`]. The `crates/sched` pins and
/// `lamps_core::suffix::resolve_suffix_fresh` hold the indexed engine to
/// it bit for bit. Not part of the public API.
///
/// # Panics
///
/// As [`reschedule_remaining`].
#[doc(hidden)]
pub fn reschedule_remaining_heap_reference(
    graph: &TaskGraph,
    done: &[bool],
    finish_done: &[u64],
    avail: &[ProcAvailability],
    keys: &[u64],
) -> PartialSchedule {
    let n = graph.len();
    assert_eq!(done.len(), n, "one done flag per task");
    assert_eq!(finish_done.len(), n, "one finish time per task");
    assert_eq!(keys.len(), n, "one key per task");
    let n_procs = avail.len();
    let pending = done.iter().filter(|&&d| !d).count();
    assert!(
        pending == 0
            || avail
                .iter()
                .any(|a| matches!(a, ProcAvailability::FreeAt(_))),
        "tasks pending but no processor survives"
    );
    for t in graph.tasks() {
        if done[t.index()] {
            for &p in graph.predecessors(t) {
                assert!(
                    done[p.index()],
                    "{t} is done but its predecessor {p} is pending"
                );
            }
        }
    }

    let mut start = vec![0u64; n];
    let mut finish = vec![0u64; n];
    let mut proc = vec![ProcId(u32::MAX); n];
    // Pending tasks in global assignment order; flattened to the CSR
    // arena at the end (each processor's subsequence is chronological).
    let mut seq: Vec<TaskId> = Vec::with_capacity(pending);

    // Pending predecessors still outstanding, and the release cycle
    // accumulated from completed ones.
    let mut missing = vec![0u32; n];
    let mut ready_at = vec![0u64; n];
    for t in graph.tasks() {
        if done[t.index()] {
            continue;
        }
        for &p in graph.predecessors(t) {
            if done[p.index()] {
                ready_at[t.index()] = ready_at[t.index()].max(finish_done[p.index()]);
            } else {
                missing[t.index()] += 1;
            }
        }
    }

    // Tasks whose pending predecessors are all retired, waiting for
    // their release cycle: min-heap on (release, id).
    let mut released: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Tasks ready right now: min-heap on (key, id).
    let mut ready: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Running tasks: min-heap on (finish, id).
    let mut running: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Surviving processors not yet free: min-heap on (avail, proc).
    let mut waking: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    // Free processors: max-heap on (freed_at, Reverse(id)) — pop yields
    // the most recently freed, lowest id on ties.
    let mut idle: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();

    for t in graph.tasks() {
        if !done[t.index()] && missing[t.index()] == 0 {
            released.push(Reverse((ready_at[t.index()], t.0)));
        }
    }
    for (p, a) in avail.iter().enumerate() {
        if let ProcAvailability::FreeAt(at) = *a {
            waking.push(Reverse((at, p as u32)));
        }
    }

    let mut now = 0u64;
    let mut scheduled = 0usize;
    while scheduled < pending {
        // Retire tasks finishing at `now`, freeing processors and
        // propagating releases.
        while let Some(&Reverse((ft, id))) = running.peek() {
            if ft > now {
                break;
            }
            running.pop();
            let t = TaskId(id);
            idle.push((now, Reverse(proc[t.index()].0)));
            for &s in graph.successors(t) {
                ready_at[s.index()] = ready_at[s.index()].max(ft);
                missing[s.index()] -= 1;
                if missing[s.index()] == 0 {
                    released.push(Reverse((ready_at[s.index()], s.0)));
                }
            }
        }
        // Surface processors whose availability has arrived.
        while let Some(&Reverse((at, p))) = waking.peek() {
            if at > now {
                break;
            }
            waking.pop();
            idle.push((at, Reverse(p)));
        }
        // Surface tasks whose release cycle has arrived.
        while let Some(&Reverse((at, id))) = released.peek() {
            if at > now {
                break;
            }
            released.pop();
            ready.push(Reverse((keys[TaskId(id).index()], id)));
        }

        // Start ready tasks while processors are free; zero-weight tasks
        // retire instantly and may release more work at this instant.
        while !idle.is_empty() && !ready.is_empty() {
            let Reverse((_key, id)) = ready.pop().expect("checked non-empty");
            let (_freed_at, Reverse(p)) = idle.pop().expect("checked non-empty");
            let t = TaskId(id);
            let w = graph.weight(t);
            start[t.index()] = now;
            finish[t.index()] = now + w;
            proc[t.index()] = ProcId(p);
            seq.push(t);
            scheduled += 1;
            if w == 0 {
                idle.push((now, Reverse(p)));
                for &s in graph.successors(t) {
                    ready_at[s.index()] = ready_at[s.index()].max(now);
                    missing[s.index()] -= 1;
                    if missing[s.index()] == 0 {
                        // A release at this very instant must enter the
                        // ready heap directly — the released→ready drain
                        // for `now` has already run.
                        if ready_at[s.index()] <= now {
                            ready.push(Reverse((keys[s.index()], s.0)));
                        } else {
                            released.push(Reverse((ready_at[s.index()], s.0)));
                        }
                    }
                }
            } else {
                running.push(Reverse((finish[t.index()], id)));
            }
        }

        if scheduled == pending {
            break;
        }

        // Advance to the next event: a finish, a release, or a
        // processor waking up.
        let mut next = u64::MAX;
        if let Some(&Reverse((ft, _))) = running.peek() {
            next = next.min(ft);
        }
        if let Some(&Reverse((at, _))) = released.peek() {
            next = next.min(at);
        }
        if let Some(&Reverse((at, _))) = waking.peek() {
            next = next.min(at);
        }
        assert!(
            next != u64::MAX && next > now,
            "scheduler stalled with {} of {pending} tasks placed",
            scheduled
        );
        now = next;
    }

    let makespan = graph
        .tasks()
        .filter(|t| !done[t.index()])
        .map(|t| finish[t.index()])
        .max()
        .unwrap_or(0);
    // Counting sort of the assignment sequence by processor; stable, so
    // each processor's chronological order is preserved. Done tasks are
    // absent from `seq`, so their `ProcId(u32::MAX)` sentinels never
    // index the buckets.
    let mut offsets = vec![0usize; n_procs + 1];
    for &t in &seq {
        offsets[proc[t.index()].index() + 1] += 1;
    }
    for i in 1..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut cursor = offsets.clone();
    let mut order = vec![TaskId(0); seq.len()];
    for &t in &seq {
        let p = proc[t.index()].index();
        order[cursor[p]] = t;
        cursor[p] += 1;
    }
    PartialSchedule {
        start,
        finish,
        proc,
        order,
        offsets,
        makespan,
        n_placed: pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlines::latest_finish_times;
    use crate::list::list_schedule;
    use lamps_taskgraph::GraphBuilder;

    /// Fig. 4a: T1(2) → {T2(6), T3(4), T4(4)}; {T2,T3} → T5(2).
    fn fig4a() -> TaskGraph {
        let mut b = GraphBuilder::new();
        let t1 = b.add_task(2);
        let t2 = b.add_task(6);
        let t3 = b.add_task(4);
        let t4 = b.add_task(4);
        let t5 = b.add_task(2);
        b.add_edge(t1, t2).unwrap();
        b.add_edge(t1, t3).unwrap();
        b.add_edge(t1, t4).unwrap();
        b.add_edge(t2, t5).unwrap();
        b.add_edge(t3, t5).unwrap();
        b.build().unwrap()
    }

    /// [`reschedule_remaining`] into fresh buffers, checked against the
    /// heap oracle.
    fn reschedule(
        graph: &TaskGraph,
        done: &[bool],
        finish_done: &[u64],
        avail: &[ProcAvailability],
        keys: &[u64],
    ) -> PartialSchedule {
        let mut ps = PartialSchedule::new();
        let mut ws = ListScheduleWorkspace::new();
        reschedule_remaining(&mut ws, graph, done, finish_done, avail, keys, &mut ps);
        assert_eq!(
            ps,
            reschedule_remaining_heap_reference(graph, done, finish_done, avail, keys)
        );
        ps
    }

    fn check_partial(
        graph: &TaskGraph,
        done: &[bool],
        finish_done: &[u64],
        avail: &[ProcAvailability],
        ps: &PartialSchedule,
    ) {
        for t in graph.tasks() {
            if done[t.index()] {
                continue;
            }
            assert_eq!(ps.finish(t), ps.start(t) + graph.weight(t), "{t}");
            for &p in graph.predecessors(t) {
                let pf = if done[p.index()] {
                    finish_done[p.index()]
                } else {
                    ps.finish(p)
                };
                assert!(ps.start(t) >= pf, "{t} starts before {p} finishes");
            }
            match avail[ps.proc(t).index()] {
                ProcAvailability::FreeAt(at) => assert!(ps.start(t) >= at, "{t} starts too early"),
                ProcAvailability::Failed => panic!("{t} placed on a failed processor"),
            }
        }
        for (pi, tasks) in (0..avail.len()).map(|p| (p, ps.tasks_on(ProcId(p as u32)))) {
            for w in tasks.windows(2) {
                assert!(
                    ps.finish(w[0]) <= ps.start(w[1]),
                    "overlap on P{pi}: {} and {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn degenerate_matches_full_list_schedule() {
        let g = fig4a();
        let keys = latest_finish_times(&g, 12);
        let full = list_schedule(&g, 2, &keys);
        let done = vec![false; g.len()];
        let fd = vec![0u64; g.len()];
        let avail = vec![ProcAvailability::FreeAt(0); 2];
        let part = reschedule(&g, &done, &fd, &avail, &keys);
        for t in g.tasks() {
            assert_eq!(part.start(t), full.start(t), "{t}");
            assert_eq!(part.finish(t), full.finish(t), "{t}");
            assert_eq!(part.proc(t), full.proc(t), "{t}");
        }
        assert_eq!(part.makespan_cycles(), full.makespan_cycles());
    }

    #[test]
    fn survivor_takes_over_after_fail_stop() {
        // T1 done at cycle 2 on some processor; P1 fails; the three
        // middle tasks plus T5 all land on P0, which frees up at 4.
        let g = fig4a();
        let keys = latest_finish_times(&g, 12);
        let done = vec![true, false, false, false, false];
        let fd = vec![2u64, 0, 0, 0, 0];
        let avail = vec![ProcAvailability::FreeAt(4), ProcAvailability::Failed];
        let ps = reschedule(&g, &done, &fd, &avail, &keys);
        check_partial(&g, &done, &fd, &avail, &ps);
        assert_eq!(ps.n_placed(), 4);
        // Serialized on one processor from cycle 4: 6+4+4+2 = 16 cycles.
        assert_eq!(ps.makespan_cycles(), 4 + 16);
        assert!(ps.tasks_on(ProcId(1)).is_empty());
    }

    #[test]
    fn releases_gate_ready_tasks() {
        // Done predecessor finishing late (cycle 10) must delay its
        // successors even on an idle machine.
        let g = fig4a();
        let keys = latest_finish_times(&g, 30);
        let done = vec![true, false, false, false, false];
        let fd = vec![10u64, 0, 0, 0, 0];
        let avail = vec![ProcAvailability::FreeAt(0); 3];
        let ps = reschedule(&g, &done, &fd, &avail, &keys);
        check_partial(&g, &done, &fd, &avail, &ps);
        for t in [1u32, 2, 3] {
            assert_eq!(ps.start(TaskId(t)), 10);
        }
    }

    #[test]
    fn staggered_availability_respected() {
        // Two independent tasks, two survivors free at different times:
        // the earlier-free processor starts first.
        let mut b = GraphBuilder::new();
        b.add_task(5);
        b.add_task(5);
        let g = b.build().unwrap();
        let done = vec![false, false];
        let fd = vec![0u64, 0];
        let avail = vec![ProcAvailability::FreeAt(7), ProcAvailability::FreeAt(3)];
        let keys = vec![10u64, 20];
        let ps = reschedule(&g, &done, &fd, &avail, &keys);
        check_partial(&g, &done, &fd, &avail, &ps);
        // More urgent task 0 grabs the earlier processor P1.
        assert_eq!(ps.proc(TaskId(0)), ProcId(1));
        assert_eq!(ps.start(TaskId(0)), 3);
        assert_eq!(ps.start(TaskId(1)), 7);
    }

    #[test]
    fn zero_weight_pending_chain_collapses() {
        let mut b = GraphBuilder::new();
        let e = b.add_task(0);
        let a = b.add_task(4);
        let x = b.add_task(0);
        b.add_edge(e, a).unwrap();
        b.add_edge(a, x).unwrap();
        let g = b.build().unwrap();
        let keys = latest_finish_times(&g, 10);
        let done = vec![false; 3];
        let fd = vec![0u64; 3];
        let avail = vec![ProcAvailability::FreeAt(1), ProcAvailability::Failed];
        let ps = reschedule(&g, &done, &fd, &avail, &keys);
        check_partial(&g, &done, &fd, &avail, &ps);
        assert_eq!(ps.makespan_cycles(), 5);
    }

    #[test]
    fn everything_done_is_a_noop() {
        let g = fig4a();
        let keys = latest_finish_times(&g, 12);
        let done = vec![true; g.len()];
        let fd = vec![2u64, 8, 6, 6, 10];
        let avail = vec![ProcAvailability::Failed; 2];
        let ps = reschedule(&g, &done, &fd, &avail, &keys);
        assert_eq!(ps.n_placed(), 0);
        assert_eq!(ps.makespan_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "no processor survives")]
    fn pending_work_needs_a_survivor() {
        let g = fig4a();
        let keys = latest_finish_times(&g, 12);
        let done = vec![false; g.len()];
        let fd = vec![0u64; g.len()];
        reschedule(&g, &done, &fd, &[ProcAvailability::Failed], &keys);
    }

    #[test]
    #[should_panic(expected = "is pending")]
    fn done_with_pending_predecessor_rejected() {
        let g = fig4a();
        let keys = latest_finish_times(&g, 12);
        let done = vec![false, true, false, false, false];
        let fd = vec![0u64; g.len()];
        let avail = vec![ProcAvailability::FreeAt(0); 2];
        reschedule(&g, &done, &fd, &avail, &keys);
    }
}
