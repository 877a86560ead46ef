//! The discrete-event list scheduler.
//!
//! Work-conserving, non-preemptive list scheduling on identical
//! processors: whenever a processor is free and tasks are ready (all
//! predecessors finished), the ready task with the smallest priority key
//! starts immediately. With keys = latest finish times this is the
//! paper's LS-EDF (§4).
//!
//! One event loop serves two entry points. [`list_schedule_into`]
//! schedules a whole graph with every processor free at cycle 0.
//! [`crate::partial::reschedule_remaining`] schedules the pending rest of
//! a partly executed graph: its tasks also wait for a *release* cycle
//! inherited from completed predecessors, and each processor becomes free
//! at its own cycle or never. The whole-graph run is the partial one with
//! nothing done and every processor free at 0; its setup queues no
//! release or wake-up, so it pays nothing for the generality.
//!
//! Determinism: ties between ready tasks break on task id; among the
//! processors idle at assignment time, the one that became idle most
//! recently is chosen (ties on processor id). Choosing the
//! most-recently-freed processor keeps the other processors' idle
//! intervals contiguous, which is the favourable layout for the
//! processor-shutdown heuristics — and is applied uniformly to every
//! strategy, so comparisons are unaffected.
//!
//! # Event structures
//!
//! Binary heaps are the plain way to write this loop, but at 100k-task
//! graphs the ready heap's pointer-chasing sift dominates the run. The
//! loop uses indexed structures over flat arrays instead, chosen so the
//! event order is *provably identical* to the heaps'. The heap algorithm
//! is kept once, as the executable specification
//! ([`crate::partial::reschedule_remaining_heap_reference`]); the
//! `crates/sched` tests pin both entry points to it event for event.
//!
//! * **Ready tasks** — the priority keys are rank-compressed once per
//!   run (one `sort_unstable` of `(key, id)` pairs) and the ready set
//!   becomes a two-level bitset over ranks; pop-min is a summary-word
//!   scan plus two `trailing_zeros`. Identical order: rank order *is*
//!   `(key, id)` order.
//! * **Events** — a monotone bucket queue (`EventQueue`). Every event
//!   is queued at or after the current cycle — a finish at `now + w`, a
//!   release or a wake-up at its own cycle, queued at setup — and popped
//!   in nondecreasing order, so a radix-style bucket structure (bucket =
//!   highest bit in which the key differs from the last popped minimum)
//!   gives amortized O(64) pops with intrusive free-lists over a flat
//!   slot arena. A release counts as one more missing predecessor of its
//!   task, so it gates readiness exactly as a finishing predecessor does.
//!   Ties between equal times pop in unspecified order, which is
//!   semantically invisible: every event at one instant drains before
//!   anything is assigned, and every per-event effect (freeing a
//!   processor at `now`, decrementing a missing-predecessor count,
//!   inserting into the ready bitset) is order-independent within the
//!   batch.
//! * **Idle processors** — a timestamped stack: processors are only ever
//!   freed at the current cycle, which never decreases, so "most
//!   recently freed first, lowest id on ties" is a stack of per-instant
//!   segments, each segment sorted descending by processor id before it
//!   is appended (pop from the end yields the lowest id of the most
//!   recent instant).

use crate::deadlines::latest_finish_times;
use crate::partial::ProcAvailability;
use crate::schedule::{csr_from_sorted, ProcId, Schedule};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::sync::Arc;

const NIL: u32 = u32::MAX;

/// Ready set: a two-level bitset over priority ranks. Bit `r` of the
/// leaf words is rank `r`; each summary bit covers one leaf word.
/// Pop-min scans the summary (≤ `n/4096` words) for the first set bit.
#[derive(Debug, Default)]
struct ReadySet {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl ReadySet {
    fn reserve(&mut self, n_ranks: usize) {
        let n_words = n_ranks.div_ceil(64).max(1);
        reserve_total(&mut self.words, n_words);
        reserve_total(&mut self.summary, n_words.div_ceil(64));
    }

    /// Clear and size for `n_ranks` ranks, all absent.
    fn reset(&mut self, n_ranks: usize) {
        let n_words = n_ranks.div_ceil(64).max(1);
        self.words.clear();
        self.words.resize(n_words, 0);
        self.summary.clear();
        self.summary.resize(n_words.div_ceil(64), 0);
        self.len = 0;
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn insert(&mut self, rank: u32) {
        let w = (rank >> 6) as usize;
        self.words[w] |= 1u64 << (rank & 63);
        self.summary[w >> 6] |= 1u64 << (w & 63);
        self.len += 1;
    }

    /// Remove and return the smallest rank present. Must be non-empty.
    #[inline]
    fn pop_min(&mut self) -> u32 {
        let sw = self
            .summary
            .iter()
            .position(|&s| s != 0)
            .expect("ready set is non-empty");
        let wi = (sw << 6) + self.summary[sw].trailing_zeros() as usize;
        let bit = self.words[wi].trailing_zeros();
        self.words[wi] &= self.words[wi] - 1;
        if self.words[wi] == 0 {
            self.summary[sw] &= !(1u64 << (wi & 63));
        }
        self.len -= 1;
        ((wi as u32) << 6) | bit
    }
}

/// What happens when an event's cycle arrives.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// The task finishes: its processor becomes idle and each successor
    /// loses one missing predecessor.
    Finish(u32),
    /// The task's release cycle arrives: it loses the missing
    /// predecessor that stood for its completed predecessors.
    Release(u32),
    /// The processor's in-flight work retires and it becomes idle.
    Wake(u32),
}

/// Monotone bucket (radix) queue of events: keys are pushed at or after
/// the last popped minimum and popped in nondecreasing order. Bucket
/// `b > 0` holds keys whose highest bit differing from the last minimum
/// is `b - 1`; bucket 0 holds keys equal to it. Slots live in flat
/// parallel arrays linked through `next` with a free list, so a warm
/// queue never allocates regardless of the key distribution.
#[derive(Debug)]
struct EventQueue {
    time: Vec<u64>,
    event: Vec<Event>,
    next: Vec<u32>,
    free: u32,
    buckets: [u32; 65],
    last: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            time: Vec::new(),
            event: Vec::new(),
            next: Vec::new(),
            free: NIL,
            buckets: [NIL; 65],
            last: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    fn reserve(&mut self, cap: usize) {
        reserve_total(&mut self.time, cap);
        reserve_total(&mut self.event, cap);
        reserve_total(&mut self.next, cap);
    }

    fn reset(&mut self) {
        self.time.clear();
        self.event.clear();
        self.next.clear();
        self.free = NIL;
        self.buckets = [NIL; 65];
        self.last = 0;
        self.len = 0;
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn bucket_of(last: u64, key: u64) -> usize {
        (64 - (key ^ last).leading_zeros()) as usize
    }

    #[inline]
    fn push(&mut self, time: u64, event: Event) {
        debug_assert!(time >= self.last, "event queue keys are monotone");
        let slot = if self.free != NIL {
            let s = self.free as usize;
            self.free = self.next[s];
            self.time[s] = time;
            self.event[s] = event;
            s as u32
        } else {
            self.time.push(time);
            self.event.push(event);
            self.next.push(NIL);
            (self.time.len() - 1) as u32
        };
        let b = Self::bucket_of(self.last, time);
        self.next[slot as usize] = self.buckets[b];
        self.buckets[b] = slot;
        self.len += 1;
    }

    /// Smallest time currently queued, pulling its ties into bucket 0
    /// (the amortized radix-heap step: each slot's bucket index only ever
    /// decreases between its push and its pop). Only call this when
    /// advancing the clock to the returned time — it raises the radix
    /// floor `last` to the minimum, after which pushes below it would
    /// break the bucket invariant.
    fn min_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0] == NIL {
            let b = (1..=64)
                .find(|&b| self.buckets[b] != NIL)
                .expect("a non-empty queue has a non-empty bucket");
            let mut m = u64::MAX;
            let mut s = self.buckets[b];
            while s != NIL {
                m = m.min(self.time[s as usize]);
                s = self.next[s as usize];
            }
            self.last = m;
            let mut s = self.buckets[b];
            self.buckets[b] = NIL;
            while s != NIL {
                let nx = self.next[s as usize];
                let nb = Self::bucket_of(m, self.time[s as usize]);
                debug_assert!(nb < b);
                self.next[s as usize] = self.buckets[nb];
                self.buckets[nb] = s;
                s = nx;
            }
        }
        Some(self.last)
    }

    /// Pop one event due exactly at `now`, or `None` when nothing is.
    /// Requires the clock to have been advanced via [`Self::min_time`]
    /// (so `last == now` and bucket 0 holds the whole batch) or to still
    /// be at 0; every queued key is `> now` once the batch drains, so the
    /// floor stays put and later pushes at `now + w` remain monotone.
    /// Ties between equal times pop in unspecified order (see the module
    /// docs for why that is invisible).
    fn pop_at(&mut self, now: u64) -> Option<Event> {
        debug_assert!(self.last <= now);
        if self.len == 0 || self.last != now || self.buckets[0] == NIL {
            return None;
        }
        let s = self.buckets[0] as usize;
        self.buckets[0] = self.next[s];
        self.next[s] = self.free;
        self.free = s as u32;
        self.len -= 1;
        Some(self.event[s])
    }
}

/// Reusable scratch state for [`list_schedule_with`],
/// [`list_schedule_into`] and [`crate::partial::reschedule_remaining`].
///
/// A LAMPS-style search schedules the same graph dozens of times (one
/// run per candidate processor count), and an online suffix re-solve
/// once per candidate level; keeping the event structures, the
/// in-degree counters, and the per-run result arrays alive across runs
/// means a run through a warm workspace performs **zero heap
/// allocations**; materializing an owned [`Schedule`] afterwards
/// ([`Self::to_schedule`]) costs exactly the four exact-size arrays the
/// schedule owns, its duration column being shared. The workspace
/// carries no semantic state between runs — every run clears and
/// refills it — so reusing one workspace produces schedules identical to
/// fresh [`list_schedule`] calls.
#[derive(Debug, Default)]
pub struct ListScheduleWorkspace {
    /// `(key, id)` pairs sorted ascending: rank `r`'s task is
    /// `rank_pairs[r].1`.
    rank_pairs: Vec<(u64, u32)>,
    /// Task index → its rank in `rank_pairs`.
    rank_of: Vec<u32>,
    ready: ReadySet,
    events: EventQueue,
    /// Idle processors, most recently freed last; each same-instant
    /// segment is sorted descending by id, so `pop` yields the
    /// most-recently-freed processor, lowest id on ties.
    idle_stack: Vec<u32>,
    /// Processors freed at one shared instant (tracked by a run-local
    /// clock), not yet sorted into `idle_stack`; flushed (sorted
    /// descending by id, appended) before any pop or any push at a
    /// later instant.
    idle_pending: Vec<u32>,
    /// Per task: predecessors still to finish, plus one while a release
    /// is queued.
    missing_preds: Vec<u32>,
    // Results of the most recent run, valid until the next one.
    n_procs: usize,
    makespan: u64,
    start: Vec<u64>,
    finish: Vec<u64>,
    proc: Vec<ProcId>,
    /// Tasks in global assignment order; each processor's subsequence is
    /// its execution order (assignment time is non-decreasing).
    seq: Vec<TaskId>,
    /// Peak number of processors held at once during the last run (see
    /// [`Self::peak_procs_held`]).
    peak_held: usize,
    /// Whether the last run ever made a ready task wait for a processor.
    blocked: bool,
}

impl ListScheduleWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every internal buffer to hold an `n_tasks`-task graph on
    /// `n_procs` processors, so the next [`list_schedule_into`] run
    /// allocates nothing. `reserve` is a no-op when capacity is already
    /// sufficient; runs against larger inputs simply grow on demand.
    pub fn reserve(&mut self, n_tasks: usize, n_procs: usize) {
        reserve_total(&mut self.rank_pairs, n_tasks);
        reserve_total(&mut self.rank_of, n_tasks);
        self.ready.reserve(n_tasks);
        // At most one task runs per processor at any instant.
        self.events.reserve(n_procs.min(n_tasks.max(1)));
        reserve_total(&mut self.idle_stack, n_procs);
        reserve_total(&mut self.idle_pending, n_procs);
        reserve_total(&mut self.missing_preds, n_tasks);
        reserve_total(&mut self.start, n_tasks);
        reserve_total(&mut self.finish, n_tasks);
        reserve_total(&mut self.proc, n_tasks);
        reserve_total(&mut self.seq, n_tasks);
    }

    /// Makespan of the most recent run.
    pub fn makespan_cycles(&self) -> u64 {
        self.makespan
    }

    /// Peak number of processors held simultaneously during the most
    /// recent run, counting a zero-weight task's momentary hold at its
    /// assignment instant.
    ///
    /// Together with [`Self::was_blocked`] this bounds the schedule's
    /// *width*: if the last run never blocked, then re-running the same
    /// graph and keys on **any** processor count `≥ peak_procs_held()`
    /// replays the identical event sequence — the ready set, event
    /// queue, and retirement order are independent of the processor
    /// count as long as a processor is free whenever a task is popped —
    /// and therefore produces the same start/finish times and makespan.
    /// Only the processor *assignment* differs. Callers (the solver's
    /// schedule cache) use this to answer makespan probes above the
    /// width without scheduling.
    pub fn peak_procs_held(&self) -> usize {
        self.peak_held
    }

    /// Whether the most recent run ever had a ready task wait because
    /// every processor was busy. An unblocked run is the infinite-
    /// processor schedule: see [`Self::peak_procs_held`].
    pub fn was_blocked(&self) -> bool {
        self.blocked
    }

    /// Copy the latest whole-graph run ([`list_schedule_into`]) into an
    /// owned [`Schedule`] whose finish times are `start + durations`:
    /// four exact-size allocations (start, proc and the CSR order arena),
    /// no per-processor `Vec`s. `durations` must be the scheduled
    /// graph's weight column ([`TaskGraph::weights`]); a caller that
    /// materializes many runs of one graph passes clones of one
    /// `Arc<[u64]>`, and every schedule shares that allocation. Within
    /// one processor the assignment sequence is chronological, so a
    /// stable counting sort of the sequence by processor yields each
    /// processor's execution order — authoritative even for zero-weight
    /// chains assigned at the same instant.
    ///
    /// # Panics
    ///
    /// Panics if the last run left a task unplaced (a partial run) or
    /// `durations` has the wrong length. Debug builds also check every
    /// duration against the run's finish times.
    pub fn to_schedule(&self, durations: Arc<[u64]>) -> Schedule {
        let n = self.start.len();
        assert_eq!(self.seq.len(), n, "the last run must place every task");
        assert_eq!(durations.len(), n, "one duration per task");
        debug_assert!(
            (0..n).all(|i| self.start[i].wrapping_add(durations[i]) == self.finish[i]),
            "durations must be the scheduled graph's weights"
        );
        let (order, offsets) = csr_from_sorted(self.n_procs, &self.proc, self.seq.iter().copied());
        Schedule::from_columns(
            self.n_procs,
            self.makespan,
            self.start.clone(),
            durations,
            self.proc.clone(),
            order,
            offsets,
        )
    }

    /// The last run's start and finish cycles and processor per task,
    /// and the placed tasks in assignment order.
    pub(crate) fn results(&self) -> (&[u64], &[u64], &[ProcId], &[TaskId]) {
        (&self.start, &self.finish, &self.proc, &self.seq)
    }

    /// Clear every buffer for a run of `graph` on `n_procs` processors,
    /// with nothing ready, idle or queued, and rank-compress the
    /// `(key, id)` pairs of the tasks to place: rank order is `(key, id)`
    /// order, so popping the smallest present rank is exactly a heap's
    /// pop of the smallest `(key, id)`.
    fn begin(
        &mut self,
        graph: &TaskGraph,
        n_procs: usize,
        to_place: impl Iterator<Item = (u64, u32)>,
    ) {
        let n = graph.len();
        self.reserve(n, n_procs);
        self.n_procs = n_procs;
        self.start.clear();
        self.start.resize(n, 0);
        self.finish.clear();
        self.finish.resize(n, 0);
        self.proc.clear();
        self.proc.resize(n, ProcId(u32::MAX));
        self.seq.clear();

        self.rank_pairs.clear();
        self.rank_pairs.extend(to_place);
        self.rank_pairs.sort_unstable();
        self.rank_of.clear();
        self.rank_of.resize(n, 0);
        for (r, &(_key, id)) in self.rank_pairs.iter().enumerate() {
            self.rank_of[id as usize] = r as u32;
        }

        self.ready.reset(self.rank_pairs.len());
        self.missing_preds.clear();
        self.events.reset();
        self.idle_stack.clear();
        self.idle_pending.clear();
    }

    /// The event loop: from cycle 0, drain every event due now, start
    /// ready tasks on idle processors, and advance to the next event,
    /// until every ranked task has started. The setup must have filled
    /// `missing_preds`, the ready set and the idle stack, and queued
    /// only releases and wake-ups. Returns the makespan.
    fn run(&mut self, graph: &TaskGraph) -> u64 {
        let ListScheduleWorkspace {
            rank_pairs,
            rank_of,
            ready,
            events,
            idle_stack,
            idle_pending,
            missing_preds,
            n_procs: _,
            makespan: ws_makespan,
            start,
            finish,
            proc,
            seq,
            peak_held: ws_peak_held,
            blocked: ws_blocked,
        } = self;
        let to_place = rank_pairs.len();
        let mut idle_pending_time = 0u64;
        // Releases and wake-ups still queued; every other queued event
        // is a running task's finish.
        let mut arrivals = events.len();
        let mut peak_held = 0usize;
        let mut blocked = false;
        let mut makespan = 0u64;
        let mut now = 0u64;
        let mut scheduled = 0usize;
        while scheduled < to_place {
            // Drain every event due at the current time. (Nothing is due
            // *before* `now`: the clock only ever advances to the queue's
            // minimum, and each batch drains completely.)
            while let Some(event) = events.pop_at(now) {
                match event {
                    Event::Finish(id) => {
                        let t = TaskId(id);
                        idle_push(
                            idle_stack,
                            idle_pending,
                            &mut idle_pending_time,
                            now,
                            proc[t.index()].0,
                        );
                        for &s in graph.successors(t) {
                            satisfy(missing_preds, ready, rank_of, s);
                        }
                    }
                    Event::Release(id) => {
                        arrivals -= 1;
                        satisfy(missing_preds, ready, rank_of, TaskId(id));
                    }
                    Event::Wake(p) => {
                        arrivals -= 1;
                        idle_push(idle_stack, idle_pending, &mut idle_pending_time, now, p);
                    }
                }
            }

            // Start ready tasks while processors are free. Zero-weight tasks
            // (STG dummy nodes) retire immediately, possibly readying more
            // tasks at the same instant.
            while !ready.is_empty() && (!idle_stack.is_empty() || !idle_pending.is_empty()) {
                let rank = ready.pop_min();
                let id = rank_pairs[rank as usize].1;
                let p = idle_pop(idle_stack, idle_pending);
                let t = TaskId(id);
                let w = graph.weight(t);
                start[t.index()] = now;
                finish[t.index()] = now + w;
                proc[t.index()] = ProcId(p);
                seq.push(t);
                scheduled += 1;
                makespan = makespan.max(now + w);
                if w == 0 {
                    idle_push(idle_stack, idle_pending, &mut idle_pending_time, now, p);
                    for &s in graph.successors(t) {
                        satisfy(missing_preds, ready, rank_of, s);
                    }
                } else {
                    events.push(now + w, Event::Finish(id));
                }
                // Processors held right now: every running task plus the
                // momentary hold of a zero-weight assignment.
                let held = events.len() - arrivals + usize::from(w == 0);
                if held > peak_held {
                    peak_held = held;
                }
            }

            if scheduled == to_place {
                break;
            }

            // Advance to the next event; the top of the loop drains it
            // (and anything else due at the same instant). A ready task
            // waiting here is the one situation where the processor count
            // shaped the schedule.
            if !ready.is_empty() {
                blocked = true;
            }
            now = events
                .min_time()
                .expect("unplaced tasks remain, so an event must be queued");
        }

        *ws_peak_held = peak_held;
        *ws_blocked = blocked;
        *ws_makespan = makespan;
        makespan
    }
}

/// One missing predecessor of `t` is satisfied; it becomes ready when
/// none remain.
#[inline]
fn satisfy(missing_preds: &mut [u32], ready: &mut ReadySet, rank_of: &[u32], t: TaskId) {
    missing_preds[t.index()] -= 1;
    if missing_preds[t.index()] == 0 {
        ready.insert(rank_of[t.index()]);
    }
}

/// Flush the same-instant pending segment: sort descending by id and
/// append, so popping from the stack end yields ascending ids within
/// the most recent instant.
#[inline]
fn idle_flush(stack: &mut Vec<u32>, pending: &mut Vec<u32>) {
    if !pending.is_empty() {
        pending.sort_unstable_by(|a, b| b.cmp(a));
        stack.append(pending);
    }
}

#[inline]
fn idle_push(
    stack: &mut Vec<u32>,
    pending: &mut Vec<u32>,
    pending_time: &mut u64,
    now: u64,
    p: u32,
) {
    if now != *pending_time {
        idle_flush(stack, pending);
        *pending_time = now;
    }
    pending.push(p);
}

/// Grow `v`'s capacity to at least `n` elements in total. `Vec::reserve`
/// counts from the length, and a workspace buffer still holds the last
/// run's results when the next run reserves, so it would double.
fn reserve_total<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

#[inline]
fn idle_pop(stack: &mut Vec<u32>, pending: &mut Vec<u32>) -> u32 {
    idle_flush(stack, pending);
    stack.pop().expect("an idle processor is available")
}

/// Schedule `graph` on `n_procs` processors, priorities given per task
/// (smaller key = more urgent).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule(graph: &TaskGraph, n_procs: usize, keys: &[u64]) -> Schedule {
    list_schedule_with(&mut ListScheduleWorkspace::new(), graph, n_procs, keys)
}

/// [`list_schedule`] reusing the allocations in `ws` (see
/// [`ListScheduleWorkspace`]).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule_with(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    n_procs: usize,
    keys: &[u64],
) -> Schedule {
    list_schedule_into(ws, graph, n_procs, keys);
    ws.to_schedule(Arc::from(graph.weights()))
}

/// Run the list scheduler, leaving the per-task results in `ws` (read
/// them back via [`ListScheduleWorkspace::makespan_cycles`] or
/// materialize an owned [`Schedule`] with
/// [`ListScheduleWorkspace::to_schedule`]).
/// Returns the makespan in cycles.
///
/// Once `ws` has been through a run of at least this size (or was
/// [`ListScheduleWorkspace::reserve`]d), this performs **zero heap
/// allocations** — every buffer is cleared and refilled in place (the
/// rank sort is `sort_unstable`, which is in-place; the event queue
/// recycles its slot arena through a free list).
///
/// # Panics
///
/// Panics if `n_procs == 0` or `keys.len() != graph.len()`.
pub fn list_schedule_into(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    n_procs: usize,
    keys: &[u64],
) -> u64 {
    assert!(n_procs > 0, "need at least one processor");
    assert_eq!(keys.len(), graph.len(), "one key per task");

    if lamps_obs::metrics_enabled() {
        lamps_obs::counter("sched.list_schedule.runs").inc();
        lamps_obs::counter("sched.list_schedule.tasks").add(graph.len() as u64);
    }
    let _span = lamps_obs::span("sched", "list_schedule");

    // Nothing done, every processor free at cycle 0: the roots are
    // ready, the processors form one idle segment (descending ids, so
    // the stack pops processor 0 first), and nothing arrives later.
    ws.begin(
        graph,
        n_procs,
        keys.iter().copied().zip(0..graph.len() as u32),
    );
    ws.missing_preds
        .extend(graph.tasks().map(|t| graph.in_degree(t) as u32));
    for t in graph.tasks() {
        if ws.missing_preds[t.index()] == 0 {
            ws.ready.insert(ws.rank_of[t.index()]);
        }
    }
    ws.idle_stack.extend((0..n_procs as u32).rev());
    ws.run(graph)
}

/// The setup of a partial run, behind
/// [`crate::partial::reschedule_remaining`] (which checks the slice
/// lengths): pending tasks count their pending predecessors, plus one
/// for a release queued at the latest finish of their done ones when
/// that is after cycle 0; processors free at 0 start idle, later ones
/// queue a wake-up, failed ones never appear. Returns the makespan of
/// the placed tasks (0 when none are pending).
pub(crate) fn reschedule_into(
    ws: &mut ListScheduleWorkspace,
    graph: &TaskGraph,
    done: &[bool],
    finish_done: &[u64],
    avail: &[ProcAvailability],
    keys: &[u64],
) -> u64 {
    let pending_keys = graph
        .tasks()
        .filter(|t| !done[t.index()])
        .map(|t| (keys[t.index()], t.0));
    ws.begin(graph, avail.len(), pending_keys);
    let pending = ws.rank_pairs.len();
    for t in graph.tasks() {
        let mut missing = 0u32;
        if done[t.index()] {
            for &p in graph.predecessors(t) {
                assert!(
                    done[p.index()],
                    "{t} is done but its predecessor {p} is pending"
                );
            }
        } else {
            let mut release = 0u64;
            for &p in graph.predecessors(t) {
                if done[p.index()] {
                    release = release.max(finish_done[p.index()]);
                } else {
                    missing += 1;
                }
            }
            if release > 0 {
                missing += 1;
                ws.events.push(release, Event::Release(t.0));
            }
            if missing == 0 {
                ws.ready.insert(ws.rank_of[t.index()]);
            }
        }
        ws.missing_preds.push(missing);
    }
    assert!(
        pending == 0
            || avail
                .iter()
                .any(|a| matches!(a, ProcAvailability::FreeAt(_))),
        "tasks pending but no processor survives"
    );
    for (p, a) in avail.iter().enumerate().rev() {
        match *a {
            ProcAvailability::FreeAt(0) => ws.idle_stack.push(p as u32),
            ProcAvailability::FreeAt(at) => ws.events.push(at, Event::Wake(p as u32)),
            ProcAvailability::Failed => {}
        }
    }
    ws.run(graph)
}

/// LS-EDF (§4): list scheduling with latest-finish-time keys derived from
/// a uniform application deadline.
/// # Example
///
/// ```
/// use lamps_sched::list::edf_schedule;
/// use lamps_taskgraph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// let a = b.add_task(4);
/// let c = b.add_task(6);
/// b.add_edge(a, c).unwrap();
/// let g = b.build().unwrap();
/// let s = edf_schedule(&g, 2, 20);
/// assert_eq!(s.makespan_cycles(), 10); // the chain serializes
/// s.validate(&g).unwrap();
/// ```
pub fn edf_schedule(graph: &TaskGraph, n_procs: usize, deadline_cycles: u64) -> Schedule {
    let lf = latest_finish_times(graph, deadline_cycles);
    list_schedule(graph, n_procs, &lf)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn fig4b_schedule_on_three_processors() {
        // Fig. 4b: EDF on 3 processors finishes the example in 10 units
        // (the critical path).
        let g = fig4a();
        let s = edf_schedule(&g, 3, 12);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 10);
    }

    #[test]
    fn fig7a_schedule_on_two_processors() {
        // Fig. 7a: the same graph on 2 processors still fits the
        // deadline window used by LAMPS — makespan 10: P1 = T1,T2,T5;
        // P2 = T3,T4.
        let g = fig4a();
        let s = edf_schedule(&g, 2, 12);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 10);
        assert_eq!(s.employed_procs(), 2);
    }

    #[test]
    fn single_processor_serializes() {
        let g = fig4a();
        let s = edf_schedule(&g, 1, 100);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), g.total_work_cycles());
        assert_eq!(s.employed_procs(), 1);
    }

    #[test]
    fn more_processors_than_tasks() {
        let g = fig4a();
        let s = edf_schedule(&g, 16, 100);
        s.validate(&g).unwrap();
        // Unbounded processors reach the critical path.
        assert_eq!(s.makespan_cycles(), g.critical_path_cycles());
        assert!(s.employed_procs() <= 3);
    }

    #[test]
    fn makespan_never_below_bounds() {
        let g = fig4a();
        for n in 1..=4 {
            let s = edf_schedule(&g, n, 50);
            let lb = g
                .critical_path_cycles()
                .max(g.total_work_cycles().div_ceil(n as u64));
            assert!(s.makespan_cycles() >= lb);
            // Work-conserving list scheduling respects Graham's bound.
            let ub = g.critical_path_cycles() + g.total_work_cycles().div_ceil(n as u64);
            assert!(s.makespan_cycles() <= ub);
        }
    }

    #[test]
    fn edf_prefers_urgent_tasks() {
        // Two independent tasks, one processor: the tighter deadline
        // must run first even though it has the higher id.
        let mut b = GraphBuilder::new();
        let a = b.add_task(10);
        let c = b.add_task(10);
        let g = {
            let _ = (a, c);
            b.build().unwrap()
        };
        let keys = vec![20, 10];
        let s = list_schedule(&g, 1, &keys);
        assert_eq!(s.start(TaskId(1)), 0);
        assert_eq!(s.start(TaskId(0)), 10);
    }

    #[test]
    fn zero_weight_chains_collapse() {
        // STG dummy nodes: entry(0) → a(4) → exit(0).
        let mut b = GraphBuilder::new();
        let e = b.add_task(0);
        let a = b.add_task(4);
        let x = b.add_task(0);
        b.add_edge(e, a).unwrap();
        b.add_edge(a, x).unwrap();
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 2, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 4);
        assert_eq!(s.start(TaskId(1)), 0);
        assert_eq!(s.start(TaskId(2)), 4);
    }

    #[test]
    fn all_zero_weight_graph() {
        let mut b = GraphBuilder::new();
        let a = b.add_task(0);
        let c = b.add_task(0);
        b.add_edge(a, c).unwrap();
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 2, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 0);
    }

    #[test]
    fn deterministic_output() {
        let g = fig4a();
        let a = edf_schedule(&g, 2, 12);
        let b = edf_schedule(&g, 2, 12);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        let g = fig4a();
        edf_schedule(&g, 0, 10);
    }

    #[test]
    fn wide_graph_saturates_processors() {
        // 8 independent unit tasks on 4 processors: makespan 2.
        let mut b = GraphBuilder::new();
        for _ in 0..8 {
            b.add_task(1);
        }
        let g = b.build().unwrap();
        let s = edf_schedule(&g, 4, 10);
        s.validate(&g).unwrap();
        assert_eq!(s.makespan_cycles(), 2);
        assert_eq!(s.employed_procs(), 4);
    }

    #[test]
    fn matches_heap_reference_on_examples() {
        // The indexed event structures replay the heap oracle's event
        // order exactly: with nothing done and every processor free at 0
        // it is the whole-graph schedule (the full corpus pin lives in
        // the integration tests; this is the in-crate smoke version).
        let g = fig4a();
        for n in 1..=6usize {
            let done = vec![false; g.len()];
            let finish_done = vec![0u64; g.len()];
            let avail = vec![ProcAvailability::FreeAt(0); n];
            for d in [12u64, 20, 50] {
                let keys = latest_finish_times(&g, d);
                let s = list_schedule(&g, n, &keys);
                let reference = crate::partial::reschedule_remaining_heap_reference(
                    &g,
                    &done,
                    &finish_done,
                    &avail,
                    &keys,
                );
                for t in g.tasks() {
                    assert_eq!(s.start(t), reference.start(t), "n={n} d={d} {t}");
                    assert_eq!(s.finish(t), reference.finish(t), "n={n} d={d} {t}");
                    assert_eq!(s.proc(t), reference.proc(t), "n={n} d={d} {t}");
                }
                for p in (0..n as u32).map(ProcId) {
                    assert_eq!(s.tasks_on(p), reference.tasks_on(p), "n={n} d={d} {p:?}");
                }
                assert_eq!(s.makespan_cycles(), reference.makespan_cycles());
            }
        }
    }

    #[test]
    fn unblocked_peak_bounds_the_plateau() {
        // The width-plateau contract: when a run never stalls a ready
        // task (`!was_blocked()`), the event sequence equals the
        // infinite-processor one, so every count at or above
        // `peak_procs_held()` must reproduce the same makespan.
        let graphs = {
            let mut gs = vec![fig4a()];
            let mut b = GraphBuilder::new();
            // Zero-weight fan-out feeding heavy tasks: exercises the
            // micro-round accounting where a zero-weight task holds a
            // processor slot for an instant.
            let root = b.add_task(0);
            for w in [5u64, 3, 0, 7] {
                let t = b.add_task(w);
                b.add_edge(root, t).unwrap();
            }
            gs.push(b.build().unwrap());
            gs
        };
        for (i, g) in graphs.iter().enumerate() {
            let mut ws = ListScheduleWorkspace::new();
            let keys = vec![0u64; g.len()];
            // |V| processors can never block.
            let top = list_schedule_into(&mut ws, g, g.len(), &keys);
            assert!(!ws.was_blocked(), "graph {i}: |V| procs cannot block");
            let width = ws.peak_procs_held().max(1);
            assert!(width <= g.len());
            for n in width..=g.len() {
                let ms = list_schedule_into(&mut ws, g, n, &keys);
                assert_eq!(ms, top, "graph {i}, n {n} is on the plateau");
            }
            // Below the width the run either blocks or (still) matches;
            // blocking is what voids the plateau guarantee.
            if width > 1 {
                let _ = list_schedule_into(&mut ws, g, width - 1, &keys);
            }
        }
    }
}
