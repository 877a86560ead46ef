//! Incremental suffix re-solving for online runtimes.
//!
//! When a task retires early (or a processor fail-stops) mid-run, the
//! finished prefix of the schedule is a fact; only the pending *suffix*
//! is worth re-solving. [`SuffixSolver::resolve`] re-list-schedules that
//! suffix over a sweep of candidate operating levels *incrementally*:
//! scratch arenas (done flags, completed-finish times, processor
//! availability, scaled per-task deadlines, the list scheduler's
//! workspace) are recycled across candidates and calls, every candidate
//! is scheduled into one caller-owned output schedule, and the EDF
//! priority keys for each `(level, horizon, own-deadline)` combination
//! are memoized, so a periodic stream that re-solves the same frame
//! shape every hyperperiod pays the `latest_finish_times` traversal once
//! instead of per re-solve.
//!
//! Correctness contract: the memoized path is **bitwise identical** to
//! [`resolve_suffix_fresh`], the from-scratch reference that recomputes
//! everything per call and schedules on the list scheduler's heap oracle
//! — a cache entry is only reused when the level bits, horizon bits, and
//! the full per-task deadline bit-pattern match exactly. The
//! differential fuzzer in `lamps-verify` holds the two paths equal on
//! every generated case, so it also holds the indexed list scheduler to
//! the heap oracle on every mid-frame state it generates.
//!
//! Level-sweep semantics (shared with `lamps-sim`'s fail-stop replan):
//! candidates are tried in the caller's order (ascending frequency by
//! convention), each one re-list-scheduled in its own cycle domain; the
//! first *feasible* candidate wins, otherwise the last one evaluated
//! (the fastest) is returned with `feasible = false`. A candidate is
//! feasible when its re-planned makespan meets the scalar horizon and —
//! when per-task deadlines are given — every pending task meets its own.

use lamps_power::OperatingPoint;
use lamps_sched::deadlines::{latest_finish_times_into, latest_finish_times_with_into};
use lamps_sched::list::ListScheduleWorkspace;
use lamps_sched::partial::{
    reschedule_remaining, reschedule_remaining_heap_reference, PartialSchedule, ProcAvailability,
};
use lamps_taskgraph::{TaskGraph, TaskId};

/// Relative tolerance on deadline comparisons, matching the solver's.
const DEADLINE_REL_EPS: f64 = 1e-9;

/// The runtime state a suffix re-solve starts from. All times are
/// seconds since an arbitrary caller-chosen origin (a frame start, say);
/// only differences and the horizon matter.
#[derive(Debug, Clone, Copy)]
pub struct SuffixContext<'a> {
    /// Tasks that already finished; must be predecessor-closed.
    pub finished: &'a [bool],
    /// Finish time per *finished* task \[s\] (other entries ignored).
    pub finish_s: &'a [f64],
    /// Per-processor in-flight task with its WCET-based finish estimate
    /// \[s\] — what a runtime can actually know; never a not-yet-observed
    /// overrun.
    pub running: &'a [Option<(TaskId, f64)>],
    /// Per-processor fail-stop flags; a dead processor takes no work.
    pub dead: &'a [bool],
    /// Current time \[s\].
    pub now_s: f64,
    /// Scalar horizon \[s\]: every pending task must finish by it.
    pub deadline_s: f64,
    /// Optional per-task deadlines \[s\]; `f64::INFINITY` entries mean
    /// "horizon only". Entries of finished/running tasks are inert
    /// (predecessor-closure keeps them out of pending keys).
    pub own_due_s: Option<&'a [f64]>,
}

/// What a [`SuffixSolver::resolve`] sweep chose; the placements it
/// chose them with are in the caller's [`PartialSchedule`].
#[derive(Debug, Clone, Copy)]
pub struct SuffixSweep {
    /// The chosen base operating level for the suffix.
    pub level: OperatingPoint,
    /// Whether the chosen level meets the horizon (and every per-task
    /// deadline, when given). `false` means best-effort: the fastest
    /// candidate evaluated, returned instead of stalling.
    pub feasible: bool,
    /// Candidate levels actually evaluated.
    pub steps: u64,
    /// `false` when a candidate cap stopped the sweep before either a
    /// feasible level or the end of the candidate list was reached.
    pub complete: bool,
}

/// What a from-scratch suffix re-solve ([`resolve_suffix_fresh`])
/// produced: the sweep's choice with an owned plan.
#[derive(Debug, Clone)]
pub struct SuffixPlan {
    /// The chosen base operating level for the suffix.
    pub level: OperatingPoint,
    /// Placements for the pending tasks, in cycles at `level.freq`.
    pub plan: PartialSchedule,
    /// Whether the chosen level meets the horizon (and every per-task
    /// deadline, when given). `false` means best-effort: the fastest
    /// candidate evaluated, returned instead of stalling.
    pub feasible: bool,
    /// Candidate levels actually evaluated.
    pub steps: u64,
    /// `false` when a candidate cap stopped the sweep before either a
    /// feasible level or the end of the candidate list was reached.
    pub complete: bool,
}

/// One memoized EDF key vector: valid only for an exact bit-match of
/// level frequency, horizon, and the per-task deadline pattern.
struct KeyEntry {
    freq_bits: u64,
    deadline_bits: u64,
    /// Bit snapshot of `own_due_s` at insertion (`None` = scalar case).
    own_bits: Option<Vec<u64>>,
    keys: Vec<u64>,
}

/// Evictions guard: past this many distinct `(level, horizon, own)`
/// combinations the cache is cleared rather than grown without bound.
const MAX_KEY_ENTRIES: usize = 64;

/// Reusable state for incremental suffix re-solves over one graph.
///
/// Holds the scratch arenas and the key memo. **Per-graph**: reusing a
/// solver across different graphs is a logic error (the memoized keys
/// would be silently wrong); `resolve` asserts the task count matches
/// the first graph it saw.
#[derive(Default)]
pub struct SuffixSolver {
    entries: Vec<KeyEntry>,
    n_tasks: Option<usize>,
    // Scratch arenas, cleared and refilled per candidate level.
    done: Vec<bool>,
    finish_done: Vec<u64>,
    avail: Vec<ProcAvailability>,
    own_scaled: Vec<Option<u64>>,
    ws: ListScheduleWorkspace,
    key_hits: u64,
    key_misses: u64,
    resolves: u64,
}

impl SuffixSolver {
    /// A fresh solver with empty arenas and an empty key memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Key-memo hits across all resolves so far.
    pub fn key_cache_hits(&self) -> u64 {
        self.key_hits
    }

    /// Key-memo misses (fresh `latest_finish_times` traversals).
    pub fn key_cache_misses(&self) -> u64 {
        self.key_misses
    }

    /// Resolve calls that produced a plan.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// Incrementally re-solve the pending suffix of `graph`, filling
    /// `plan` with the placements of the level the sweep returns.
    ///
    /// Every candidate is scheduled into `plan`, and only the last one
    /// evaluated is returned, so one caller-owned buffer serves every
    /// candidate and every call: a warm re-solve allocates nothing.
    ///
    /// Returns `None` when nothing is pending or no processor survives —
    /// the caller's wind-down paths, not errors — and then leaves `plan`
    /// as it was. `max_candidates` caps the level sweep (budget rung);
    /// `None` means sweep to the end.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the graph/processor count,
    /// or if the solver is reused across graphs of different sizes.
    pub fn resolve(
        &mut self,
        graph: &TaskGraph,
        ctx: &SuffixContext<'_>,
        candidates: &[OperatingPoint],
        max_candidates: Option<u64>,
        plan: &mut PartialSchedule,
    ) -> Option<SuffixSweep> {
        let n = graph.len();
        match self.n_tasks {
            Some(prev) => assert_eq!(prev, n, "SuffixSolver reused across graphs"),
            None => self.n_tasks = Some(n),
        }
        check_context(graph, ctx);
        pending_work(graph, ctx)?;

        let cap = max_candidates.unwrap_or(u64::MAX);
        let mut best: Option<(OperatingPoint, bool)> = None;
        let mut steps = 0u64;
        let mut complete = true;
        for lvl in candidates {
            if steps >= cap {
                complete = false;
                break;
            }
            steps += 1;
            let f = lvl.freq;
            fill_arenas(
                graph,
                ctx,
                f,
                &mut self.done,
                &mut self.finish_done,
                &mut self.avail,
            );
            let entry = self.keys_for(graph, ctx, f);
            reschedule_remaining(
                &mut self.ws,
                graph,
                &self.done,
                &self.finish_done,
                &self.avail,
                &self.entries[entry].keys,
                plan,
            );
            let feasible = plan_feasible(graph, ctx, &self.done, plan, f);
            best = Some((*lvl, feasible));
            if feasible {
                break;
            }
        }
        let (level, feasible) = best?;
        self.resolves += 1;
        lamps_obs::flight::record(
            lamps_obs::flight::CORE_SUFFIX_RESOLVE,
            self.resolves,
            steps,
            u64::from(feasible),
        );
        Some(SuffixSweep {
            level,
            feasible,
            steps,
            complete,
        })
    }

    /// Index of the memo entry for `(f, horizon, own)`, computing and
    /// inserting it on a miss. Reuse requires an exact bit-match; the
    /// per-task bits are compared in place, and snapshotted only on a
    /// miss, so a hit allocates nothing.
    fn keys_for(&mut self, graph: &TaskGraph, ctx: &SuffixContext<'_>, f: f64) -> usize {
        let freq_bits = f.to_bits();
        let deadline_bits = ctx.deadline_s.to_bits();
        let own_matches = |snapshot: &Option<Vec<u64>>| match (snapshot, ctx.own_due_s) {
            (None, None) => true,
            (Some(bits), Some(own)) => {
                bits.len() == own.len() && bits.iter().zip(own).all(|(&b, d)| b == d.to_bits())
            }
            _ => false,
        };
        if let Some(i) = self.entries.iter().position(|e| {
            e.freq_bits == freq_bits && e.deadline_bits == deadline_bits && own_matches(&e.own_bits)
        }) {
            self.key_hits += 1;
            // Move-to-back so the entry survives future lookups cheaply
            // and `resolve` can address it as a stable index.
            let e = self.entries.remove(i);
            self.entries.push(e);
            return self.entries.len() - 1;
        }
        self.key_misses += 1;
        if self.entries.len() >= MAX_KEY_ENTRIES {
            self.entries.clear();
        }
        let mut keys = Vec::new();
        compute_keys(graph, ctx, f, &mut self.own_scaled, &mut keys);
        self.entries.push(KeyEntry {
            freq_bits,
            deadline_bits,
            own_bits: ctx
                .own_due_s
                .map(|own| own.iter().map(|d| d.to_bits()).collect()),
            keys,
        });
        self.entries.len() - 1
    }
}

/// From-scratch reference for [`SuffixSolver::resolve`]: identical
/// semantics, no memo, fresh allocations per call, and every candidate
/// scheduled by the heap oracle
/// ([`reschedule_remaining_heap_reference`]) instead of the indexed list
/// scheduler. The differential fuzzer asserts the two are bitwise equal;
/// production code should use the solver.
pub fn resolve_suffix_fresh(
    graph: &TaskGraph,
    ctx: &SuffixContext<'_>,
    candidates: &[OperatingPoint],
    max_candidates: Option<u64>,
) -> Option<SuffixPlan> {
    check_context(graph, ctx);
    pending_work(graph, ctx)?;
    let cap = max_candidates.unwrap_or(u64::MAX);
    let mut best: Option<(OperatingPoint, PartialSchedule, bool)> = None;
    let mut steps = 0u64;
    let mut complete = true;
    for lvl in candidates {
        if steps >= cap {
            complete = false;
            break;
        }
        steps += 1;
        let f = lvl.freq;
        let (mut done, mut finish_done, mut avail) = (Vec::new(), Vec::new(), Vec::new());
        fill_arenas(graph, ctx, f, &mut done, &mut finish_done, &mut avail);
        let mut own_scaled = Vec::new();
        let mut keys = Vec::new();
        compute_keys(graph, ctx, f, &mut own_scaled, &mut keys);
        let ps = reschedule_remaining_heap_reference(graph, &done, &finish_done, &avail, &keys);
        let feasible = plan_feasible(graph, ctx, &done, &ps, f);
        best = Some((*lvl, ps, feasible));
        if feasible {
            break;
        }
    }
    let (level, plan, feasible) = best?;
    Some(SuffixPlan {
        level,
        plan,
        feasible,
        steps,
        complete,
    })
}

fn check_context(graph: &TaskGraph, ctx: &SuffixContext<'_>) {
    let n = graph.len();
    assert_eq!(ctx.finished.len(), n, "one finished flag per task");
    assert_eq!(ctx.finish_s.len(), n, "one finish time per task");
    assert_eq!(
        ctx.running.len(),
        ctx.dead.len(),
        "running and dead describe the same processors"
    );
    if let Some(own) = ctx.own_due_s {
        assert_eq!(own.len(), n, "one own deadline per task");
    }
}

/// `Some(())` when there is pending work and a surviving processor.
fn pending_work(graph: &TaskGraph, ctx: &SuffixContext<'_>) -> Option<()> {
    let mut all_done = true;
    for t in graph.tasks() {
        let i = t.index();
        if !ctx.finished[i] && !ctx.running.iter().flatten().any(|&(rt, _)| rt == t) {
            all_done = false;
            break;
        }
    }
    if all_done || ctx.dead.iter().all(|&d| d) {
        None
    } else {
        Some(())
    }
}

/// Fill the done/finish/availability arenas in the cycle domain of `f`.
/// Matches the fault ladder's replan: running tasks count as done with
/// their WCET-based estimates, survivors free up when their in-flight
/// work retires (or immediately), dead processors never do.
fn fill_arenas(
    graph: &TaskGraph,
    ctx: &SuffixContext<'_>,
    f: f64,
    done: &mut Vec<bool>,
    finish_done: &mut Vec<u64>,
    avail: &mut Vec<ProcAvailability>,
) {
    let n = graph.len();
    let to_cycles = |s: f64| -> u64 { (s * f).ceil().max(0.0) as u64 };
    done.clear();
    done.extend_from_slice(ctx.finished);
    finish_done.clear();
    finish_done.resize(n, 0);
    for t in graph.tasks() {
        if ctx.finished[t.index()] {
            finish_done[t.index()] = to_cycles(ctx.finish_s[t.index()]);
        }
    }
    avail.clear();
    avail.resize(ctx.dead.len(), ProcAvailability::Failed);
    for (p, is_dead) in ctx.dead.iter().enumerate() {
        if *is_dead {
            continue;
        }
        avail[p] = match ctx.running[p] {
            Some((t, est)) => {
                done[t.index()] = true;
                finish_done[t.index()] = to_cycles(est);
                ProcAvailability::FreeAt(to_cycles(est))
            }
            None => ProcAvailability::FreeAt(to_cycles(ctx.now_s)),
        };
    }
}

/// EDF keys for the suffix in the cycle domain of `f`: the scalar
/// horizon propagated by `latest_finish_times`, tightened per task when
/// `own_due_s` is given.
fn compute_keys(
    graph: &TaskGraph,
    ctx: &SuffixContext<'_>,
    f: f64,
    own_scaled: &mut Vec<Option<u64>>,
    keys: &mut Vec<u64>,
) {
    let horizon_cycles = (ctx.deadline_s * f).floor() as u64;
    match ctx.own_due_s {
        None => latest_finish_times_into(graph, horizon_cycles, keys),
        Some(own) => {
            own_scaled.clear();
            own_scaled.extend(own.iter().map(|&d| {
                if d.is_finite() {
                    Some((d * f).floor().max(0.0) as u64)
                } else {
                    None
                }
            }));
            latest_finish_times_with_into(graph, horizon_cycles, own_scaled, keys);
        }
    }
}

/// Feasibility of a re-planned suffix at frequency `f`: makespan within
/// the horizon, and every pending task within its own deadline.
fn plan_feasible(
    graph: &TaskGraph,
    ctx: &SuffixContext<'_>,
    done: &[bool],
    ps: &PartialSchedule,
    f: f64,
) -> bool {
    let makespan_s = ps.makespan_cycles() as f64 / f;
    if makespan_s > ctx.deadline_s * (1.0 + DEADLINE_REL_EPS) {
        return false;
    }
    if let Some(own) = ctx.own_due_s {
        for t in graph.tasks() {
            if done[t.index()] {
                continue;
            }
            let due = own[t.index()];
            if due.is_finite() && ps.finish(t) as f64 / f > due * (1.0 + DEADLINE_REL_EPS) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerConfig;
    use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
    use lamps_taskgraph::rng::Rng;
    use lamps_taskgraph::GraphBuilder;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::paper()
    }

    fn layered(seed: u64) -> TaskGraph {
        generate(
            &LayeredConfig {
                n_tasks: 24,
                n_layers: 5,
                ..LayeredConfig::default()
            },
            seed,
        )
        .scale_weights(3_100_000)
    }

    /// A predecessor-closed random "finished" prefix: mark a prefix of
    /// the topological order done with synthetic finish times.
    fn random_prefix(graph: &TaskGraph, frac: f64, seed: u64) -> (Vec<bool>, Vec<f64>) {
        let topo = graph.topo_order();
        let k = ((topo.len() as f64) * frac) as usize;
        let mut finished = vec![false; graph.len()];
        let mut finish_s = vec![0.0f64; graph.len()];
        let mut rng = Rng::seed_from_u64(seed);
        let mut t_acc = 0.0;
        for t in topo.into_iter().take(k) {
            finished[t.index()] = true;
            t_acc += rng.gen_range(1e-4f64..3e-3);
            finish_s[t.index()] = t_acc;
        }
        (finished, finish_s)
    }

    /// A solver sweep and the plan it filled match a fresh re-solve.
    fn assert_plans_bitwise_equal(
        (a, plan): (&SuffixSweep, &PartialSchedule),
        b: &SuffixPlan,
        what: &str,
    ) {
        assert_eq!(
            a.level.vdd.to_bits(),
            b.level.vdd.to_bits(),
            "{what}: level"
        );
        assert_eq!(a.feasible, b.feasible, "{what}: feasible");
        assert_eq!(a.steps, b.steps, "{what}: steps");
        assert_eq!(a.complete, b.complete, "{what}: complete");
        assert_eq!(*plan, b.plan, "{what}: plan");
    }

    #[test]
    fn memoized_matches_fresh_bitwise_across_random_suffixes() {
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        for seed in 0..12u64 {
            let g = layered(seed + 1);
            let (finished, finish_s) = random_prefix(&g, 0.3 + 0.05 * (seed % 5) as f64, seed);
            let n_procs = 3;
            let dead = vec![false, seed % 4 == 0, false];
            let running = vec![None; n_procs];
            let horizon = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
            let own: Vec<f64> = g
                .tasks()
                .map(|t| {
                    if t.index() % 3 == 0 {
                        horizon * 0.9
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            for own_case in [None, Some(own.as_slice())] {
                let ctx = SuffixContext {
                    finished: &finished,
                    finish_s: &finish_s,
                    running: &running,
                    dead: &dead,
                    now_s: 0.01,
                    deadline_s: horizon,
                    own_due_s: own_case,
                };
                let mut solver = SuffixSolver::new();
                // Twice through the memo, into two buffers: the second
                // call must hit.
                let (mut miss, mut hit) = (PartialSchedule::new(), PartialSchedule::new());
                let first = solver.resolve(&g, &ctx, &candidates, None, &mut miss);
                let second = solver.resolve(&g, &ctx, &candidates, None, &mut hit);
                let fresh = resolve_suffix_fresh(&g, &ctx, &candidates, None);
                match (first, second, fresh) {
                    (Some(a), Some(b), Some(c)) => {
                        assert_plans_bitwise_equal((&a, &miss), &c, "memo-miss vs fresh");
                        assert_plans_bitwise_equal((&b, &hit), &c, "memo-hit vs fresh");
                        assert!(solver.key_cache_hits() > 0, "second pass must hit the memo");
                    }
                    (None, None, None) => {}
                    other => panic!("solver/fresh disagree on emptiness: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn degenerate_suffix_is_the_whole_graph() {
        let g = layered(3);
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        let finished = vec![false; g.len()];
        let finish_s = vec![0.0; g.len()];
        let running = vec![None; 2];
        let dead = vec![false; 2];
        let horizon = 3.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let ctx = SuffixContext {
            finished: &finished,
            finish_s: &finish_s,
            running: &running,
            dead: &dead,
            now_s: 0.0,
            deadline_s: horizon,
            own_due_s: None,
        };
        let mut plan = PartialSchedule::new();
        let sweep = SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, None, &mut plan)
            .expect("everything pending");
        assert!(sweep.feasible, "generous horizon must be feasible");
        assert_eq!(plan.n_placed(), g.len());
        // A generous horizon stops the ascending sweep at a slow level.
        assert!(sweep.level.freq < cfg.levels.fastest().freq);
    }

    #[test]
    fn per_task_deadlines_force_a_faster_level() {
        // Two-task chain: scalar horizon is loose but the sink's own
        // deadline is tight, so the sweep must push past slow levels.
        let mut b = GraphBuilder::new();
        let a = b.add_task(31_000_000);
        let z = b.add_task(31_000_000);
        b.add_edge(a, z).unwrap();
        let g = b.build().unwrap();
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        let tight = 2.0 * 31_000_000.0 / cfg.max_frequency() * 1.05;
        let loose = tight * 4.0;
        let own = vec![f64::INFINITY, tight];
        let finished = vec![false; 2];
        let finish_s = vec![0.0; 2];
        let running = vec![None];
        let dead = vec![false];
        let scalar_ctx = SuffixContext {
            finished: &finished,
            finish_s: &finish_s,
            running: &running,
            dead: &dead,
            now_s: 0.0,
            deadline_s: loose,
            own_due_s: None,
        };
        let own_ctx = SuffixContext {
            own_due_s: Some(&own),
            ..scalar_ctx
        };
        let mut solver = SuffixSolver::new();
        let mut plan = PartialSchedule::new();
        let scalar = solver
            .resolve(&g, &scalar_ctx, &candidates, None, &mut plan)
            .unwrap();
        let pinned = solver
            .resolve(&g, &own_ctx, &candidates, None, &mut plan)
            .unwrap();
        assert!(pinned.feasible);
        assert!(
            pinned.level.freq > scalar.level.freq,
            "own deadline must force a faster level: {} vs {}",
            pinned.level.freq,
            scalar.level.freq
        );
        assert!(plan.finish(z) as f64 / pinned.level.freq <= tight * (1.0 + 1e-9));
    }

    #[test]
    fn candidate_cap_degrades_to_best_so_far() {
        let g = layered(9);
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        assert!(candidates.len() > 1);
        // An impossible horizon: no level is feasible, so an uncapped
        // sweep walks every candidate...
        let horizon = 1e-9;
        let finished = vec![false; g.len()];
        let finish_s = vec![0.0; g.len()];
        let running = vec![None; 2];
        let dead = vec![false; 2];
        let ctx = SuffixContext {
            finished: &finished,
            finish_s: &finish_s,
            running: &running,
            dead: &dead,
            now_s: 0.0,
            deadline_s: horizon,
            own_due_s: None,
        };
        let mut plan = PartialSchedule::new();
        let full = SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, None, &mut plan)
            .unwrap();
        assert!(!full.feasible);
        assert!(full.complete);
        assert_eq!(full.steps, candidates.len() as u64);
        // ...and a cap of 1 stops after the slowest, flagged incomplete.
        let capped = SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, Some(1), &mut plan)
            .unwrap();
        assert_eq!(capped.steps, 1);
        assert!(!capped.complete);
        assert!(!capped.feasible);
        let fresh = resolve_suffix_fresh(&g, &ctx, &candidates, Some(1)).unwrap();
        assert_plans_bitwise_equal((&capped, &plan), &fresh, "capped");
    }

    #[test]
    fn nothing_pending_or_no_survivor_returns_none() {
        let g = layered(5);
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        let all_done = vec![true; g.len()];
        let finish_s = vec![0.001; g.len()];
        let running = vec![None; 2];
        let dead = vec![false; 2];
        let ctx = SuffixContext {
            finished: &all_done,
            finish_s: &finish_s,
            running: &running,
            dead: &dead,
            now_s: 0.1,
            deadline_s: 1.0,
            own_due_s: None,
        };
        let mut plan = PartialSchedule::new();
        assert!(SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, None, &mut plan)
            .is_none());
        assert!(resolve_suffix_fresh(&g, &ctx, &candidates, None).is_none());

        let none_done = vec![false; g.len()];
        let all_dead = vec![true; 2];
        let ctx = SuffixContext {
            finished: &none_done,
            dead: &all_dead,
            ..ctx
        };
        assert!(SuffixSolver::new()
            .resolve(&g, &ctx, &candidates, None, &mut plan)
            .is_none());
        assert!(resolve_suffix_fresh(&g, &ctx, &candidates, None).is_none());
        // Neither wind-down path touches the caller's buffer.
        assert_eq!(plan, PartialSchedule::new());
    }

    #[test]
    #[should_panic(expected = "reused across graphs")]
    fn cross_graph_reuse_is_rejected() {
        let g1 = layered(1);
        let g2 = {
            let mut b = GraphBuilder::new();
            b.add_task(3_100_000);
            b.build().unwrap()
        };
        let cfg = cfg();
        let candidates: Vec<OperatingPoint> = cfg.levels.points().to_vec();
        let finished1 = vec![false; g1.len()];
        let finish1 = vec![0.0; g1.len()];
        let running = vec![None; 2];
        let dead = vec![false; 2];
        let ctx1 = SuffixContext {
            finished: &finished1,
            finish_s: &finish1,
            running: &running,
            dead: &dead,
            now_s: 0.0,
            deadline_s: 1.0,
            own_due_s: None,
        };
        let mut solver = SuffixSolver::new();
        let mut plan = PartialSchedule::new();
        let _ = solver.resolve(&g1, &ctx1, &candidates, None, &mut plan);
        let finished2 = vec![false; g2.len()];
        let finish2 = vec![0.0; g2.len()];
        let ctx2 = SuffixContext {
            finished: &finished2,
            finish_s: &finish2,
            ..ctx1
        };
        let _ = solver.resolve(&g2, &ctx2, &candidates, None, &mut plan);
    }
}
