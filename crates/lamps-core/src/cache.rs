//! Memoized LS-EDF schedules per processor count, and the two
//! processor-count searches of §4.2.
//!
//! Within one solve, every strategy schedules the same graph with the
//! same EDF keys, varying only the processor count — so schedules are
//! cached per count. Moreover, for any deadline at or above the critical
//! path the EDF keys only *shift* with the deadline (`lf[t] = D − bl(t) +
//! w(t)`, no saturation), so the schedules are identical across deadlines
//! — [`ScheduleCache::for_graph`] builds a canonical cache that a whole
//! deadline sweep can share. Each memoized schedule also carries a lazily
//! built [`IdleSummary`] so the level sweep bills it without re-walking
//! its tasks.
//!
//! On top of the cache:
//!
//! * [`ScheduleCache::max_useful_procs`] — scan `N = 1, 2, …` while the
//!   makespan keeps strictly decreasing; the last improving `N` is the
//!   count S&S employs ("as many processors as can be used to reduce the
//!   makespan") and the scan end is LAMPS's upper limit;
//! * [`ScheduleCache::min_feasible_procs`] — the paper's binary search on
//!   `[N_lwb, N_upb]` for the minimal count whose makespan meets the
//!   deadline at maximum frequency.

use lamps_sched::deadlines::{latest_finish_times, latest_finish_times_into};
use lamps_sched::list::{list_schedule_into, ListScheduleWorkspace};
use lamps_sched::{IdleSummary, Schedule};
use lamps_taskgraph::TaskGraph;
use std::sync::Arc;

/// The heap buffers of a retired [`ScheduleCache`], detached from its
/// graph so the next graph's cache can be built into them.
///
/// A batch worker churning through thousands of graphs creates one
/// cache per graph; round-tripping the buffers through
/// [`ScheduleCache::into_buffers`] → [`ScheduleCache::for_graph_recycled`]
/// keeps the list-scheduler workspace (the bulk of the memory) and the
/// memo spines warm across graphs instead of reallocating them per
/// graph. The buffers carry no semantic state — recycling starts every
/// cache cold (empty memo, zeroed stats), so solutions are identical to
/// ones from [`ScheduleCache::for_graph`].
#[derive(Debug, Default)]
pub struct CacheBuffers {
    keys: Vec<u64>,
    memo: Vec<Option<Arc<Schedule>>>,
    summaries: Vec<Option<IdleSummary>>,
    ws: ListScheduleWorkspace,
}

/// Hit/miss counters of a [`ScheduleCache`], monotone over its
/// lifetime.
///
/// A *schedule* lookup is any request that needs the LS schedule for a
/// processor count (including the one implied by a summary request); a
/// *summary* lookup is a request for the lazily built [`IdleSummary`].
/// A miss is the lookup that actually runs the list scheduler
/// (respectively builds the summary); every later lookup for the same
/// count is a hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Schedule lookups served from the memo.
    pub schedule_hits: u64,
    /// Schedule lookups that ran the list scheduler.
    pub schedule_misses: u64,
    /// Summary lookups served from the memo.
    pub summary_hits: u64,
    /// Summary lookups that built the summary.
    pub summary_misses: u64,
    /// Makespan probes answered from the width plateau — no schedule
    /// existed for the count and none was built (see
    /// [`ScheduleCache::makespan`]).
    pub plateau_hits: u64,
}

impl CacheStats {
    /// Fraction of schedule lookups served from the memo (0 when there
    /// were none).
    pub fn schedule_hit_rate(&self) -> f64 {
        let total = self.schedule_hits + self.schedule_misses;
        if total == 0 {
            0.0
        } else {
            self.schedule_hits as f64 / total as f64
        }
    }

    /// Component-wise difference `self - earlier` (for flushing deltas
    /// into a global metrics registry).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            schedule_hits: self.schedule_hits - earlier.schedule_hits,
            schedule_misses: self.schedule_misses - earlier.schedule_misses,
            summary_hits: self.summary_hits - earlier.summary_hits,
            summary_misses: self.summary_misses - earlier.summary_misses,
            plateau_hits: self.plateau_hits - earlier.plateau_hits,
        }
    }
}

/// Schedule memo for one (graph, EDF keys) pair, indexed by processor
/// count.
pub struct ScheduleCache<'g> {
    graph: &'g TaskGraph,
    keys: Vec<u64>,
    /// The graph's weights, built once per cache: every memoized
    /// schedule's duration column is a clone of this `Arc`.
    durations: Arc<[u64]>,
    memo: Vec<Option<Arc<Schedule>>>,
    summaries: Vec<Option<IdleSummary>>,
    ws: ListScheduleWorkspace,
    runs: usize,
    stats: CacheStats,
    /// `(width, makespan)` of an unblocked run: every processor count at
    /// or above `width` provably has this makespan (see
    /// [`ScheduleCache::makespan`]).
    plateau: Option<(usize, u64)>,
    shortcuts_enabled: bool,
    lb_off_by_one: bool,
}

impl<'g> ScheduleCache<'g> {
    /// Build a cache with EDF keys derived from `deadline_cycles`.
    pub fn new(graph: &'g TaskGraph, deadline_cycles: u64) -> Self {
        Self::with_keys(graph, latest_finish_times(graph, deadline_cycles))
    }

    /// Build a canonical cache valid for *every* deadline at or above
    /// the critical path.
    ///
    /// For `D ≥ CPL` the latest-finish keys are `lf[t] = D − bl(t) +
    /// w(t)` with no saturation, so changing the deadline shifts every
    /// key by the same constant — and list scheduling only compares
    /// keys, so the schedules are identical. A deadline sweep (the
    /// harness evaluates factors 1.5/2/4/8 × CPL over the same graph)
    /// can therefore share one cache instead of rescheduling per factor.
    pub fn for_graph(graph: &'g TaskGraph) -> Self {
        Self::new(graph, graph.critical_path_cycles())
    }

    /// [`Self::for_graph`], building into the recycled buffers of a
    /// retired cache (see [`CacheBuffers`]). Semantically identical to
    /// a fresh cache: the memo starts empty and the canonical keys are
    /// recomputed for `graph`.
    pub fn for_graph_recycled(graph: &'g TaskGraph, mut bufs: CacheBuffers) -> Self {
        latest_finish_times_into(graph, graph.critical_path_cycles(), &mut bufs.keys);
        bufs.memo.clear();
        bufs.summaries.clear();
        ScheduleCache {
            graph,
            keys: bufs.keys,
            durations: Arc::from(graph.weights()),
            memo: bufs.memo,
            summaries: bufs.summaries,
            ws: bufs.ws,
            runs: 0,
            stats: CacheStats::default(),
            plateau: None,
            shortcuts_enabled: true,
            lb_off_by_one: false,
        }
    }

    /// Retire this cache, returning its heap buffers for reuse by the
    /// next graph's [`Self::for_graph_recycled`].
    pub fn into_buffers(self) -> CacheBuffers {
        CacheBuffers {
            keys: self.keys,
            memo: self.memo,
            summaries: self.summaries,
            ws: self.ws,
        }
    }

    /// Build a cache with explicit priority keys (smaller = first).
    pub fn with_keys(graph: &'g TaskGraph, keys: Vec<u64>) -> Self {
        assert_eq!(keys.len(), graph.len());
        ScheduleCache {
            graph,
            keys,
            durations: Arc::from(graph.weights()),
            memo: Vec::new(),
            summaries: Vec::new(),
            ws: ListScheduleWorkspace::new(),
            runs: 0,
            stats: CacheStats::default(),
            plateau: None,
            shortcuts_enabled: true,
            lb_off_by_one: false,
        }
    }

    /// Disable the cache's scheduling shortcuts, making the reference
    /// path exhaustive. Exactly two shortcuts are controlled: the
    /// width-plateau makespan answer ([`Self::makespan`]) and the
    /// critical-path early stop in [`Self::max_useful_procs_with`].
    /// With the flag off, every probe is answered by a real
    /// list-scheduling run and every scan runs to its plain
    /// strict-decrease termination. The differential suite uses this to
    /// build the unpruned reference path; solutions must be bitwise
    /// identical either way. The solver reads the same flag: with it
    /// off, the search also ends no scan early — the reference engine
    /// of [`crate::solve_with_cache_unpruned`].
    pub fn set_shortcuts_enabled(&mut self, enabled: bool) {
        self.shortcuts_enabled = enabled;
    }

    /// Whether the shortcuts, and with them the solver's pruning, are on
    /// (see [`Self::set_shortcuts_enabled`]).
    pub fn shortcuts_enabled(&self) -> bool {
        self.shortcuts_enabled
    }

    /// Test-only mutation hook: seed the binary search of
    /// [`Self::min_feasible_procs_with`] with `LB(m)` computed as if for
    /// `m − 1` processors, the classic off-by-one that turns a sound
    /// lower bound into over-pruning. The verification gauntlet proves
    /// the differential suite catches it; never enable outside tests.
    #[doc(hidden)]
    pub fn mutate_lb_off_by_one_for_tests(&mut self) {
        self.lb_off_by_one = true;
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g TaskGraph {
        self.graph
    }

    fn ensure_schedule(&mut self, n: usize) {
        assert!(n >= 1, "need at least one processor");
        if self.memo.len() < n {
            self.memo.resize_with(n, || None);
        }
        if self.memo[n - 1].is_none() {
            list_schedule_into(&mut self.ws, self.graph, n, &self.keys);
            let s = self.ws.to_schedule(Arc::clone(&self.durations));
            // An unblocked run is the infinite-processor schedule: its
            // peak concurrency is the schedule width, and every count at
            // or above it replays the identical event sequence (see
            // `ListScheduleWorkspace::peak_procs_held`). Record the
            // narrowest width seen so `makespan` can answer probes on
            // the plateau without scheduling.
            if !self.ws.was_blocked() {
                let width = self.ws.peak_procs_held().max(1);
                let makespan = s.makespan_cycles();
                debug_assert!(self.plateau.is_none_or(|(_, m)| m == makespan));
                if self.plateau.is_none_or(|(w, _)| width < w) {
                    self.plateau = Some((width, makespan));
                }
            }
            self.memo[n - 1] = Some(Arc::new(s));
            self.runs += 1;
            self.stats.schedule_misses += 1;
        } else {
            self.stats.schedule_hits += 1;
        }
    }

    fn ensure_summary(&mut self, n: usize) {
        self.ensure_schedule(n);
        if self.summaries.len() < n {
            self.summaries.resize_with(n, || None);
        }
        if self.summaries[n - 1].is_none() {
            let s = self.memo[n - 1].as_ref().expect("just ensured");
            self.summaries[n - 1] = Some(IdleSummary::new(s));
            self.stats.summary_misses += 1;
        } else {
            self.stats.summary_hits += 1;
        }
    }

    /// The LS schedule on `n` processors (memoized).
    pub fn schedule(&mut self, n: usize) -> &Schedule {
        self.ensure_schedule(n);
        self.memo[n - 1].as_ref().expect("just ensured")
    }

    /// The LS schedule on `n` processors as a shared handle — the
    /// solver hands this to [`crate::Solution`] so constructing a
    /// solution is O(1) instead of a deep copy of four arrays.
    pub fn schedule_arc(&mut self, n: usize) -> Arc<Schedule> {
        self.ensure_schedule(n);
        Arc::clone(self.memo[n - 1].as_ref().expect("just ensured"))
    }

    /// The idle summary of the schedule on `n` processors (memoized) —
    /// the input to the one-pass level sweep.
    pub fn summary(&mut self, n: usize) -> &IdleSummary {
        self.ensure_summary(n);
        self.summaries[n - 1].as_ref().expect("just ensured")
    }

    /// Number of list-scheduling runs performed so far — the `T_ls`
    /// multiplier of the paper's §4.2 complexity formula
    /// `T_LAMPS = log₂(N_upb − N_lwb)·T_ls + M·T_ls`.
    pub fn list_scheduling_runs(&self) -> usize {
        self.runs
    }

    /// Hit/miss counters accumulated since the cache was built.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Makespan in cycles on `n` processors.
    ///
    /// Served from the memo when the schedule exists. Otherwise, if an
    /// earlier run established the schedule width `W` (a run that never
    /// made a ready task wait) and `n ≥ W`, the makespan equals that
    /// run's — the event sequence of a list-scheduling run is identical
    /// for every count on the plateau — and is returned **without**
    /// scheduling (counted in [`CacheStats::plateau_hits`]). Only a
    /// genuinely new count below the width runs the scheduler.
    pub fn makespan(&mut self, n: usize) -> u64 {
        assert!(n >= 1, "need at least one processor");
        if let Some(s) = self.memo.get(n - 1).and_then(Option::as_ref) {
            self.stats.schedule_hits += 1;
            return s.makespan_cycles();
        }
        if self.shortcuts_enabled {
            if let Some((width, makespan)) = self.plateau {
                if n >= width {
                    self.stats.plateau_hits += 1;
                    return makespan;
                }
            }
        }
        self.schedule(n).makespan_cycles()
    }

    /// Whether the schedule for `n` processors is already memoized
    /// (without computing it).
    pub fn is_cached(&self, n: usize) -> bool {
        n >= 1 && self.memo.get(n - 1).is_some_and(Option::is_some)
    }

    /// The processor count S&S employs: scan upward from 1 while the
    /// makespan strictly decreases (§4.1/§4.2); capped at the task count.
    pub fn max_useful_procs(&mut self) -> usize {
        self.max_useful_procs_with(&mut |_, _, _| {})
    }

    /// [`Self::max_useful_procs`], reporting each probed count to
    /// `probe(n, makespan_cycles, was_cached)` in probe order.
    pub fn max_useful_procs_with(&mut self, probe: &mut dyn FnMut(usize, u64, bool)) -> usize {
        let cap = self.graph.len().max(1);
        let mut best = 1usize;
        let cached = self.is_cached(1);
        let mut best_makespan = self.makespan(1);
        probe(1, best_makespan, cached);
        // Once the makespan reaches the critical path no further count
        // can strictly improve it (every makespan is ≥ CPL), so the
        // strict-decrease scan would stop at the next count anyway —
        // stop here and skip scheduling it. The exhaustive reference
        // (shortcuts disabled) keeps probing and terminates on the plain
        // strict-decrease rule instead.
        while best < cap
            && (best_makespan > self.graph.critical_path_cycles() || !self.shortcuts_enabled)
        {
            let n = best + 1;
            let cached = self.is_cached(n);
            let m = self.makespan(n);
            probe(n, m, cached);
            if m < best_makespan {
                best = n;
                best_makespan = m;
            } else {
                break;
            }
        }
        best
    }

    /// Minimal processor count whose makespan fits `deadline_cycles`
    /// (binary search on `[⌈work/D⌉, |V|]`, §4.2). `None` if even `|V|`
    /// processors miss the deadline.
    pub fn min_feasible_procs(&mut self, deadline_cycles: u64) -> Option<usize> {
        self.min_feasible_procs_with(deadline_cycles, &mut |c, n| {
            c.makespan(n) <= deadline_cycles
        })
    }

    /// The §4.2 binary search under any feasibility test: the minimal
    /// count in `[⌈work/bound_cycles⌉, |V|]` that `feasible(cache, n)`
    /// accepts, assuming acceptance is monotone in the count. `|V|` is
    /// probed first; `None` if it is rejected (or `bound_cycles` is 0).
    pub fn min_feasible_procs_with(
        &mut self,
        bound_cycles: u64,
        feasible: &mut dyn FnMut(&mut Self, usize) -> bool,
    ) -> Option<usize> {
        let n_upb = self.graph.len().max(1);
        let mut n_lwb = self.graph.min_processors_lower_bound(bound_cycles)?;
        if self.lb_off_by_one {
            // Deliberately wrong seed, reachable only through the test
            // hook: the smallest `n` with `LB(n − 1) ≤ bound`.
            n_lwb += 1;
        }
        if !feasible(self, n_upb) {
            return None;
        }
        let (mut lo, mut hi) = (n_lwb.min(n_upb), n_upb);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if feasible(self, mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    /// The cache's EDF keys (per-task solves: the latest finish times).
    pub(crate) fn keys(&self) -> &[u64] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    /// Fig. 4a again: CPL 10, work 18, max parallelism 3.
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
    fn schedules_are_memoized() {
        let g = fig4a();
        let mut c = ScheduleCache::new(&g, 20);
        let m1 = c.schedule_arc(2);
        let m2 = c.schedule_arc(2);
        assert_eq!(m1, m2);
        assert!(
            std::sync::Arc::ptr_eq(&m1, &m2),
            "memoized schedules are shared, not copied"
        );
        assert_eq!(c.list_scheduling_runs(), 1);
    }

    #[test]
    fn summaries_are_memoized_and_consistent() {
        let g = fig4a();
        let mut c = ScheduleCache::new(&g, 20);
        let direct = IdleSummary::new(&c.schedule_arc(2));
        assert_eq!(*c.summary(2), direct);
        let makespan = c.schedule(2).makespan_cycles();
        assert_eq!(c.summary(2).makespan_cycles(), makespan);
        assert_eq!(c.list_scheduling_runs(), 1);
    }

    #[test]
    fn canonical_cache_matches_any_deadline_at_or_above_cpl() {
        // The shift-invariance behind cross-deadline reuse: for D ≥ CPL
        // the schedules are independent of D.
        let g = fig4a();
        let mut canon = ScheduleCache::for_graph(&g);
        for d in [10u64, 12, 15, 20, 40, 80] {
            let mut c = ScheduleCache::new(&g, d);
            for n in 1..=4usize {
                assert_eq!(c.schedule(n), canon.schedule(n), "d {d}, n {n}");
            }
        }
    }

    #[test]
    fn max_useful_procs_for_fig4a() {
        // Makespans: 1 → 18, 2 → 10: two processors already reach the
        // CPL, so a third is not useful under the strict-decrease rule.
        let g = fig4a();
        let mut c = ScheduleCache::new(&g, 20);
        assert_eq!(c.makespan(1), 18);
        assert_eq!(c.makespan(2), 10);
        assert_eq!(c.max_useful_procs(), 2);
    }

    #[test]
    fn min_feasible_matches_linear_scan() {
        let g = fig4a();
        for deadline in [10u64, 11, 14, 18, 30] {
            let mut c = ScheduleCache::new(&g, deadline);
            let bin = c.min_feasible_procs(deadline);
            // Reference: smallest n in 1..=|V| with makespan ≤ deadline.
            let mut c2 = ScheduleCache::new(&g, deadline);
            let lin = (1..=g.len()).find(|&n| c2.makespan(n) <= deadline);
            assert_eq!(bin, lin, "deadline {deadline}");
        }
    }

    #[test]
    fn min_feasible_none_when_below_cpl() {
        let g = fig4a();
        let mut c = ScheduleCache::new(&g, 9);
        assert_eq!(c.min_feasible_procs(9), None);
    }

    #[test]
    fn min_feasible_one_for_loose_deadline() {
        let g = fig4a();
        let mut c = ScheduleCache::new(&g, 1000);
        assert_eq!(c.min_feasible_procs(1000), Some(1));
    }

    #[test]
    fn two_deadline_sweep_hit_counts_are_pinned() {
        // Satellite check for the cache-stats surface: a second solve at
        // a different deadline over the same canonical cache must be
        // served entirely from the memo (cross-deadline reuse), and the
        // exact hit/miss counts are pinned so a regression in the search
        // path or the memo keying shows up as a diff here.
        let g = fig4a();
        let cfg = crate::config::SchedulerConfig::paper();
        let mut c = ScheduleCache::for_graph(&g);
        let d = |factor: f64| factor * g.critical_path_cycles() as f64 / cfg.max_frequency();
        crate::solve::solve_with_cache(crate::types::Strategy::LampsPs, d(2.0), &cfg, &mut c)
            .unwrap();
        let first = c.stats();
        assert!(first.schedule_misses > 0, "first solve must schedule");
        assert_eq!(
            first.summary_hits, 0,
            "one summary per count on a cold cache"
        );
        crate::solve::solve_with_cache(crate::types::Strategy::LampsPs, d(4.0), &cfg, &mut c)
            .unwrap();
        let second = c.stats().since(&first);
        assert_eq!(
            second.schedule_misses, 0,
            "second deadline must not reschedule: {second:?}"
        );
        assert_eq!(second.summary_misses, 0, "summaries are reused too");
        // Pinned: the 2× solve probes {5 (upper bound), 2, 1 (binary),
        // then 1, 2 (linear scan, ending at the CPL)}. The upper-bound
        // run is unblocked, so it seeds the width plateau and the probe
        // at count 5 ≥ width is answered without scheduling (a plateau
        // hit); only the 3 distinct counts below the width are actually
        // scheduled. Sweeps on counts 1 and 2 take 2 summaries.
        assert_eq!(
            first,
            CacheStats {
                schedule_hits: 5,
                schedule_misses: 3,
                summary_hits: 0,
                summary_misses: 2,
                plateau_hits: 1,
            }
        );
        assert_eq!(
            second,
            CacheStats {
                schedule_hits: 8,
                schedule_misses: 0,
                summary_hits: 2,
                summary_misses: 0,
                plateau_hits: 1,
            }
        );
    }

    #[test]
    fn off_by_one_seed_over_prunes_the_search() {
        // Eight independent 10-cycle tasks under deadline 20: the sound
        // seed ⌈80/20⌉ = 4 is the true minimum. The gauntlet's off-by-one
        // mutation seeds the search as if LB were computed for n − 1
        // processors, starts at 5, and over-prunes to 5 — the divergence
        // the differential suite exists to catch.
        let mut b = GraphBuilder::new();
        for _ in 0..8 {
            b.add_task(10);
        }
        let g = b.build().unwrap();
        let mut c = ScheduleCache::new(&g, 20);
        assert_eq!(c.min_feasible_procs(20), Some(4));
        let mut m = ScheduleCache::new(&g, 20);
        m.mutate_lb_off_by_one_for_tests();
        assert_eq!(m.min_feasible_procs(20), Some(5));
    }

    #[test]
    fn plateau_makespans_match_real_scheduling() {
        // The width plateau answers makespan queries for n ≥ width
        // without running the list scheduler. Those answers must be
        // identical to what scheduling would produce, on every graph
        // shape and processor count.
        let graphs = {
            let mut gs = lamps_taskgraph::gen::layered::stg_group(40, 3, 7);
            gs.push(fig4a());
            gs
        };
        for (i, g) in graphs.iter().enumerate() {
            let mut with = ScheduleCache::for_graph(g);
            let mut without = ScheduleCache::for_graph(g);
            without.set_shortcuts_enabled(false);
            for n in 1..=g.len() {
                assert_eq!(with.makespan(n), without.makespan(n), "graph {i}, n {n}");
            }
            // Force-schedule every count on the plateau cache and
            // confirm the real schedules agree with the shortcut too.
            for n in 1..=g.len() {
                assert_eq!(with.schedule(n).makespan_cycles(), without.makespan(n));
            }
        }
    }

    #[test]
    fn plateau_shortcut_actually_fires() {
        // Querying top-down from n = |V| seeds the plateau on the first
        // (always unblocked) run; every later query at or above the
        // graph width must be a plateau hit, not a scheduling run.
        let g = fig4a();
        let mut c = ScheduleCache::for_graph(&g);
        let top = c.makespan(g.len());
        let mut hits = 0;
        for n in (1..=g.len()).rev().skip(1) {
            let ms = c.makespan(n);
            assert!(ms >= top);
            hits = c.stats().plateau_hits;
        }
        assert!(hits > 0, "expected at least one plateau hit on fig4a");
        assert_eq!(
            c.stats().schedule_misses as usize + c.stats().plateau_hits as usize,
            g.len(),
            "every count is answered exactly once, by schedule or plateau"
        );
    }

    #[test]
    fn lower_bound_is_sound_and_tight_on_fig4a() {
        // The binary search's seed ⌈W/D⌉ never exceeds the smallest
        // feasible count, and for fig4a it is exact at D = 18 (one
        // processor, work-bound) and D = 10 (two, CPL-bound).
        let g = fig4a();
        let mut c = ScheduleCache::for_graph(&g);
        for d in 10..=40u64 {
            let seed = g.min_processors_lower_bound(d).unwrap();
            let min = (1..=g.len()).find(|&n| c.makespan(n) <= d).unwrap();
            assert!(seed <= min, "deadline {d}: seed {seed} > {min}");
        }
        assert_eq!(g.min_processors_lower_bound(18), Some(1));
        assert_eq!(g.min_processors_lower_bound(10), Some(2));
        assert_eq!(c.makespan(1), 18);
        assert_eq!(c.makespan(2), 10);
    }

    #[test]
    fn lb_probe_skip_preserves_min_feasible() {
        // The binary search may skip probes whose lower bound already
        // exceeds the deadline; the returned count must not change.
        let graphs = lamps_taskgraph::gen::layered::stg_group(60, 2, 11);
        for (i, g) in graphs.iter().enumerate() {
            let cpl = g.critical_path_cycles();
            for d in [cpl, cpl + cpl / 2, 2 * cpl, 4 * cpl] {
                let mut pruned = ScheduleCache::new(g, d);
                let mut plain = ScheduleCache::new(g, d);
                plain.set_shortcuts_enabled(false);
                assert_eq!(
                    pruned.min_feasible_procs(d),
                    plain.min_feasible_procs(d),
                    "graph {i}, deadline {d}"
                );
            }
        }
    }

    #[test]
    fn run_count_matches_paper_complexity_formula() {
        // §4.2: T_LAMPS = log₂(N_upb − N_lwb)·T_ls + M·T_ls. Verify the
        // number of list-scheduling runs a LAMPS-style search performs
        // stays within that budget on a larger random graph.
        let g = lamps_taskgraph::gen::layered::stg_group(200, 1, 5).remove(0);
        let deadline = 2 * g.critical_path_cycles();
        let mut c = ScheduleCache::new(&g, deadline);
        let n_min = c.min_feasible_procs(deadline).expect("feasible");
        let binary_runs = c.list_scheduling_runs();
        let log_bound = (g.len() as f64).log2().ceil() as usize + 2;
        assert!(
            binary_runs <= log_bound,
            "binary search used {binary_runs} runs (bound {log_bound})"
        );
        // Second phase: linear scan while the makespan decreases.
        let mut m = 0usize;
        let mut prev = None;
        for n in n_min..=g.len() {
            let ms = c.makespan(n);
            if let Some(p) = prev {
                if ms >= p {
                    break;
                }
            }
            prev = Some(ms);
            m += 1;
        }
        let total = c.list_scheduling_runs();
        assert!(
            total <= log_bound + m + 1,
            "total {total} runs exceeds log + M = {} + {m}",
            log_bound
        );
    }
}
