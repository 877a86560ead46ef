//! The frame executor: the one event loop behind [`crate::simulate`],
//! [`crate::run_with_faults`] and [`crate::run_online`].
//!
//! [`run_frame`] executes one frame of a static plan, all times relative
//! to the frame start. Each event step runs the same rungs in order:
//!
//! 1. **retire** every running task whose finish has arrived, billing its
//!    executed cycles at the level it ran at;
//! 2. **reclaim** (when enabled and the budget allows): an early
//!    completion re-solves the pending suffix over every level from the
//!    reclamation floor up and adopts a feasible plan;
//! 3. **fail-stop**: once its time comes, the victim's running task is
//!    billed as a partial execution and the pending suffix is re-planned
//!    on the survivors — a correctness rung that ignores the budget;
//! 4. **dispatch** every ready queue head at the level of the
//!    stretch/boost rung, paying the switch cost on a level change;
//! 5. **advance** to the next finish or the pending fail-stop.
//!
//! The callers are configurations: the fault runner is one frame whose
//! dues all equal its deadline with reclamation off; the online runtime
//! is one call per admitted frame; the plain simulator is the fault
//! runner without faults ([`crate::Policy::SlackReclaim`] is boost with
//! reclamation on and a zero re-solve budget, so it stretches windows
//! but never re-solves). Idle gaps are billed afterwards by
//! [`bill_idle`], once the caller knows where the frame's window ends.

use crate::faults::{DvsFaultKind, FailStop, FaultPlan, InjectedEvent};
use crate::recovery::{
    sort_lateness, ExecRecord, FaultyRunReport, RecoveryAction, RecoveryPolicy, RunOutcome,
    TaskLateness,
};
use crate::runner::DvsSwitchCost;
use lamps_core::suffix::{SuffixContext, SuffixSolver, SuffixSweep};
use lamps_core::{SchedulerConfig, SolveBudget};
use lamps_energy::EnergyBreakdown;
use lamps_obs::flight;
use lamps_power::OperatingPoint;
use lamps_sched::partial::PartialSchedule;
use lamps_sched::{ProcId, Schedule};
use lamps_taskgraph::{TaskGraph, TaskId};
use std::collections::VecDeque;
use std::time::Instant;

/// Relative tolerance on deadline and finish comparisons, matching the
/// solver's.
const REL_EPS: f64 = 1e-9;

/// One frame to execute: the static plan, the frame's inputs, and the
/// runtime's rules.
pub(crate) struct Frame<'a> {
    pub graph: &'a TaskGraph,
    pub schedule: &'a Schedule,
    pub plan_level: OperatingPoint,
    pub n_procs: usize,
    /// Cycles each task executes: its actual (≤ WCET), or its overrun
    /// (see [`FaultPlan::effective_cycles`]).
    pub cycles: &'a [u64],
    /// Faults, times relative to the frame start.
    pub faults: &'a FaultPlan,
    /// Due time per task, frame-relative \[s\].
    pub due_s: &'a [f64],
    /// Whether suffix re-solves must meet every task's own due time, or
    /// only the horizon.
    pub own_due: bool,
    /// Horizon every suffix re-plan must meet, frame-relative \[s\].
    pub horizon_s: f64,
    pub policy: RecoveryPolicy,
    pub reclaim: bool,
    /// Meter for reclamation re-solves.
    pub budget: &'a SolveBudget,
    pub switch: &'a DvsSwitchCost,
    /// Flight-recorder correlation key: the frame index.
    pub key: u64,
}

/// What one frame did: its trace, with active and switch energy only
/// (idle gaps are billed by [`bill_idle`] once the caller knows where the
/// frame's window ends), and the reclamation counters.
pub(crate) struct FrameRun {
    pub trace: FaultyRunReport,
    pub resolves: u64,
    pub resolve_steps: u64,
    pub stretched: usize,
    pub degraded: bool,
}

struct InFlight {
    /// The record the task retires with.
    rec: ExecRecord,
    level: OperatingPoint,
    /// The runtime's WCET-based finish estimate (it cannot see an
    /// overrun in advance) — what re-planning believes.
    expected_finish_s: f64,
}

struct ProcState {
    queue: VecDeque<TaskId>,
    running: Option<InFlight>,
    current: OperatingPoint,
    dead: bool,
    stuck: bool,
    extra_latency_s: f64,
}

/// What an executor keeps across frames and re-solves: the suffix
/// solver, with its arenas and key memo, and the buffers every re-solve
/// refills, the plan it fills among them, so a warm re-solve allocates
/// nothing.
#[derive(Default)]
pub(crate) struct Resolver {
    pub solver: SuffixSolver,
    /// The latest re-solve's placements.
    plan: PartialSchedule,
    /// Per processor, its in-flight task and WCET-based finish estimate.
    running: Vec<Option<(TaskId, f64)>>,
    /// Per processor, whether it has fail-stopped.
    dead: Vec<bool>,
    /// The levels the re-solve sweeps, in order.
    candidates: Vec<OperatingPoint>,
}

/// Whether the reclamation budget still allows a re-solve; flags the
/// frame degraded when it does not.
fn budget_open(budget: &SolveBudget, steps_left: Option<u64>, degraded: &mut bool) -> bool {
    let spent = steps_left == Some(0)
        || budget.token.as_ref().is_some_and(|t| t.is_cancelled())
        || budget.deadline.is_some_and(|d| Instant::now() >= d);
    if spent {
        *degraded = true;
    }
    !spent
}

/// Execute one frame. See the module docs for the rungs.
pub(crate) fn run_frame(
    fr: &Frame<'_>,
    cfg: &SchedulerConfig,
    resolver: &mut Resolver,
) -> FrameRun {
    let graph = fr.graph;
    let n = graph.len();
    let plan_level = fr.plan_level;

    let mut procs: Vec<ProcState> = (0..fr.n_procs)
        .map(|p| {
            let pid = ProcId(p as u32);
            ProcState {
                queue: fr.schedule.tasks_on(pid).iter().copied().collect(),
                running: None,
                current: plan_level,
                dead: false,
                stuck: false,
                extra_latency_s: 0.0,
            }
        })
        .collect();
    // Validated faults name each processor at most once, so one pass
    // reads them all.
    for d in &fr.faults.dvs {
        let ps = &mut procs[d.proc.index()];
        match d.kind {
            DvsFaultKind::StuckAtLevel => ps.stuck = true,
            DvsFaultKind::ExtraLatency { extra_s } => ps.extra_latency_s = extra_s,
        }
    }

    // The reclamation floor: the slowest level stretching may reach.
    // The discrete critical level bounds it from below (§3.3 — slower
    // than critical costs *more* energy per cycle); a plan already at
    // or below critical is never undercut.
    let reclaim_floor = if cfg.levels.critical().freq < plan_level.freq {
        *cfg.levels.critical()
    } else {
        plan_level
    };

    let mut finished = vec![false; n];
    let mut finish_s = vec![0.0f64; n];
    let mut records: Vec<Option<ExecRecord>> = vec![None; n];
    let mut aborted: Vec<ExecRecord> = Vec::new();
    let mut injected: Vec<InjectedEvent> = Vec::new();
    let mut recoveries: Vec<RecoveryAction> = Vec::new();
    let mut energy = EnergyBreakdown::default();
    let mut dvs_switches = 0usize;
    let mut base_level = plan_level;
    // Per-task window end for the stretch/boost rung: the statically
    // planned finish, replaced by the re-planned finish on adoption.
    let mut target_finish_s: Vec<f64> = graph
        .tasks()
        .map(|t| fr.schedule.finish(t) as f64 / plan_level.freq)
        .collect();

    let mut steps_left = fr.budget.max_steps;
    let mut resolves = 0u64;
    let mut resolve_steps = 0u64;
    let mut stretched = 0usize;
    let mut degraded = false;

    let mut fail_pending = fr.faults.fail_stop;
    let mut now = 0.0f64;
    let mut n_finished = 0usize;

    loop {
        // Retire due completions; an early one may trigger reclamation.
        let mut reclaim_due = false;
        for ps in procs.iter_mut() {
            if !matches!(&ps.running, Some(rf) if rf.rec.finish_s <= now) {
                continue;
            }
            let rf = ps.running.take().expect("checked running");
            let t = rf.rec.task.index();
            finished[t] = true;
            finish_s[t] = rf.rec.finish_s;
            n_finished += 1;
            energy.active_j += rf.rec.cycles as f64 * rf.level.energy_per_cycle;
            records[t] = Some(rf.rec);
            if rf.rec.finish_s < rf.expected_finish_s * (1.0 - REL_EPS) {
                reclaim_due = true;
            }
        }

        // Reclaim rung: an early completion re-solves the pending suffix
        // over every level from the floor up (below the critical level
        // energy per cycle *rises*, §3.3), adopted only when feasible —
        // the dispatch rung already defends windows otherwise.
        if reclaim_due
            && fr.reclaim
            && n_finished < n
            && budget_open(fr.budget, steps_left, &mut degraded)
        {
            let state = (&procs[..], &finished[..], &finish_s[..]);
            let candidates = cfg.levels.at_least(reclaim_floor.freq).copied();
            if let Some(sp) = resolver.resolve(fr, state, now, candidates, steps_left) {
                resolves += 1;
                resolve_steps += sp.steps;
                flight::record(
                    flight::ONLINE_RECLAIM,
                    fr.key,
                    sp.steps,
                    u64::from(sp.feasible),
                );
                if let Some(left) = steps_left.as_mut() {
                    *left = left.saturating_sub(sp.steps);
                }
                if !sp.complete {
                    degraded = true;
                }
                if sp.feasible {
                    adopt_plan(&resolver.plan, sp.level, &mut procs, &mut target_finish_s);
                    base_level = sp.level;
                }
            }
        }

        // Fail-stop rung: bill the victim's partial execution (fail-stop
        // loses state, the task re-runs from scratch elsewhere) and
        // re-plan the pending suffix on the survivors. Under Boost the
        // re-plan also picks the lowest base level that still fits.
        if let Some(fs) = fail_pending.filter(|fs| fs.at_s <= now) {
            fail_pending = None;
            injected.push(InjectedEvent::ProcFailed {
                proc: fs.proc,
                at_s: fs.at_s,
            });
            let fp = fs.proc.index();
            procs[fp].dead = true;
            if let Some(rf) = procs[fp].running.take() {
                let ran_s = (fs.at_s - rf.rec.start_s).max(0.0);
                let cycles = ((ran_s * rf.level.freq).floor() as u64).min(rf.rec.cycles);
                energy.active_j += cycles as f64 * rf.level.energy_per_cycle;
                aborted.push(ExecRecord {
                    finish_s: fs.at_s,
                    cycles,
                    ..rf.rec
                });
            }

            let mut absorb = std::iter::once(base_level);
            let mut boost = cfg.levels.at_least(base_level.freq).copied();
            let candidates: &mut dyn Iterator<Item = OperatingPoint> = match fr.policy {
                RecoveryPolicy::Absorb => &mut absorb,
                RecoveryPolicy::Boost => &mut boost,
            };
            let state = (&procs[..], &finished[..], &finish_s[..]);
            if let Some(sp) = resolver.resolve(fr, state, now, candidates, None) {
                resolves += 1;
                resolve_steps += sp.steps;
                flight::record(
                    flight::ONLINE_RESOLVE,
                    fr.key,
                    sp.steps,
                    u64::from(sp.feasible),
                );
                // Re-placed tasks whose processor differs from the plan's.
                let migrated = (0..fr.n_procs)
                    .map(|p| {
                        let pid = ProcId(p as u32);
                        let queue = resolver.plan.tasks_on(pid);
                        queue
                            .iter()
                            .filter(|&&t| fr.schedule.proc(t) != pid)
                            .count()
                    })
                    .sum();
                flight::record(flight::ONLINE_FAULT, fr.key, 0, migrated as u64);
                adopt_plan(&resolver.plan, sp.level, &mut procs, &mut target_finish_s);
                recoveries.push(RecoveryAction::Rescheduled {
                    failed_proc: fs.proc,
                    at_s: fs.at_s,
                    migrated,
                });
                if (sp.level.vdd - base_level.vdd).abs() > 1e-12 {
                    flight::record(flight::ONLINE_FAULT, fr.key, 1, fp as u64);
                    recoveries.push(RecoveryAction::BaseLevelRaised {
                        from_vdd: base_level.vdd,
                        to_vdd: sp.level.vdd,
                    });
                    base_level = sp.level;
                }
            } else {
                // No survivor (or nothing pending): strand the dead
                // processor's queue; the loop below winds down.
                procs[fp].queue.clear();
            }
        }

        // Dispatch ready queue heads, repeating because zero-weight
        // tasks retire instantly.
        let mut progress = true;
        while progress {
            progress = false;
            for (pi, ps) in procs.iter_mut().enumerate() {
                if ps.dead || ps.running.is_some() {
                    continue;
                }
                let Some(&t) = ps.queue.front() else {
                    continue;
                };
                if graph.predecessors(t).iter().any(|&q| !finished[q.index()]) {
                    continue;
                }
                ps.queue.pop_front();
                progress = true;
                let w = graph.weight(t);
                if w == 0 {
                    finished[t.index()] = true;
                    finish_s[t.index()] = now;
                    n_finished += 1;
                    records[t.index()] = Some(ExecRecord {
                        task: t,
                        proc: ProcId(pi as u32),
                        start_s: now,
                        finish_s: now,
                        vdd: ps.current.vdd,
                        cycles: 0,
                    });
                    continue;
                }

                // The stretch/boost rung: fit the window to the planned
                // finish. Reclamation may drop below the base level;
                // Boost may rise above it; Absorb without reclamation
                // never leaves it.
                let level = if fr.policy == RecoveryPolicy::Absorb && !fr.reclaim {
                    base_level
                } else {
                    let window = target_finish_s[t.index()] - now;
                    let floor = if fr.reclaim && reclaim_floor.freq < base_level.freq {
                        reclaim_floor
                    } else {
                        base_level
                    };
                    let pick = |window: f64| -> OperatingPoint {
                        if window <= 0.0 {
                            return if fr.policy == RecoveryPolicy::Boost {
                                *cfg.levels.fastest()
                            } else {
                                base_level
                            };
                        }
                        // Shave one part in 10⁹ off the requirement: with
                        // zero gained slack, `w / (w / f_plan)` can round
                        // one ulp above the plan frequency and spuriously
                        // bump the level.
                        let required = w as f64 / window * (1.0 - REL_EPS);
                        let c = cfg
                            .levels
                            .lowest_at_least(required)
                            .copied()
                            .unwrap_or_else(|| *cfg.levels.fastest());
                        let c = if c.freq < floor.freq { floor } else { c };
                        if fr.policy != RecoveryPolicy::Boost && c.freq > base_level.freq {
                            base_level
                        } else {
                            c
                        }
                    };
                    let wants = pick(window);
                    // A level change costs settle time; re-check the
                    // shrunk window, but never *below* the latency-free
                    // choice (avoids flip-flopping on zero slack).
                    if (wants.vdd - ps.current.vdd).abs() > 1e-12 {
                        let shrunk = pick(window - fr.switch.latency_s - ps.extra_latency_s);
                        let chosen = if shrunk.freq > wants.freq {
                            shrunk
                        } else {
                            wants
                        };
                        // Speeding up only to pay for the settle time
                        // defeats itself: keep the current level while it
                        // still fits the window without a switch.
                        let current_fits =
                            window > 0.0 && w as f64 / window * (1.0 - REL_EPS) <= ps.current.freq;
                        if chosen.freq > ps.current.freq
                            && ps.current.freq >= floor.freq
                            && current_fits
                        {
                            ps.current
                        } else {
                            chosen
                        }
                    } else {
                        wants
                    }
                };
                // A stuck regulator ignores the request.
                let level = if (level.vdd - ps.current.vdd).abs() > 1e-12 && ps.stuck {
                    injected.push(InjectedEvent::DvsStuck {
                        proc: ProcId(pi as u32),
                        requested_vdd: level.vdd,
                    });
                    ps.current
                } else {
                    level
                };
                if level.freq > base_level.freq + 1e-6 {
                    flight::record(flight::ONLINE_FAULT, fr.key, 2, t.index() as u64);
                    recoveries.push(RecoveryAction::TaskBoosted {
                        task: t,
                        from_vdd: base_level.vdd,
                        to_vdd: level.vdd,
                    });
                }
                if level.freq < plan_level.freq - 1e-6 {
                    stretched += 1;
                }

                let mut exec_start = now;
                if (level.vdd - ps.current.vdd).abs() > 1e-12 {
                    dvs_switches += 1;
                    energy.transition_j += fr.switch.energy_j;
                    let mut lat = fr.switch.latency_s;
                    if ps.extra_latency_s > 0.0 {
                        lat += ps.extra_latency_s;
                        injected.push(InjectedEvent::DvsDelayed {
                            proc: ProcId(pi as u32),
                            extra_s: ps.extra_latency_s,
                        });
                    }
                    exec_start += lat;
                    ps.current = level;
                }
                let cycles = fr.cycles[t.index()];
                if cycles > w {
                    injected.push(InjectedEvent::Overrun {
                        task: t,
                        factor: fr
                            .faults
                            .overruns
                            .iter()
                            .find(|o| o.task == t)
                            .map_or(1.0, |o| o.factor),
                        cycles,
                    });
                }
                ps.running = Some(InFlight {
                    rec: ExecRecord {
                        task: t,
                        proc: ProcId(pi as u32),
                        start_s: exec_start,
                        finish_s: exec_start + cycles as f64 / level.freq,
                        vdd: level.vdd,
                        cycles,
                    },
                    level,
                    expected_finish_s: exec_start + w as f64 / level.freq,
                });
            }
        }

        if n_finished == n {
            break;
        }

        // Advance to the next event: a finish or the pending fail-stop.
        let mut next = f64::INFINITY;
        for p in &procs {
            if let Some(rf) = &p.running {
                next = next.min(rf.rec.finish_s);
            }
        }
        if let Some(fs) = fail_pending {
            if next.is_finite() {
                next = next.min(fs.at_s.max(now));
            }
        }
        if !next.is_finite() {
            // Nothing can ever run again (no surviving processor with
            // dispatchable work): wind down with unfinished tasks.
            break;
        }
        now = next;
    }

    let makespan_s = records
        .iter()
        .flatten()
        .map(|r| r.finish_s)
        .fold(0.0f64, f64::max);

    // A task is late past `due + |due| · REL_EPS`; the trace checkers in
    // lamps-verify use the same form.
    let mut lateness = Vec::new();
    for t in graph.tasks() {
        let due = fr.due_s[t.index()];
        match &records[t.index()] {
            Some(r) if r.finish_s > due + due.abs() * REL_EPS => lateness.push(TaskLateness {
                task: t,
                lateness_s: r.finish_s - due,
            }),
            None => lateness.push(TaskLateness {
                task: t,
                lateness_s: f64::INFINITY,
            }),
            _ => {}
        }
    }
    let outcome = if lateness.is_empty() {
        RunOutcome::MetDeadline
    } else {
        sort_lateness(&mut lateness);
        // A structured miss is post-mortem material: journal it, then
        // (if a dump path is configured) flush the flight buffer so the
        // evidence survives even if the process dies right after.
        flight::record(flight::ONLINE_MISS, fr.key, lateness.len() as u64, 0);
        flight::last_gasp("deadline-miss");
        RunOutcome::DeadlineMiss { lateness }
    };

    FrameRun {
        trace: FaultyRunReport {
            energy,
            makespan_s,
            outcome,
            injected,
            recoveries,
            tasks: records,
            aborted,
            dvs_switches,
        },
        resolves,
        resolve_steps,
        stretched,
        degraded,
    }
}

impl Resolver {
    /// Re-solve the pending suffix from what the runtime knows at
    /// `now`: the finished prefix, WCET-based finish estimates for
    /// in-flight tasks (never a not-yet-observed overrun), and the dead
    /// processors. The placements land in `self.plan`.
    fn resolve(
        &mut self,
        fr: &Frame<'_>,
        (procs, finished, finish_s): (&[ProcState], &[bool], &[f64]),
        now: f64,
        candidates: impl Iterator<Item = OperatingPoint>,
        max_candidates: Option<u64>,
    ) -> Option<SuffixSweep> {
        self.candidates.clear();
        self.candidates.extend(candidates);
        self.running.clear();
        self.running.extend(procs.iter().map(|p| {
            p.running
                .as_ref()
                .map(|rf| (rf.rec.task, rf.expected_finish_s.max(now)))
        }));
        self.dead.clear();
        self.dead.extend(procs.iter().map(|p| p.dead));
        let ctx = SuffixContext {
            finished,
            finish_s,
            running: &self.running,
            dead: &self.dead,
            now_s: now,
            deadline_s: fr.horizon_s,
            own_due_s: fr.own_due.then_some(fr.due_s),
        };
        self.solver.resolve(
            fr.graph,
            &ctx,
            &self.candidates,
            max_candidates,
            &mut self.plan,
        )
    }
}

/// Install a suffix re-plan: replace every queue and the window ends of
/// the re-placed (pending, not in-flight) tasks.
fn adopt_plan(
    plan: &PartialSchedule,
    level: OperatingPoint,
    procs: &mut [ProcState],
    target_finish_s: &mut [f64],
) {
    for (p, ps) in procs.iter_mut().enumerate() {
        ps.queue.clear();
        for &t in plan.tasks_on(ProcId(p as u32)) {
            ps.queue.push_back(t);
            target_finish_s[t.index()] = plan.finish(t) as f64 / level.freq;
        }
    }
}

/// Bill the idle gaps of one frame's window `[start_s, end_s)`: per
/// employed processor at the plan level's idle power, slept through past
/// the break-even time, a processor dead from `fail_stop` only to its
/// fail time. Record times are relative to `start_s`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bill_idle(
    records: &[Option<ExecRecord>],
    aborted: &[ExecRecord],
    fail_stop: Option<FailStop>,
    start_s: f64,
    end_s: f64,
    n_procs: usize,
    plan_level: OperatingPoint,
    cfg: &SchedulerConfig,
    energy: &mut EnergyBreakdown,
) {
    for pi in 0..n_procs {
        let pid = ProcId(pi as u32);
        let mut intervals: Vec<(f64, f64)> = records
            .iter()
            .flatten()
            .chain(aborted)
            .filter(|r| r.proc == pid)
            .map(|r| (start_s + r.start_s, start_s + r.finish_s))
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let p_end = match fail_stop {
            Some(fs) if fs.proc == pid => (start_s + fs.at_s).min(end_s),
            _ => end_s,
        };
        let mut cursor = start_s;
        for (s, f) in intervals {
            account_idle(s - cursor, plan_level, cfg, energy);
            cursor = cursor.max(f);
        }
        account_idle(p_end - cursor, plan_level, cfg, energy);
    }
}

fn account_idle(
    duration_s: f64,
    level: OperatingPoint,
    cfg: &SchedulerConfig,
    energy: &mut EnergyBreakdown,
) {
    if duration_s <= 0.0 {
        return;
    }
    if cfg.sleep.worth_sleeping(level.idle_power, duration_s) {
        energy.transition_j += cfg.sleep.transition_energy;
        energy.sleep_j += cfg.sleep.sleep_power * duration_s;
        energy.sleep_episodes += 1;
    } else {
        energy.idle_j += level.idle_power * duration_s;
    }
}
