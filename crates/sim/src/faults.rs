//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a fixed, seed-derived description of everything
//! that will go wrong during one run: which tasks overrun their WCET
//! (and by how much), whether a processor fail-stops (and when), and
//! which processors have a misbehaving DVS regulator. The plan is data,
//! not behaviour — the same plan fed to the runner twice produces
//! bit-identical traces, which is what lets the fuzzer shrink failing
//! scenarios and the corpus pin them forever.
//!
//! The runner ([`crate::recovery::run_with_faults`]) consumes the plan
//! and records every fault that actually fired as an [`InjectedEvent`]
//! in the trace; a fault that never fires (a fail-stop scheduled after
//! the run already completed, a stuck regulator on a processor that
//! never tried to switch) leaves no event.

use crate::error::{bad_plan, check_proc, SimError};
use lamps_sched::ProcId;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{TaskGraph, TaskId};

/// A processor fail-stop: at `at_s` the processor halts permanently,
/// losing whatever it was executing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailStop {
    /// The processor that dies.
    pub proc: ProcId,
    /// When it dies \[s\].
    pub at_s: f64,
}

/// How a faulty DVS regulator misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DvsFaultKind {
    /// The regulator ignores level requests: the processor is pinned at
    /// whatever level it booted with (the plan level).
    StuckAtLevel,
    /// Every switch takes `extra_s` longer than the nominal latency.
    ExtraLatency {
        /// Additional settle time per switch \[s\].
        extra_s: f64,
    },
}

/// A DVS regulator fault on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvsFault {
    /// The afflicted processor.
    pub proc: ProcId,
    /// What its regulator does wrong.
    pub kind: DvsFaultKind,
}

/// One task's WCET overrun: it executes `round(wcet × factor)` cycles,
/// `factor ≥ 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overrun {
    /// The overrunning task.
    pub task: TaskId,
    /// Multiplicative factor on the WCET (≥ 1).
    pub factor: f64,
}

/// Everything that will go wrong during one run, owned. The runners and
/// checkers read every fault through a `&FaultPlan`: a frame of an
/// online stream is read into one by [`crate::FrameTable::read`], which
/// refills the same plan's lists frame after frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Per-task WCET overruns (at most one entry per task).
    pub overruns: Vec<Overrun>,
    /// At most one processor fail-stop.
    pub fail_stop: Option<FailStop>,
    /// DVS regulator faults (at most one entry per processor).
    pub dvs: Vec<DvsFault>,
}

/// Knobs for [`FaultPlan::random`]: how hostile the drawn plan is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultIntensity {
    /// Probability that each task overruns.
    pub overrun_prob: f64,
    /// Maximum overrun factor; actual factors draw uniformly from
    /// `[1, max_overrun_factor]`.
    pub max_overrun_factor: f64,
    /// Whether one processor fail-stops at a random time.
    pub fail_stop: bool,
    /// Probability that each processor's DVS regulator is faulty.
    pub dvs_fault_prob: f64,
}

impl FaultIntensity {
    /// Rare, mild overruns; the machine itself is healthy.
    pub fn mild() -> Self {
        FaultIntensity {
            overrun_prob: 0.1,
            max_overrun_factor: 1.2,
            fail_stop: false,
            dvs_fault_prob: 0.0,
        }
    }

    /// Frequent overruns, one fail-stop, occasional regulator faults.
    pub fn moderate() -> Self {
        FaultIntensity {
            overrun_prob: 0.3,
            max_overrun_factor: 1.5,
            fail_stop: true,
            dvs_fault_prob: 0.25,
        }
    }

    /// Most tasks overrun badly, one fail-stop, regulators unreliable.
    pub fn severe() -> Self {
        FaultIntensity {
            overrun_prob: 0.6,
            max_overrun_factor: 2.5,
            fail_stop: true,
            dvs_fault_prob: 0.5,
        }
    }
}

impl FaultPlan {
    /// A plan with no faults: the runner behaves like the plain
    /// simulator.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.overruns.is_empty() && self.fail_stop.is_none() && self.dvs.is_empty()
    }

    /// Draw a plan from a seed. Deterministic: the same
    /// `(graph, n_procs, deadline_s, intensity, seed)` always yields the
    /// same plan. Zero-weight tasks never overrun.
    ///
    /// # Panics
    ///
    /// Unless the intensity's `overrun_prob` and `dvs_fault_prob` lie in
    /// `[0, 1]`, checked before any draw, so also when no draw reads
    /// them.
    pub fn random(
        graph: &TaskGraph,
        n_procs: usize,
        deadline_s: f64,
        intensity: &FaultIntensity,
        seed: u64,
    ) -> Self {
        let spec = FaultSpec {
            intensity: *intensity,
            n_procs,
            deadline_s,
        };
        spec.check();
        let mut plan = FaultPlan::none();
        plan.draw(&spec, graph.weights(), seed);
        plan
    }

    /// Refill the plan, in place, with the faults `spec` draws over the
    /// job WCETs `wcet` from `seed`: the one draw behind
    /// [`FaultPlan::random`] and every read of a synthesized stream's
    /// faults. It walks the RNG in the only order there is: per task of
    /// positive WCET whether it overruns and by what factor, then the
    /// fail-stop, then per processor whether its regulator is faulty and
    /// how. The lists keep their capacity, so a warm plan allocates
    /// nothing. The caller checks `spec`.
    pub(crate) fn draw(&mut self, spec: &FaultSpec, wcet: &[u64], seed: u64) {
        let fi = &spec.intensity;
        let mut rng = Rng::seed_from_u64(seed ^ 0xFA_07_5E_ED);
        self.overruns.clear();
        for (j, &w) in wcet.iter().enumerate() {
            if w > 0 && rng.gen_bool(fi.overrun_prob) {
                let factor = rng.gen_range(1.0..=fi.max_overrun_factor.max(1.0));
                let task = TaskId(j as u32);
                self.overruns.push(Overrun { task, factor });
            }
        }
        self.fail_stop = (fi.fail_stop && spec.n_procs > 0).then(|| FailStop {
            proc: ProcId(rng.gen_range(0u32..spec.n_procs as u32)),
            at_s: rng.gen_range(0.0..=spec.deadline_s.max(0.0)),
        });
        self.dvs.clear();
        for p in 0..spec.n_procs as u32 {
            if rng.gen_bool(fi.dvs_fault_prob) {
                let kind = if rng.gen_bool(0.5) {
                    DvsFaultKind::StuckAtLevel
                } else {
                    DvsFaultKind::ExtraLatency {
                        extra_s: rng.gen_range(1.0e-5..=1.0e-3),
                    }
                };
                self.dvs.push(DvsFault {
                    proc: ProcId(p),
                    kind,
                });
            }
        }
    }

    /// Overwrite the plan with `other`'s faults, keeping the lists'
    /// capacity.
    pub(crate) fn copy_from(&mut self, other: &FaultPlan) {
        self.overruns.clone_from(&other.overruns);
        self.fail_stop = other.fail_stop;
        self.dvs.clone_from(&other.dvs);
    }

    /// Check the faults against a graph and machine size: overrun
    /// factors finite and ≥ 1 on tasks of the graph (one entry per
    /// task), fault times finite and ≥ 0, processors in range (one DVS
    /// entry per processor), extra latencies finite and ≥ 0.
    pub fn validate(&self, graph: &TaskGraph, n_procs: usize) -> Result<(), SimError> {
        FaultChecker::new(graph, n_procs).check(self)
    }

    /// Fill `out` with the cycle counts tasks will *actually* execute:
    /// `actual` everywhere, except overrunning tasks run
    /// `round(wcet × factor)` (at least 1) regardless of their drawn
    /// actuals — a mis-characterized WCET dwarfs normal variation. The
    /// caller owns `out`, so one buffer serves every frame of a stream.
    pub fn effective_cycles(&self, graph: &TaskGraph, actual: &[u64], out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(actual);
        for o in &self.overruns {
            let w = graph.weight(o.task);
            if w > 0 {
                out[o.task.index()] = ((w as f64 * o.factor).round() as u64).max(1);
            }
        }
    }
}

/// Everything a fault draw takes apart from its seed and the WCETs:
/// how hostile it is, the machine size, and the span fail-stop times
/// fall in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultSpec {
    pub(crate) intensity: FaultIntensity,
    pub(crate) n_procs: usize,
    pub(crate) deadline_s: f64,
}

impl FaultSpec {
    /// Panic unless both probabilities of the intensity lie in
    /// `[0, 1]`, as every draw requires.
    pub(crate) fn check(&self) {
        for p in [self.intensity.overrun_prob, self.intensity.dvs_fault_prob] {
            assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        }
    }
}

/// Validates any number of [`FaultPlan`]s against one graph and machine
/// with a single pair of duplicate markers: a marker holds the stamp of
/// the last check that set it, so no check clears or reallocates them.
pub(crate) struct FaultChecker<'g> {
    graph: &'g TaskGraph,
    n_procs: usize,
    seen_task: Vec<u64>,
    seen_proc: Vec<u64>,
    stamp: u64,
}

impl<'g> FaultChecker<'g> {
    pub(crate) fn new(graph: &'g TaskGraph, n_procs: usize) -> Self {
        FaultChecker {
            graph,
            n_procs,
            seen_task: vec![0; graph.len()],
            seen_proc: vec![0; n_procs],
            stamp: 0,
        }
    }

    /// Validate one plan; see [`FaultPlan::validate`].
    pub(crate) fn check(&mut self, faults: &FaultPlan) -> Result<(), SimError> {
        self.stamp += 1;
        let (graph, n_procs, stamp) = (self.graph, self.n_procs, self.stamp);
        for o in &faults.overruns {
            if o.task.index() >= graph.len() {
                return Err(bad_plan(format!("{} not in the graph", o.task)));
            }
            if !o.factor.is_finite() || o.factor < 1.0 {
                return Err(bad_plan(format!(
                    "{}: overrun factor {} must be finite and ≥ 1",
                    o.task, o.factor
                )));
            }
            let seen = &mut self.seen_task[o.task.index()];
            if *seen == stamp {
                return Err(bad_plan(format!("{} overruns twice", o.task)));
            }
            *seen = stamp;
        }
        if let Some(fs) = faults.fail_stop {
            check_proc(fs.proc, n_procs)?;
            if !fs.at_s.is_finite() || fs.at_s < 0.0 {
                return Err(bad_plan(format!(
                    "fail-stop time {} must be finite and ≥ 0",
                    fs.at_s
                )));
            }
        }
        for d in &faults.dvs {
            check_proc(d.proc, n_procs)?;
            if let DvsFaultKind::ExtraLatency { extra_s } = d.kind {
                if !extra_s.is_finite() || extra_s < 0.0 {
                    return Err(bad_plan(format!(
                        "{}: extra switch latency {} must be finite and ≥ 0",
                        d.proc, extra_s
                    )));
                }
            }
            let seen = &mut self.seen_proc[d.proc.index()];
            if *seen == stamp {
                return Err(bad_plan(format!("{} has two DVS faults", d.proc)));
            }
            *seen = stamp;
        }
        Ok(())
    }
}

/// A fault the runner actually applied, recorded in trace order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedEvent {
    /// A task executed more cycles than its WCET.
    Overrun {
        /// The overrunning task.
        task: TaskId,
        /// The factor from the plan.
        factor: f64,
        /// Cycles it actually executed.
        cycles: u64,
    },
    /// A processor fail-stopped.
    ProcFailed {
        /// The dead processor.
        proc: ProcId,
        /// When it died \[s\].
        at_s: f64,
    },
    /// A level switch was requested on a stuck regulator and ignored.
    DvsStuck {
        /// The afflicted processor.
        proc: ProcId,
        /// The supply voltage that was requested \[V\].
        requested_vdd: f64,
    },
    /// A level switch took extra settle time.
    DvsDelayed {
        /// The afflicted processor.
        proc: ProcId,
        /// The additional latency beyond nominal \[s\].
        extra_s: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    fn graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        for _ in 0..20 {
            b.add_task(1_000_000);
        }
        b.build().unwrap()
    }

    #[test]
    fn random_plans_are_deterministic() {
        let g = graph();
        let i = FaultIntensity::moderate();
        let a = FaultPlan::random(&g, 4, 0.01, &i, 7);
        let b = FaultPlan::random(&g, 4, 0.01, &i, 7);
        assert_eq!(a, b);
        let c = FaultPlan::random(&g, 4, 0.01, &i, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_plans_validate() {
        let g = graph();
        for intensity in [
            FaultIntensity::mild(),
            FaultIntensity::moderate(),
            FaultIntensity::severe(),
        ] {
            for seed in 0..50 {
                let p = FaultPlan::random(&g, 3, 0.02, &intensity, seed);
                p.validate(&g, 3).unwrap();
            }
        }
    }

    #[test]
    fn zero_weight_tasks_never_overrun() {
        let g = graph();
        for seed in 0..100 {
            let p = FaultPlan::random(&g, 2, 0.01, &FaultIntensity::severe(), seed);
            assert!(p.overruns.iter().all(|o| o.task != TaskId(0)));
        }
    }

    /// No draw reads `overrun_prob` on zero-weight tasks with no
    /// processors, so only the up-front check rejects it.
    #[test]
    #[should_panic(expected = "probability 2 outside [0, 1]")]
    fn random_plans_check_probabilities_before_drawing() {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        let g = b.build().unwrap();
        let intensity = FaultIntensity {
            overrun_prob: 2.0,
            ..FaultIntensity::mild()
        };
        FaultPlan::random(&g, 0, 0.01, &intensity, 1);
    }

    #[test]
    fn effective_cycles_apply_factors() {
        let g = graph();
        let actual: Vec<u64> = g.weights().iter().map(|&w| w / 2).collect();
        let plan = FaultPlan {
            overruns: vec![Overrun {
                task: TaskId(3),
                factor: 1.5,
            }],
            ..FaultPlan::none()
        };
        let mut eff = Vec::new();
        plan.effective_cycles(&g, &actual, &mut eff);
        assert_eq!(eff[3], 1_500_000);
        assert_eq!(eff[1], 500_000);
    }

    #[test]
    fn empty_plan_is_identity() {
        let g = graph();
        let actual: Vec<u64> = g.weights().to_vec();
        assert!(FaultPlan::none().is_empty());
        let mut eff = vec![7; 3];
        FaultPlan::none().effective_cycles(&g, &actual, &mut eff);
        assert_eq!(eff, actual);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        let g = graph();
        let bad = [
            FaultPlan {
                overruns: vec![Overrun {
                    task: TaskId(1),
                    factor: 0.5,
                }],
                ..FaultPlan::none()
            },
            FaultPlan {
                overruns: vec![Overrun {
                    task: TaskId(1),
                    factor: f64::NAN,
                }],
                ..FaultPlan::none()
            },
            FaultPlan {
                overruns: vec![
                    Overrun {
                        task: TaskId(1),
                        factor: 1.2,
                    },
                    Overrun {
                        task: TaskId(1),
                        factor: 1.3,
                    },
                ],
                ..FaultPlan::none()
            },
            FaultPlan {
                fail_stop: Some(FailStop {
                    proc: ProcId(9),
                    at_s: 0.0,
                }),
                ..FaultPlan::none()
            },
            FaultPlan {
                fail_stop: Some(FailStop {
                    proc: ProcId(0),
                    at_s: -1.0,
                }),
                ..FaultPlan::none()
            },
            FaultPlan {
                dvs: vec![DvsFault {
                    proc: ProcId(0),
                    kind: DvsFaultKind::ExtraLatency {
                        extra_s: f64::INFINITY,
                    },
                }],
                ..FaultPlan::none()
            },
        ];
        for plan in bad {
            assert!(
                matches!(plan.validate(&g, 2), Err(SimError::BadFaultPlan(_))),
                "{plan:?} must be rejected"
            );
        }
        FaultPlan::none().validate(&g, 2).unwrap();
    }
}
