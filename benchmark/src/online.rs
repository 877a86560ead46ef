//! The `online` workload: `run_online` over harmonic periodic frame
//! streams, a static arm as the control on identical streams, a
//! reclaiming arm (the measured one), and a fault arm.
//!
//! The periodic sets follow the recipe of the repository's online
//! experiment: 3–5 tasks on a harmonic period ladder at 65–85%
//! utilisation, with forward dependencies. Every report of an untimed
//! pass of each arm passes `lamps_verify::check_online`, and every timed
//! reclaiming pass must reproduce that checked pass exactly.

use crate::report::Report;
use crate::timing::{calibrate, scale, Passes};
use crate::trace::Tracer;
use crate::{peak_rss_mib, timed_setup, Ctx};
use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::suffix::{resolve_suffix_fresh, SuffixContext};
use lamps_core::{SchedulerConfig, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{run_online, DvsSwitchCost, FaultIntensity, OnlineConfig, OnlineStream};
use lamps_taskgraph::rng::{splitmix64, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Periodic sets per run. A set's cost per frame varies several-fold
/// with its periods, so many short streams keep a run's average steady
/// across seeds.
const SETS: usize = 512;
/// Frames per reclaiming (and static) stream.
const FRAMES: usize = 250;
/// Frames per fault stream.
const FAULT_FRAMES: usize = 125;
/// Harmonic period ladder in cycles: every pair divides.
const PERIOD_LADDER: [u64; 3] = [31_000_000, 62_000_000, 124_000_000];
/// Reclaiming passes a run makes at least.
const MIN_PASSES: usize = 4;

/// One periodic set with the processor count of its offline plan.
struct Set {
    dag: PeriodicDag,
    n_procs: usize,
}

fn gen_set(seed: u64, cfg: &SchedulerConfig) -> Option<Set> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = rng.gen_range(3..6usize);
    let target_util = 0.65 + 0.20 * rng.gen_range(0.0..1.0);
    let mut set = PeriodicSet::new();
    for i in 0..n {
        let period = PERIOD_LADDER[rng.gen_range(0..PERIOD_LADDER.len())];
        let share = target_util / n as f64 * (0.6 + 0.8 * rng.gen_range(0.0..1.0));
        set.add(
            format!("t{i}"),
            ((period as f64 * share) as u64).clamp(1, period),
            period,
        );
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.35) {
                set.depends(a, b)
                    .expect("harmonic ladder periods always divide");
            }
        }
    }
    let dag = set.to_frame_dag();
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    let n_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, cfg)
        .ok()?
        .n_procs;
    Some(Set { dag, n_procs })
}

/// The generated inputs.
struct Inputs {
    sets: Vec<Set>,
    reclaim: Vec<OnlineStream>,
    faulty: Vec<OnlineStream>,
}

fn make_inputs(seed: u64, cfg: &SchedulerConfig) -> Inputs {
    let mut sm = seed;
    let mut sets = Vec::with_capacity(SETS);
    while sets.len() < SETS {
        if let Some(s) = gen_set(splitmix64(&mut sm), cfg) {
            sets.push(s);
        }
    }
    let f_max = cfg.max_frequency();
    let moderate = FaultIntensity::moderate();
    let stream = |i: usize, s: &Set, frames, lo, hi, faults, salt: u64| {
        OnlineStream::synthesize(
            &s.dag,
            s.n_procs,
            frames,
            1.0,
            lo,
            hi,
            faults,
            f_max,
            seed ^ (i as u64) << 8 ^ salt,
        )
    };
    Inputs {
        reclaim: sets
            .iter()
            .enumerate()
            .map(|(i, s)| stream(i, s, FRAMES, 0.55, 0.75, None, 0))
            .collect(),
        faulty: sets
            .iter()
            .enumerate()
            .map(|(i, s)| stream(i, s, FAULT_FRAMES, 0.6, 1.0, Some(&moderate), 0xFA17))
            .collect(),
        sets,
    }
}

/// Aggregate of one arm over every set.
#[derive(Default)]
struct Arm {
    /// Seconds inside `run_online` calls.
    busy_s: f64,
    /// Per-call wall time, ns.
    call_ns: Vec<u64>,
    energy_j: f64,
    frames: u64,
    executed: u64,
    misses: u64,
    shed: u64,
    degraded: u64,
    resolves: u64,
    resolve_steps: u64,
    /// Per-set (energy bits, re-solves): a pass's fingerprint.
    fingerprint: Vec<(u64, u64)>,
}

/// Run `ocfg` over every set's stream. With `check`, every report goes
/// through the independent trace validator; with `span`, every call is
/// recorded under that name.
fn run_arm(
    inputs: &Inputs,
    streams: &[OnlineStream],
    ocfg: &OnlineConfig,
    cfg: &SchedulerConfig,
    check: bool,
    mut span: Option<(&mut Tracer, &'static str)>,
    rep: &mut Report,
) -> Arm {
    let mut arm = Arm::default();
    for (i, (set, stream)) in inputs.sets.iter().zip(streams).enumerate() {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_online(&set.dag, stream, ocfg, cfg)));
        let t1 = Instant::now();
        if let Some((t, name)) = span.as_mut() {
            t.record(name, t0, t1, i as u64);
        }
        arm.busy_s += (t1 - t0).as_secs_f64();
        arm.call_ns.push((t1 - t0).as_nanos() as u64);
        rep.attempted += stream.frames.len() as u64;
        let report = match outcome {
            Err(_) => {
                rep.fail(1, "run_online panicked");
                continue;
            }
            Ok(Err(e)) => {
                rep.fail(1, format!("run_online rejected a valid stream: {e}"));
                continue;
            }
            Ok(Ok(r)) => r,
        };
        if check {
            let v = lamps_verify::check_online(&set.dag, stream, ocfg, cfg, &report);
            if let Some(first) = v.first() {
                rep.fail(
                    v.len() as u64,
                    format!("check_online violation, first: {first}"),
                );
            }
        }
        arm.energy_j += report.total_energy();
        arm.frames += report.frames.len() as u64;
        arm.executed += (report.admitted + report.deferred) as u64;
        arm.misses += report.frame_misses as u64;
        arm.shed += report.shed as u64;
        arm.degraded += report.degraded_frames as u64;
        arm.resolves += report.resolves;
        arm.resolve_steps += report.resolve_steps;
        arm.fingerprint
            .push((report.total_energy().to_bits(), report.resolves));
    }
    arm
}

impl Arm {
    /// Count the sets where `other`, a repeat of this checked pass,
    /// did not reproduce it exactly.
    fn compare(&self, other: &Arm, rep: &mut Report) {
        let differ = self
            .fingerprint
            .iter()
            .zip(&other.fingerprint)
            .filter(|(a, b)| a != b)
            .count()
            + self.fingerprint.len().abs_diff(other.fingerprint.len());
        rep.fail(
            differ as u64,
            "a repeated pass differs from the checked pass",
        );
    }
}

/// Steps of a from-scratch suffix re-solve of one whole frame, the
/// yardstick the incremental re-solves are compared with.
fn fresh_frame_steps(set: &Set, cfg: &SchedulerConfig) -> u64 {
    let dag = &set.dag;
    let n = dag.graph.len();
    let f_max = cfg.max_frequency();
    let due_s: Vec<f64> = dag
        .deadlines
        .iter()
        .map(|d| d.unwrap_or(dag.hyperperiod_cycles) as f64 / f_max)
        .collect();
    let ctx = SuffixContext {
        finished: &vec![false; n],
        finish_s: &vec![0.0; n],
        running: &vec![None; set.n_procs],
        dead: &vec![false; set.n_procs],
        now_s: 0.0,
        deadline_s: dag.hyperperiod_cycles as f64 / f_max,
        own_due_s: Some(&due_s),
    };
    resolve_suffix_fresh(&dag.graph, &ctx, cfg.levels.points(), None).map_or(0, |p| p.steps)
}

/// Run the `online` workload.
pub fn run(ctx: &Ctx, rep: &mut Report, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
    let cfg = SchedulerConfig::paper();
    let (inputs, setup_s) = timed_setup(|| Ok(make_inputs(ctx.seed, &cfg)))?;
    let switch = DvsSwitchCost::typical();
    let reclaiming = OnlineConfig {
        switch,
        ..OnlineConfig::reclaiming()
    };
    let static_plan = OnlineConfig {
        switch,
        ..OnlineConfig::static_plan()
    };

    // The checked passes are not timed: the validator running between
    // calls would disturb the timings of the calls after it.
    let fixed = run_arm(
        &inputs,
        &inputs.reclaim,
        &static_plan,
        &cfg,
        true,
        None,
        rep,
    );
    let reclaim = run_arm(&inputs, &inputs.reclaim, &reclaiming, &cfg, true, None, rep);
    let mut passes = [Passes::default(), Passes::default()]; // [untraced, traced]
    let t_run = Instant::now();
    let mut pass = 0;
    while pass < MIN_PASSES || t_run.elapsed().as_secs_f64() < ctx.seconds {
        let traced = tracer.is_some() && pass % 2 == 1;
        let before = calibrate(1);
        let mut arm = run_arm(
            &inputs,
            &inputs.reclaim,
            &reclaiming,
            &cfg,
            false,
            tracer
                .as_deref_mut()
                .filter(|_| traced)
                .map(|t| (t, "sim.reclaim")),
            rep,
        );
        let k = scale(before, calibrate(1));
        passes[traced as usize].add_rate(k, arm.frames as usize, arm.busy_s);
        passes[traced as usize].add_latencies(k, &mut arm.call_ns);
        reclaim.compare(&arm, rep);
        pass += 1;
    }
    let faults = run_arm(&inputs, &inputs.faulty, &reclaiming, &cfg, true, None, rep);

    let energy_ratio = reclaim.energy_j / fixed.energy_j;
    if let Some(t) = tracer {
        let frame_us = passes[0].op_s() * 1e6;
        // Timed, unchecked repeats of the static and fault arms.
        let timed = |streams, ocfg, name, checked: &Arm, t: &mut Tracer, rep: &mut Report| {
            let before = calibrate(1);
            let arm = run_arm(&inputs, streams, ocfg, &cfg, false, Some((t, name)), rep);
            let k = scale(before, calibrate(1));
            checked.compare(&arm, rep);
            arm.busy_s * k * 1e6 / arm.frames.max(1) as f64
        };
        let static_frame_us = timed(&inputs.reclaim, &static_plan, "sim.static", &fixed, t, rep);
        let fault_frame_us = timed(&inputs.faulty, &reclaiming, "sim.fault", &faults, t, rep);
        let root = t.open("core.suffix_fresh_all", 0);
        let mut steps = 0u64;
        for (i, set) in inputs.sets.iter().enumerate() {
            steps += t.span("core.suffix_fresh", i as u64, |_| {
                fresh_frame_steps(set, &cfg)
            });
        }
        t.close(root);
        rep.set("sim.static_frame_us", static_frame_us);
        rep.set("sim.reclaim_extra_us", frame_us - static_frame_us);
        rep.set(
            "sim.resolves_per_frame",
            reclaim.resolves as f64 / reclaim.frames.max(1) as f64,
        );
        rep.set(
            "sim.resolve_steps_avg",
            reclaim.resolve_steps as f64 / reclaim.resolves.max(1) as f64,
        );
        rep.set("core.suffix_fresh_steps_avg", steps as f64 / SETS as f64);
        rep.set("sim.fault_frame_us", fault_frame_us);
        rep.set(
            "sim.shed_frac",
            faults.shed as f64 / faults.frames.max(1) as f64,
        );
        rep.set("sim.degraded_frames", faults.degraded as f64);
        rep.set(
            "sim.miss_rate",
            faults.misses as f64 / faults.executed.max(1) as f64,
        );
        rep.set("sim.reclaimed_frac", 1.0 - energy_ratio);
        passes[0].report(rep);
        rep.set(
            "trace.overhead_frac",
            Passes::overhead_frac(&passes[0], &passes[1]),
        );
    } else {
        rep.set("setup_s", setup_s);
        rep.set("energy_ratio", energy_ratio);
        rep.set("peak_rss_mb", peak_rss_mib("self")?);
    }
    Ok(())
}
