//! Drawn vs stored: a built stream derives its actuals and faults on
//! every read, and a table assembled by `FrameTable::from_parts` from
//! the values and fault plans those reads give stores them. `run_online`
//! must not tell the two apart: on every seed, set shape and
//! configuration below, fault-free and with `moderate` faults, the two
//! reports agree bit for bit — total and per-frame energy, verdicts,
//! deadline outcomes, per-job records, fault events, recoveries and
//! re-solve counts.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{SchedulerConfig, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{run_online, FaultIntensity, FrameTable, OnlineConfig, OnlineReport, OnlineStream};

/// A three-stage pipeline, one job per period.
fn pipeline() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let ctl = s.add("ctl", 13_000_000, 31_000_000);
    let est = s.add("est", 18_000_000, 62_000_000);
    let log = s.add("log", 6_000_000, 62_000_000);
    s.depends(ctl, est).unwrap();
    s.depends(est, log).unwrap();
    s.to_frame_dag()
}

/// A fork of four workers off a twice-per-frame source.
fn fork() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    s.to_frame_dag()
}

/// A job whose WCET, 5·10⁹ cycles, needs `u64`: its stored copy is the
/// wide column.
fn big() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 1_000_000_000, 8_000_000_000);
    let big = s.add("big", 5_000_000_000, 8_000_000_000);
    s.depends(src, big).unwrap();
    s.to_frame_dag()
}

/// `stream`'s frames stored value by value.
fn stored(stream: &OnlineStream) -> OnlineStream {
    let (arrivals, jobs, actual, plans) = stream.frames.to_parts();
    OnlineStream {
        frames: FrameTable::from_parts(arrivals, jobs, actual, plans).unwrap(),
    }
}

fn assert_bitwise_equal(a: &OnlineReport, b: &OnlineReport, what: &str) {
    assert_eq!(
        a.total_energy().to_bits(),
        b.total_energy().to_bits(),
        "{what}: total energy"
    );
    assert_eq!(a.frames.len(), b.frames.len(), "{what}");
    assert_eq!(
        (a.resolves, a.resolve_steps, a.degraded_frames),
        (b.resolves, b.resolve_steps, b.degraded_frames),
        "{what}"
    );
    for (fa, fb) in a.frames.iter().zip(&b.frames) {
        let at = format!("{what}, frame {}", fa.frame);
        assert_eq!(fa.energy_j.to_bits(), fb.energy_j.to_bits(), "{at}: energy");
        assert_eq!(fa.verdict, fb.verdict, "{at}: verdict");
        assert_eq!(
            fa.verdict.start_s().map(f64::to_bits),
            fb.verdict.start_s().map(f64::to_bits),
            "{at}: start"
        );
        assert_eq!(fa.window_end_s.to_bits(), fb.window_end_s.to_bits(), "{at}");
        assert_eq!(fa.outcome, fb.outcome, "{at}: outcome");
        assert_eq!(fa.tasks, fb.tasks, "{at}: records");
        assert_eq!(fa.aborted, fb.aborted, "{at}: aborted");
        assert_eq!(fa.injected, fb.injected, "{at}: injected");
        assert_eq!(fa.recoveries, fb.recoveries, "{at}: recoveries");
        assert_eq!(
            (fa.resolves, fa.resolve_steps, fa.stretched, fa.degraded),
            (fb.resolves, fb.resolve_steps, fb.stretched, fb.degraded),
            "{at}: re-solves"
        );
    }
}

#[test]
fn drawn_and_stored_actuals_give_bitwise_equal_reports() {
    let cfg = SchedulerConfig::paper();
    let f_max = cfg.max_frequency();
    let moderate = FaultIntensity::moderate();
    let mut reclaimed = 0;
    for (name, dag) in [("pipeline", pipeline()), ("fork", fork()), ("big", big())] {
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        let n_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
            .unwrap()
            .n_procs;
        for seed in [1u64, 41, 2006] {
            for (faults, lo, hi) in [(None, 0.45, 0.8), (Some(&moderate), 0.6, 1.0)] {
                let drawn =
                    OnlineStream::synthesize(&dag, n_procs, 12, 0.9, lo, hi, faults, f_max, seed);
                let copy = stored(&drawn);
                assert_eq!(copy, drawn, "{name} seed {seed}: the copy reads the same");
                for ocfg in [OnlineConfig::static_plan(), OnlineConfig::reclaiming()] {
                    let what = format!(
                        "{name} seed {seed} faults {} reclaim {}",
                        faults.is_some(),
                        ocfg.reclaim
                    );
                    let a = run_online(&dag, &drawn, &ocfg, &cfg).unwrap();
                    let b = run_online(&dag, &copy, &ocfg, &cfg).unwrap();
                    assert_bitwise_equal(&a, &b, &what);
                    reclaimed += a.resolves;
                }
            }
        }
    }
    assert!(reclaimed > 0, "the reclaiming runs re-solved nothing");
}
