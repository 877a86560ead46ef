//! Golden streams: a hash of every bit `OnlineStream::synthesize` and
//! `OnlineStream::periodic` put into a stream — each arrival's bit
//! pattern, each job's actual cycles and every field of each frame's
//! fault plan — pinned over a few seeds, fault-free and with `moderate`
//! faults. A change to the stream layout, or to the order in which the
//! generators draw from their RNGs, fails here before it can move a
//! single bit of an online report.
//!
//! Regenerate the table only for an intended change to what a stream
//! holds: print the new hashes with `{:#018x}` and say why they moved.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{SchedulerConfig, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sim::{DvsFaultKind, FaultIntensity, FrameInput, OnlineStream};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn stream_hash(stream: &OnlineStream) -> u64 {
    let mut h = Fnv::new();
    h.word(stream.frames.len() as u64);
    let mut fr = FrameInput::default();
    for i in 0..stream.frames.len() {
        stream.frames.read(i, &mut fr);
        h.word(fr.arrival_s.to_bits());
        h.word(fr.actual.len() as u64);
        for &a in &fr.actual {
            h.word(a);
        }
        let plan = &fr.faults;
        h.word(plan.overruns.len() as u64);
        for o in &plan.overruns {
            h.word(u64::from(o.task.0));
            h.word(o.factor.to_bits());
        }
        match plan.fail_stop {
            Some(fs) => {
                h.word(1);
                h.word(u64::from(fs.proc.0));
                h.word(fs.at_s.to_bits());
            }
            None => h.word(0),
        }
        h.word(plan.dvs.len() as u64);
        for d in &plan.dvs {
            h.word(u64::from(d.proc.0));
            match d.kind {
                DvsFaultKind::StuckAtLevel => h.word(0),
                DvsFaultKind::ExtraLatency { extra_s } => {
                    h.word(1);
                    h.word(extra_s.to_bits());
                }
            }
        }
    }
    h.0
}

fn pipeline_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let ctl = s.add("ctl", 13_000_000, 31_000_000);
    let est = s.add("est", 18_000_000, 62_000_000);
    let log = s.add("log", 6_000_000, 62_000_000);
    s.depends(ctl, est).unwrap();
    s.depends(est, log).unwrap();
    s.to_frame_dag()
}

fn wide_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 8_000_000, 31_000_000);
    for i in 0..4 {
        let w = s.add(format!("w{i}"), 11_000_000, 62_000_000);
        s.depends(src, w).unwrap();
    }
    s.to_frame_dag()
}

/// Per dag: three fault-free and three `moderate` synthesized streams,
/// then a periodic and an overloaded periodic stream.
fn stream_hashes() -> Vec<u64> {
    let cfg = SchedulerConfig::paper();
    let f_max = cfg.max_frequency();
    let moderate = FaultIntensity::moderate();
    let mut out = Vec::new();
    for dag in [pipeline_dag(), wide_dag()] {
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        let n_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
            .unwrap()
            .n_procs;
        for intensity in [None, Some(&moderate)] {
            for seed in [3u64, 17, 2006] {
                let s = OnlineStream::synthesize(
                    &dag, n_procs, 40, 1.0, 0.55, 0.95, intensity, f_max, seed,
                );
                out.push(stream_hash(&s));
            }
        }
        out.push(stream_hash(&OnlineStream::periodic(&dag, 12, 1.0, f_max)));
        out.push(stream_hash(&OnlineStream::periodic(&dag, 12, 0.4, f_max)));
    }
    out
}

const STREAMS: [u64; 16] = [
    0x08c56373552da499,
    0x7f4ab008929d6bd2,
    0x7b21aafedfecdf31,
    0x4fa2b496a330aca4,
    0x468a24183393ccb4,
    0x39cef0f4a0fd774a,
    0xe5cd72818da4fc32,
    0xfe15770397b26681,
    0xecbaedee0435cd3b,
    0x488629c95ec51c95,
    0xdbb0ff5c4f20e558,
    0x54fc2df0d5d9fc02,
    0xb0c9f355f7de7e0e,
    0xeff6aa07f841c96a,
    0xc9c3032a809e9eda,
    0xe46c0d4404196e0d,
];

/// A frame whose `big` job's WCET, 5·10⁹ cycles, is above `u32::MAX`.
fn big_wcet_dag() -> PeriodicDag {
    let mut s = PeriodicSet::new();
    let src = s.add("src", 1_000_000_000, 8_000_000_000);
    let big = s.add("big", 5_000_000_000, 8_000_000_000);
    let log = s.add("log", 600_000_000, 4_000_000_000);
    s.depends(src, big).unwrap();
    s.depends(src, log).unwrap();
    s.to_frame_dag()
}

/// A `moderate` synthesized stream over [`big_wcet_dag`] whose actuals need
/// the wide column.
fn wide_stream_hash() -> u64 {
    let cfg = SchedulerConfig::paper();
    let dag = big_wcet_dag();
    let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
    let n_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
        .unwrap()
        .n_procs;
    let moderate = FaultIntensity::moderate();
    let s = OnlineStream::synthesize(
        &dag,
        n_procs,
        40,
        1.0,
        0.55,
        0.95,
        Some(&moderate),
        cfg.max_frequency(),
        2006,
    );
    assert!(s
        .frames
        .to_parts()
        .2
        .iter()
        .any(|&a| a > u64::from(u32::MAX)));
    stream_hash(&s)
}

const WIDE_STREAM: u64 = 0x80ef5e53bfde66ad;

#[test]
fn generated_streams_keep_their_bits() {
    let got = stream_hashes();
    assert_eq!(got.len(), STREAMS.len(), "stream count");
    for (i, (g, w)) in got.iter().zip(&STREAMS).enumerate() {
        assert_eq!(g, w, "stream {i}: got {g:#018x}, golden {w:#018x}");
    }
}

#[test]
fn wide_streams_keep_their_bits() {
    let got = wide_stream_hash();
    assert_eq!(
        got, WIDE_STREAM,
        "wide stream: got {got:#018x}, golden {WIDE_STREAM:#018x}"
    );
}
