//! Golden per-task-deadline answers: `solve_with_deadlines` over all
//! four strategies on periodic frame DAGs (harmonic 3- and 4-step period
//! ladders), staggered KPN unrolls, all-`None` (uniform) vectors and
//! explicit deadlines past the horizon. Every solve pins its processor
//! count, the `f64` bits of its frequency and total energy, and its
//! makespan; every infeasible one pins its error string. Any change to
//! the search that moves a single bit of these answers fails here.
//!
//! Regenerate only for an intended behaviour change: a failing run puts
//! the current table in its message; paste it over `GOLDEN` and say in
//! the change log why the bits moved.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{SchedulerConfig, Strategy};
use lamps_kpn::{unroll, Network, PeriodicSet, ProcessId, UnrollConfig};
use lamps_taskgraph::gen::layered::{generate, LayeredConfig};
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::TaskGraph;

/// Base period of the harmonic ladders: 2.5 ms at the paper's f_max.
const BASE: u64 = 7_750_000;

/// A periodic set of `3..=9` tasks on a `steps`-rung power-of-two
/// ladder, utilization drawn wide enough that some sets are infeasible.
fn periodic_case(seed: u64, steps: u32) -> (TaskGraph, DeadlineVector) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9e41);
    let n = rng.gen_range(3usize..=9);
    let mut s = PeriodicSet::new();
    let mut ids = Vec::with_capacity(n);
    for i in 0..n {
        let p = BASE << rng.gen_range(0u32..steps);
        let frac = rng.gen_range(0.03f64..0.2);
        ids.push(s.add(format!("t{i}"), ((p as f64 * frac) as u64).max(1), p));
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if rng.gen_bool(0.3) {
                s.depends(ids[a], ids[b]).unwrap();
            }
        }
    }
    let dag = s.to_frame_dag();
    let dv = DeadlineVector::from_kpn(dag.deadlines, dag.hyperperiod_cycles);
    (dag.graph, dv)
}

/// A random KPN pipeline with a few delayed back channels, unrolled
/// with staggered output deadlines.
fn kpn_case(seed: u64) -> (TaskGraph, DeadlineVector) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6b70);
    let mut net = Network::new();
    let n = rng.gen_range(2usize..=5);
    let procs: Vec<ProcessId> = (0..n)
        .map(|i| net.add_process(format!("p{i}"), rng.gen_range(5_000_000u64..=40_000_000)))
        .collect();
    for w in procs.windows(2) {
        net.connect(w[0], w[1]).unwrap();
    }
    if n > 2 && rng.gen_bool(0.5) {
        net.connect_delayed(procs[n - 2], procs[0], 1).unwrap();
    }
    let work: u64 = procs.iter().map(|&p| net.firing_cycles(p)).sum();
    let copies = rng.gen_range(2usize..=6);
    let u = unroll(
        &net,
        &UnrollConfig {
            copies,
            first_deadline_cycles: (work as f64 * rng.gen_range(0.8f64..2.0)) as u64,
            period_cycles: (work as f64 * rng.gen_range(0.3f64..1.2)) as u64,
        },
    )
    .unwrap();
    let horizon = u.horizon_cycles();
    let dv = DeadlineVector::from_kpn(u.deadlines, horizon);
    (u.graph, dv)
}

/// A layered graph under an all-`None` vector (every sink due at the
/// horizon): the per-task rule's view of a uniform deadline.
fn uniform_case(seed: u64) -> (TaskGraph, DeadlineVector) {
    let g = generate(
        &LayeredConfig {
            n_tasks: [10, 40, 60][seed as usize % 3],
            n_layers: 5,
            ..LayeredConfig::default()
        },
        seed,
    )
    .scale_weights(310_000);
    let factor = [1.0, 1.5, 2.0, 4.0, 8.0][seed as usize % 5];
    let dv = DeadlineVector::uniform(&g, (factor * g.critical_path_cycles() as f64) as u64);
    (g, dv)
}

/// A layered graph with one explicit deadline set *past* the horizon:
/// `lf` may exceed the accounting horizon for that task's ancestors.
fn past_horizon_case(seed: u64) -> (TaskGraph, DeadlineVector) {
    let (g, dv) = uniform_case(seed);
    let mut own = dv.own;
    let cpl = g.critical_path_cycles();
    let last = g.len() - 1;
    own[last] = Some(3 * cpl);
    (g, DeadlineVector::from_kpn(own, cpl + cpl / 2))
}

fn corpus() -> Vec<(String, TaskGraph, DeadlineVector)> {
    let mut out = Vec::new();
    for seed in 0..16u64 {
        for steps in [3u32, 4] {
            let (g, dv) = periodic_case(seed, steps);
            out.push((format!("periodic seed {seed} ladder {steps}"), g, dv));
        }
    }
    for seed in 0..12u64 {
        let (g, dv) = kpn_case(seed);
        out.push((format!("kpn seed {seed}"), g, dv));
    }
    for seed in 0..6u64 {
        let (g, dv) = uniform_case(seed);
        out.push((format!("uniform seed {seed}"), g, dv));
    }
    for seed in 0..3u64 {
        let (g, dv) = past_horizon_case(seed);
        out.push((format!("past-horizon seed {seed}"), g, dv));
    }
    out
}

/// One line per solve: the answer's pinned fields, or the error text.
fn answers() -> Vec<String> {
    let cfg = SchedulerConfig::paper();
    let mut out = Vec::new();
    for (name, g, dv) in corpus() {
        for s in Strategy::all() {
            let line = match solve_with_deadlines(s, &g, &dv, &cfg) {
                Ok(sol) => format!(
                    "{name} {s}: n={} f={:#018x} e={:#018x} m={}",
                    sol.n_procs,
                    sol.level.freq.to_bits(),
                    sol.energy.total().to_bits(),
                    sol.makespan_cycles
                ),
                Err(e) => format!("{name} {s}: err={e}"),
            };
            out.push(line);
        }
    }
    out
}

#[test]
fn per_task_answers_are_pinned() {
    let got = answers();
    let mismatched: Vec<&str> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g != *w)
        .map(|(g, _)| g.as_str())
        .collect();
    let table: String = got.iter().map(|line| format!("    {line:?},\n")).collect();
    assert!(
        mismatched.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} answers differ from the pins ({:?}); {} pins for {} solves. Current table:\n{table}",
        mismatched.len(),
        got.len(),
        mismatched,
        GOLDEN.len(),
        got.len()
    );
    // The corpus must reach both outcomes.
    assert!(got.iter().any(|l| l.contains("err=")));
    assert!(got.iter().filter(|l| l.contains(" n=")).count() > GOLDEN.len() / 2);
}

const GOLDEN: &[&str] = &[
    "periodic seed 0 ladder 3 S&S: n=2 f=0x41ce56a567880354 e=0x3f839984bed5b036 m=8821577",
    "periodic seed 0 ladder 3 LAMPS: n=1 f=0x41d6d1173d4083e7 e=0x3f80333cdba8c92c m=14418069",
    "periodic seed 0 ladder 3 S&S+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f814cadd5313239 m=8821577",
    "periodic seed 0 ladder 3 LAMPS+PS: n=1 f=0x41d6d1173d4083e7 e=0x3f80333cdba8c92c m=14418069",
    "periodic seed 0 ladder 4 S&S: n=2 f=0x41ce56a567880354 e=0x3f939984bed5b036 m=17643154",
    "periodic seed 0 ladder 4 LAMPS: n=1 f=0x41d6d1173d4083e7 e=0x3f90333cdba8c92c m=28836138",
    "periodic seed 0 ladder 4 S&S+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f904f72ab8f783f m=17643154",
    "periodic seed 0 ladder 4 LAMPS+PS: n=1 f=0x41d6d1173d4083e7 e=0x3f9020d9099b040a m=28836138",
    "periodic seed 1 ladder 3 S&S: n=4 f=0x41c148956bed1c03 e=0x3f8a9b7984d18cce m=4513232",
    "periodic seed 1 ladder 3 LAMPS: n=1 f=0x41d6d1173d4083e7 e=0x3f80a66b04c22e3f m=15326344",
    "periodic seed 1 ladder 3 S&S+PS: n=4 f=0x41d2dd0c0a701368 e=0x3f843eb79458d936 m=4513232",
    "periodic seed 1 ladder 3 LAMPS+PS: n=1 f=0x41d6d1173d4083e7 e=0x3f80a66b04c22e3f m=15326344",
    "periodic seed 1 ladder 4 S&S: n=4 f=0x41c148956bed1c03 e=0x3f9a9b7984d18cce m=9026464",
    "periodic seed 1 ladder 4 LAMPS: n=1 f=0x41d6d1173d4083e7 e=0x3f90a66b04c22e3f m=30652688",
    "periodic seed 1 ladder 4 S&S+PS: n=4 f=0x41d2dd0c0a701368 e=0x3f92444141156543 m=9026464",
    "periodic seed 1 ladder 4 LAMPS+PS: n=1 f=0x41d6d1173d4083e7 e=0x3f90a66b04c22e3f m=30652688",
    "periodic seed 2 ladder 3 S&S: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.06608875727802474 s at maximum frequency",
    "periodic seed 2 ladder 3 LAMPS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.06608875727802474 s at maximum frequency",
    "periodic seed 2 ladder 3 S&S+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.06608875727802474 s at maximum frequency",
    "periodic seed 2 ladder 3 LAMPS+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.06608875727802474 s at maximum frequency",
    "periodic seed 2 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.2761232133979157 s at maximum frequency",
    "periodic seed 2 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.2761232133979157 s at maximum frequency",
    "periodic seed 2 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.2761232133979157 s at maximum frequency",
    "periodic seed 2 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.2761232133979157 s at maximum frequency",
    "periodic seed 3 ladder 3 S&S: n=5 f=0x41ce56a567880354 e=0x3f95c3877d62d64a m=7806396",
    "periodic seed 3 ladder 3 LAMPS: n=2 f=0x41d2dd0c0a701368 e=0x3f89419a9a7a2a0a m=10917792",
    "periodic seed 3 ladder 3 S&S+PS: n=5 f=0x41d2dd0c0a701368 e=0x3f8c6b7b424dc5e3 m=7806396",
    "periodic seed 3 ladder 3 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f88a73bacafa258 m=10917792",
    "periodic seed 3 ladder 4 S&S: n=4 f=0x41d6d1173d4083e7 e=0x3fa766bdeb685832 m=13606940",
    "periodic seed 3 ladder 4 LAMPS: n=1 f=0x41e20ab7b7e8abe0 e=0x3f9c514c1ff233c9 m=42678537",
    "periodic seed 3 ladder 4 S&S+PS: n=4 f=0x41d6d1173d4083e7 e=0x3f991e9358e8b54c m=13606940",
    "periodic seed 3 ladder 4 LAMPS+PS: n=2 f=0x41d6d1173d4083e7 e=0x3f9820d15f3efbed m=22337050",
    "periodic seed 4 ladder 3 S&S: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.01506121787514639 s at maximum frequency",
    "periodic seed 4 ladder 3 LAMPS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.01506121787514639 s at maximum frequency",
    "periodic seed 4 ladder 3 S&S+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.01506121787514639 s at maximum frequency",
    "periodic seed 4 ladder 3 LAMPS+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.01506121787514639 s at maximum frequency",
    "periodic seed 4 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.02432543589760343 s at maximum frequency",
    "periodic seed 4 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.02432543589760343 s at maximum frequency",
    "periodic seed 4 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.02432543589760343 s at maximum frequency",
    "periodic seed 4 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.02432543589760343 s at maximum frequency",
    "periodic seed 5 ladder 3 S&S: n=3 f=0x41e20ab7b7e8abe0 e=0x3f9b2c8432159bd9 m=11879386",
    "periodic seed 5 ladder 3 LAMPS: n=2 f=0x41e477e81f57d654 e=0x3f973615b5916ea8 m=13392475",
    "periodic seed 5 ladder 3 S&S+PS: n=3 f=0x41e20ab7b7e8abe0 e=0x3f8e089c3a56e8ca m=11879386",
    "periodic seed 5 ladder 3 LAMPS+PS: n=3 f=0x41e20ab7b7e8abe0 e=0x3f8e089c3a56e8ca m=11879386",
    "periodic seed 5 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.04328538046416403 s at maximum frequency",
    "periodic seed 5 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.04328538046416403 s at maximum frequency",
    "periodic seed 5 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.04328538046416403 s at maximum frequency",
    "periodic seed 5 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.04328538046416403 s at maximum frequency",
    "periodic seed 6 ladder 3 S&S: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.04725022307264242 s at maximum frequency",
    "periodic seed 6 ladder 3 LAMPS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.04725022307264242 s at maximum frequency",
    "periodic seed 6 ladder 3 S&S+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.04725022307264242 s at maximum frequency",
    "periodic seed 6 ladder 3 LAMPS+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.04725022307264242 s at maximum frequency",
    "periodic seed 6 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.194943676740357 s at maximum frequency",
    "periodic seed 6 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.194943676740357 s at maximum frequency",
    "periodic seed 6 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.194943676740357 s at maximum frequency",
    "periodic seed 6 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.194943676740357 s at maximum frequency",
    "periodic seed 7 ladder 3 S&S: n=5 f=0x41c781e37c132887 e=0x3f934a2dc51a9bf8 m=6197696",
    "periodic seed 7 ladder 3 LAMPS: n=1 f=0x41e20ab7b7e8abe0 e=0x3f8cc09b45bf244f m=21948816",
    "periodic seed 7 ladder 3 S&S+PS: n=5 f=0x41d2dd0c0a701368 e=0x3f8d42be64eb28f3 m=6197696",
    "periodic seed 7 ladder 3 LAMPS+PS: n=2 f=0x41d6d1173d4083e7 e=0x3f89c73d1f67e463 m=12784670",
    "periodic seed 7 ladder 4 S&S: n=5 f=0x41d2dd0c0a701368 e=0x3fa8cbb3876bf685 m=12395393",
    "periodic seed 7 ladder 4 LAMPS: n=2 f=0x41d2dd0c0a701368 e=0x3f9984f07721cd1e m=25229497",
    "periodic seed 7 ladder 4 S&S+PS: n=5 f=0x41d2dd0c0a701368 e=0x3f9a4b0cf0efaaec m=12395393",
    "periodic seed 7 ladder 4 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f97e167437dac00 m=25229497",
    "periodic seed 8 ladder 3 S&S: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.012419173084042869 s at maximum frequency",
    "periodic seed 8 ladder 3 LAMPS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.012419173084042869 s at maximum frequency",
    "periodic seed 8 ladder 3 S&S+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.012419173084042869 s at maximum frequency",
    "periodic seed 8 ladder 3 LAMPS+PS: err=deadline 0.010044323059507218 s infeasible: critical path needs 0.012419173084042869 s at maximum frequency",
    "periodic seed 8 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.043925488856748726 s at maximum frequency",
    "periodic seed 8 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.043925488856748726 s at maximum frequency",
    "periodic seed 8 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.043925488856748726 s at maximum frequency",
    "periodic seed 8 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.043925488856748726 s at maximum frequency",
    "periodic seed 9 ladder 3 S&S: n=2 f=0x41c781e37c132887 e=0x3f8060047d4b70ba m=6179862",
    "periodic seed 9 ladder 3 LAMPS: n=1 f=0x41d2dd0c0a701368 e=0x3f7a315c45fb0180 m=11754824",
    "periodic seed 9 ladder 3 S&S+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f7cf08fd6054ec3 m=6179862",
    "periodic seed 9 ladder 3 LAMPS+PS: n=1 f=0x41d2dd0c0a701368 e=0x3f7a315c45fb0180 m=11754824",
    "periodic seed 9 ladder 4 S&S: n=2 f=0x41c781e37c132887 e=0x3f8060047d4b70ba m=6179862",
    "periodic seed 9 ladder 4 LAMPS: n=1 f=0x41d2dd0c0a701368 e=0x3f7a315c45fb0180 m=11754824",
    "periodic seed 9 ladder 4 S&S+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f7cf08fd6054ec3 m=6179862",
    "periodic seed 9 ladder 4 LAMPS+PS: n=1 f=0x41d2dd0c0a701368 e=0x3f7a315c45fb0180 m=11754824",
    "periodic seed 10 ladder 3 S&S: n=4 f=0x41ce56a567880354 e=0x3f91a831223b2983 m=9828093",
    "periodic seed 10 ladder 3 LAMPS: n=1 f=0x41df7072603b4b78 e=0x3f874729bc86c72c m=18393587",
    "periodic seed 10 ladder 3 S&S+PS: n=4 f=0x41ce56a567880354 e=0x3f86e4b8d6133f32 m=9828093",
    "periodic seed 10 ladder 3 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f8567495a47c085 m=11337692",
    "periodic seed 10 ladder 4 S&S: n=3 f=0x41ce56a567880354 e=0x3f9c32490885f322 m=19656186",
    "periodic seed 10 ladder 4 LAMPS: n=1 f=0x41df7072603b4b78 e=0x3f974729bc86c72c m=36787174",
    "periodic seed 10 ladder 4 S&S+PS: n=3 f=0x41ce56a567880354 e=0x3f94e9ff1acbcb8c m=19656186",
    "periodic seed 10 ladder 4 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f9488c834d491a5 m=21658826",
    "periodic seed 11 ladder 3 S&S: n=4 f=0x41df7072603b4b78 e=0x3f9f817c39faa705 m=7876231",
    "periodic seed 11 ladder 3 LAMPS: n=2 f=0x41df7072603b4b78 e=0x3f93ee53fc20c422 m=14253638",
    "periodic seed 11 ladder 3 S&S+PS: n=4 f=0x41df7072603b4b78 e=0x3f91bd9e53b1f03e m=7876231",
    "periodic seed 11 ladder 3 LAMPS+PS: n=2 f=0x41df7072603b4b78 e=0x3f9084d59b2affed m=14253638",
    "periodic seed 11 ladder 4 S&S: n=5 f=0x41e477e81f57d654 e=0x3fb7bedd2117e548 m=15079017",
    "periodic seed 11 ladder 4 LAMPS: n=2 f=0x41e477e81f57d654 e=0x3fa9425be2010d44 m=29567013",
    "periodic seed 11 ladder 4 S&S+PS: n=5 f=0x41e477e81f57d654 e=0x3fa313657d0c75e4 m=15079017",
    "periodic seed 11 ladder 4 LAMPS+PS: n=2 f=0x41e477e81f57d654 e=0x3fa1fcb64c949662 m=29567013",
    "periodic seed 12 ladder 3 S&S: n=3 f=0x41e477e81f57d654 e=0x3fa0426eaa031814 m=12860291",
    "periodic seed 12 ladder 3 LAMPS: n=2 f=0x41e477e81f57d654 e=0x3f991bbddea14664 m=13538931",
    "periodic seed 12 ladder 3 S&S+PS: n=3 f=0x41e477e81f57d654 e=0x3f9337fa1cec926f m=12860291",
    "periodic seed 12 ladder 3 LAMPS+PS: n=2 f=0x41e477e81f57d654 e=0x3f923a9d3f48d89d m=13538931",
    "periodic seed 12 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.16070916895211548 s at maximum frequency",
    "periodic seed 12 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.16070916895211548 s at maximum frequency",
    "periodic seed 12 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.16070916895211548 s at maximum frequency",
    "periodic seed 12 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.16070916895211548 s at maximum frequency",
    "periodic seed 13 ladder 3 S&S: n=2 f=0x41e477e81f57d654 e=0x3f9528cde06605a6 m=8777066",
    "periodic seed 13 ladder 3 LAMPS: n=1 f=0x41e6feb06c6b629d e=0x3f8ed269098fbae1 m=15949415",
    "periodic seed 13 ladder 3 S&S+PS: n=2 f=0x41e477e81f57d654 e=0x3f87390aa388392e m=8777066",
    "periodic seed 13 ladder 3 LAMPS+PS: n=2 f=0x41e477e81f57d654 e=0x3f87390aa388392e m=8777066",
    "periodic seed 13 ladder 4 S&S: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.03039084000052217 s at maximum frequency",
    "periodic seed 13 ladder 4 LAMPS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.03039084000052217 s at maximum frequency",
    "periodic seed 13 ladder 4 S&S+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.03039084000052217 s at maximum frequency",
    "periodic seed 13 ladder 4 LAMPS+PS: err=deadline 0.020088646119014435 s infeasible: critical path needs 0.03039084000052217 s at maximum frequency",
    "periodic seed 14 ladder 3 S&S: n=3 f=0x41c781e37c132887 e=0x3f86417ada1e4463 m=4958741",
    "periodic seed 14 ladder 3 LAMPS: n=1 f=0x41d2dd0c0a701368 e=0x3f78fc49a4fdb3b2 m=10355893",
    "periodic seed 14 ladder 3 S&S+PS: n=3 f=0x41d2dd0c0a701368 e=0x3f7decffcac78d4f m=4958741",
    "periodic seed 14 ladder 3 LAMPS+PS: n=1 f=0x41d2dd0c0a701368 e=0x3f77fc8f30ed32a9 m=10355893",
    "periodic seed 14 ladder 4 S&S: n=3 f=0x41c781e37c132887 e=0x3f96417ae218b84d m=9917483",
    "periodic seed 14 ladder 4 LAMPS: n=1 f=0x41d2dd0c0a701368 e=0x3f88fc49bab5b65d m=20711789",
    "periodic seed 14 ladder 4 S&S+PS: n=3 f=0x41d2dd0c0a701368 e=0x3f89f81359bac4c8 m=9917483",
    "periodic seed 14 ladder 4 LAMPS+PS: n=1 f=0x41d2dd0c0a701368 e=0x3f86ff543cc59810 m=20711789",
    "periodic seed 15 ladder 3 S&S: n=3 f=0x41c781e37c132887 e=0x3f8846a56bb909d2 m=6087588",
    "periodic seed 15 ladder 3 LAMPS: n=1 f=0x41db035cd585da2c e=0x3f83a9e9241e21a1 m=16728092",
    "periodic seed 15 ladder 3 S&S+PS: n=3 f=0x41d2dd0c0a701368 e=0x3f84be7eea8a8542 m=6087588",
    "periodic seed 15 ladder 3 LAMPS+PS: n=1 f=0x41db035cd585da2c e=0x3f83a9e9241e21a1 m=16728092",
    "periodic seed 15 ladder 4 S&S: n=3 f=0x41c781e37c132887 e=0x3f9846a56e61db20 m=12175176",
    "periodic seed 15 ladder 4 LAMPS: n=1 f=0x41db035cd585da2c e=0x3f93a9e928d87948 m=33456185",
    "periodic seed 15 ladder 4 S&S+PS: n=3 f=0x41d2dd0c0a701368 e=0x3f9342a635019e2f m=12175176",
    "periodic seed 15 ladder 4 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3f92c3c5382cc180 m=17710120",
    "kpn seed 0 S&S: n=2 f=0x41e20ab7b7e8abe0 e=0x3fc95405df5e3c4e m=198679982",
    "kpn seed 0 LAMPS: n=1 f=0x41e477e81f57d654 e=0x3fc4206ec86c4e10 m=237019892",
    "kpn seed 0 S&S+PS: n=2 f=0x41e20ab7b7e8abe0 e=0x3fc2ba9d2a26031f m=198679982",
    "kpn seed 0 LAMPS+PS: n=2 f=0x41e20ab7b7e8abe0 e=0x3fc2ba9d2a26031f m=198679982",
    "kpn seed 1 S&S: n=3 f=0x41e20ab7b7e8abe0 e=0x3fbaddbfabc0ba66 m=74057015",
    "kpn seed 1 LAMPS: n=2 f=0x41e20ab7b7e8abe0 e=0x3fb5313b9f58876d m=79346739",
    "kpn seed 1 S&S+PS: n=3 f=0x41e20ab7b7e8abe0 e=0x3fb20498cd0efcc1 m=74057015",
    "kpn seed 1 LAMPS+PS: n=2 f=0x41e20ab7b7e8abe0 e=0x3fb1c52cce58eb5a m=79346739",
    "kpn seed 2 S&S: err=deadline 0.04198548229155568 s infeasible: critical path needs 0.059282145383016495 s at maximum frequency",
    "kpn seed 2 LAMPS: err=deadline 0.04198548229155568 s infeasible: critical path needs 0.059282145383016495 s at maximum frequency",
    "kpn seed 2 S&S+PS: err=deadline 0.04198548229155568 s infeasible: critical path needs 0.059282145383016495 s at maximum frequency",
    "kpn seed 2 LAMPS+PS: err=deadline 0.04198548229155568 s infeasible: critical path needs 0.059282145383016495 s at maximum frequency",
    "kpn seed 3 S&S: n=3 f=0x41e477e81f57d654 e=0x3fd3aa9b99cd3e48 m=201019055",
    "kpn seed 3 LAMPS: n=2 f=0x41e477e81f57d654 e=0x3fcfe3006f155fbe m=209557165",
    "kpn seed 3 S&S+PS: n=3 f=0x41e477e81f57d654 e=0x3fccd9e5ab098005 m=201019055",
    "kpn seed 3 LAMPS+PS: n=2 f=0x41e477e81f57d654 e=0x3fccaa48b5e0b4e2 m=209557165",
    "kpn seed 4 S&S: n=5 f=0x41e477e81f57d654 e=0x3fd9caa16d33ddac m=176928069",
    "kpn seed 4 LAMPS: n=3 f=0x41e477e81f57d654 e=0x3fd36885a014edb1 m=184451453",
    "kpn seed 4 S&S+PS: n=5 f=0x41e477e81f57d654 e=0x3fd0f9669f8081f9 m=176928069",
    "kpn seed 4 LAMPS+PS: n=3 f=0x41e477e81f57d654 e=0x3fd0b9facd42a76e m=184451453",
    "kpn seed 5 S&S: n=2 f=0x41e477e81f57d654 e=0x3fe4bc503abcd21c m=575425947",
    "kpn seed 5 LAMPS: n=1 f=0x41e477e81f57d654 e=0x3fdd58738f4be15e m=693319115",
    "kpn seed 5 S&S+PS: n=2 f=0x41e477e81f57d654 e=0x3fdd0b25463a69fd m=575425947",
    "kpn seed 5 LAMPS+PS: n=1 f=0x41e477e81f57d654 e=0x3fdce35ce21bd74c m=693319115",
    "kpn seed 6 S&S: n=4 f=0x41db035cd585da2c e=0x3fe18580fc4fda28 m=239212698",
    "kpn seed 6 LAMPS: n=2 f=0x41db035cd585da2c e=0x3fd69ac7209ca732 m=322747460",
    "kpn seed 6 S&S+PS: n=4 f=0x41db035cd585da2c e=0x3fd49dc8970e7a72 m=239212698",
    "kpn seed 6 LAMPS+PS: n=2 f=0x41db035cd585da2c e=0x3fd46611bc46f905 m=322747460",
    "kpn seed 7 S&S: err=deadline 0.12074505937076412 s infeasible: critical path needs 1.7168655988110395 s at maximum frequency",
    "kpn seed 7 LAMPS: err=deadline 0.12074505937076412 s infeasible: critical path needs 1.7168655988110395 s at maximum frequency",
    "kpn seed 7 S&S+PS: err=deadline 0.12074505937076412 s infeasible: critical path needs 1.7168655988110395 s at maximum frequency",
    "kpn seed 7 LAMPS+PS: err=deadline 0.12074505937076412 s infeasible: critical path needs 1.7168655988110395 s at maximum frequency",
    "kpn seed 8 S&S: n=5 f=0x41e6feb06c6b629d e=0x3ff69c094fe1ba14 m=342431807",
    "kpn seed 8 LAMPS: n=2 f=0x41e6feb06c6b629d e=0x3fe97b35410531d6 m=489570294",
    "kpn seed 8 S&S+PS: n=5 f=0x41e6feb06c6b629d e=0x3fe41515d6b4aa5c m=342431807",
    "kpn seed 8 LAMPS+PS: n=2 f=0x41e6feb06c6b629d e=0x3fe3f12a369b4ccc m=489570294",
    "kpn seed 9 S&S: n=3 f=0x41e20ab7b7e8abe0 e=0x3fd6a0e76bece15e m=176216515",
    "kpn seed 9 LAMPS: n=1 f=0x41e477e81f57d654 e=0x3fcb7ed8ba4ba8e3 m=317220819",
    "kpn seed 9 S&S+PS: n=3 f=0x41e20ab7b7e8abe0 e=0x3fc9309ee5ac6dd3 m=176216515",
    "kpn seed 9 LAMPS+PS: n=2 f=0x41e20ab7b7e8abe0 e=0x3fc910c21e3badc4 m=204768925",
    "kpn seed 10 S&S: n=2 f=0x41df7072603b4b78 e=0x3fcc303ce3c21603 m=212469806",
    "kpn seed 10 LAMPS: n=2 f=0x41df7072603b4b78 e=0x3fcc303ce3c21603 m=212469806",
    "kpn seed 10 S&S+PS: n=2 f=0x41df7072603b4b78 e=0x3fc94e27343ac098 m=212469806",
    "kpn seed 10 LAMPS+PS: n=2 f=0x41df7072603b4b78 e=0x3fc94e27343ac098 m=212469806",
    "kpn seed 11 S&S: err=deadline 0.05153309089504078 s infeasible: critical path needs 0.11131493442899218 s at maximum frequency",
    "kpn seed 11 LAMPS: err=deadline 0.05153309089504078 s infeasible: critical path needs 0.11131493442899218 s at maximum frequency",
    "kpn seed 11 S&S+PS: err=deadline 0.05153309089504078 s infeasible: critical path needs 0.11131493442899218 s at maximum frequency",
    "kpn seed 11 LAMPS+PS: err=deadline 0.05153309089504078 s infeasible: critical path needs 0.11131493442899218 s at maximum frequency",
    "uniform seed 0 S&S: n=2 f=0x41e6feb06c6b629d e=0x3fca8bc552ccd634 m=183830000",
    "uniform seed 0 LAMPS: n=2 f=0x41e6feb06c6b629d e=0x3fca8bc552ccd634 m=183830000",
    "uniform seed 0 S&S+PS: n=2 f=0x41e6feb06c6b629d e=0x3fc6d807d58d669b m=183830000",
    "uniform seed 0 LAMPS+PS: n=2 f=0x41e6feb06c6b629d e=0x3fc6d807d58d669b m=183830000",
    "uniform seed 1 S&S: n=7 f=0x41df7072603b4b78 e=0x3ff1493dfc41d07b m=285200000",
    "uniform seed 1 LAMPS: n=7 f=0x41df7072603b4b78 e=0x3ff1493dfc41d07b m=285200000",
    "uniform seed 1 S&S+PS: n=7 f=0x41df7072603b4b78 e=0x3fefe93a74805490 m=285200000",
    "uniform seed 1 LAMPS+PS: n=7 f=0x41df7072603b4b78 e=0x3fefe93a74805490 m=285200000",
    "uniform seed 2 S&S: n=9 f=0x41db035cd585da2c e=0x3ffc133d8fb0d758 m=362390000",
    "uniform seed 2 LAMPS: n=6 f=0x41df7072603b4b78 e=0x3ff9838000229c03 m=471510000",
    "uniform seed 2 S&S+PS: n=9 f=0x41db035cd585da2c e=0x3ff749fd57db8ef0 m=362390000",
    "uniform seed 2 LAMPS+PS: n=8 f=0x41db035cd585da2c e=0x3ff74401e5ac40a3 m=366420000",
    "uniform seed 3 S&S: n=4 f=0x41c781e37c132887 e=0x3fd549549008e0ba m=180110000",
    "uniform seed 3 LAMPS: n=1 f=0x41d2dd0c0a701368 e=0x3fc396cfa2186ec4 m=294190000",
    "uniform seed 3 S&S+PS: n=4 f=0x41d2dd0c0a701368 e=0x3fc3f98460dd7da5 m=180110000",
    "uniform seed 3 LAMPS+PS: n=1 f=0x41d2dd0c0a701368 e=0x3fc396cfa2186ec4 m=294190000",
    "uniform seed 4 S&S: n=8 f=0x41b7776969a2644f e=0x3ffc65f2e31e4176 m=314030000",
    "uniform seed 4 LAMPS: n=1 f=0x41df7072603b4b78 e=0x3fefa2820fc2e882 m=1707790000",
    "uniform seed 4 S&S+PS: n=8 f=0x41d2dd0c0a701368 e=0x3fecafd2201bced9 m=314030000",
    "uniform seed 4 LAMPS+PS: n=2 f=0x41d2dd0c0a701368 e=0x3fec62a4712ba785 m=881640000",
    "uniform seed 5 S&S: n=9 f=0x41e6feb06c6b629d e=0x40004f16f74c7a8a m=363630000",
    "uniform seed 5 LAMPS: n=9 f=0x41e6feb06c6b629d e=0x40004f16f74c7a8a m=363630000",
    "uniform seed 5 S&S+PS: n=9 f=0x41e6feb06c6b629d e=0x3ffe7e3c7975cb17 m=363630000",
    "uniform seed 5 LAMPS+PS: n=9 f=0x41e6feb06c6b629d e=0x3ffe7e3c7975cb17 m=363630000",
    "past-horizon seed 0 S&S: n=2 f=0x41df7072603b4b78 e=0x3fc7108ed07a94d0 m=183830000",
    "past-horizon seed 0 LAMPS: n=2 f=0x41df7072603b4b78 e=0x3fc7108ed07a94d0 m=183830000",
    "past-horizon seed 0 S&S+PS: n=2 f=0x41df7072603b4b78 e=0x3fc31210622ffdce m=183830000",
    "past-horizon seed 0 LAMPS+PS: n=2 f=0x41df7072603b4b78 e=0x3fc31210622ffdce m=183830000",
    "past-horizon seed 1 S&S: n=7 f=0x41df7072603b4b78 e=0x3ff1493dfc41d07b m=285200000",
    "past-horizon seed 1 LAMPS: n=7 f=0x41df7072603b4b78 e=0x3ff1493dfc41d07b m=285200000",
    "past-horizon seed 1 S&S+PS: n=7 f=0x41df7072603b4b78 e=0x3fefe93a74805490 m=285200000",
    "past-horizon seed 1 LAMPS+PS: n=7 f=0x41df7072603b4b78 e=0x3fefe93a74805490 m=285200000",
    "past-horizon seed 2 S&S: n=9 f=0x41df7072603b4b78 e=0x3ffb1118733bfecf m=362390000",
    "past-horizon seed 2 LAMPS: n=9 f=0x41df7072603b4b78 e=0x3ffb1118733bfecf m=362390000",
    "past-horizon seed 2 S&S+PS: n=9 f=0x41df7072603b4b78 e=0x3ff8744643773e12 m=362390000",
    "past-horizon seed 2 LAMPS+PS: n=9 f=0x41df7072603b4b78 e=0x3ff8744643773e12 m=362390000",
];
