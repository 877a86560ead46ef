//! Golden bits: the energy and makespan of fixed fault, online and
//! simulator runs, pinned to the exact `f64` bit patterns the three
//! executors produced before they were merged into one. Any change to
//! the executor that moves a single bit of these reports fails here.
//!
//! Regenerate a table only for an intended behaviour change: print the
//! new bits with `{:#018x}` and say why they moved.

use lamps_core::multi::{solve_with_deadlines, DeadlineVector};
use lamps_core::{solve, CancelToken, SchedulerConfig, SolveBudget, Strategy};
use lamps_kpn::{PeriodicDag, PeriodicSet};
use lamps_sched::ProcId;
use lamps_sim::{
    actual_cycles, run_online, run_with_faults, simulate, DvsSwitchCost, FailStop, FaultIntensity,
    FaultPlan, OnlineConfig, OnlineStream, Policy, RecoveryPolicy,
};
use lamps_taskgraph::gen::layered::{generate, stg_group, LayeredConfig};
use lamps_taskgraph::TaskGraph;

fn cfg() -> SchedulerConfig {
    SchedulerConfig::paper()
}

fn coarse_graph(seed: u64) -> TaskGraph {
    generate(
        &LayeredConfig {
            n_tasks: 40,
            n_layers: 8,
            ..LayeredConfig::default()
        },
        seed,
    )
    .scale_weights(3_100_000)
}

/// `(total energy, makespan)` bits of `run_with_faults` over chaos plans
/// at every intensity, both policies, free and typical switching, plus
/// lone fail-stops.
fn fault_bits() -> Vec<(u64, u64)> {
    let cfg = cfg();
    let mut out = Vec::new();
    for seed in 0..12u64 {
        let g = coarse_graph(seed % 5 + 10);
        let d = [1.3, 1.6, 2.5][seed as usize % 3] * g.critical_path_cycles() as f64
            / cfg.max_frequency();
        let sol = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
        let intensity = match seed % 3 {
            0 => FaultIntensity::mild(),
            1 => FaultIntensity::moderate(),
            _ => FaultIntensity::severe(),
        };
        let actual = actual_cycles(&g, 0.5, 0.9, seed);
        let chaos = FaultPlan::random(&g, sol.n_procs, d, &intensity, seed);
        let fail_stop = FaultPlan {
            fail_stop: Some(FailStop {
                proc: ProcId(seed as u32 % sol.n_procs as u32),
                at_s: sol.makespan_s * 0.4,
            }),
            ..FaultPlan::none()
        };
        for plan in [&chaos, &fail_stop] {
            for sw in [DvsSwitchCost::free(), DvsSwitchCost::typical()] {
                for policy in [RecoveryPolicy::Absorb, RecoveryPolicy::Boost] {
                    let r = run_with_faults(&g, &sol, &actual, plan, d, policy, &cfg, &sw).unwrap();
                    out.push((r.total_energy().to_bits(), r.makespan_s.to_bits()));
                }
            }
        }
    }
    out
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

/// `(total energy, sum of frame makespans)` bits of `run_online` over
/// reclaiming, static, overload, budgeted, cancelled and faulty streams.
fn online_bits() -> Vec<(u64, u64)> {
    let cfg = cfg();
    let f_max = cfg.max_frequency();
    let token = CancelToken::new();
    token.cancel();
    let configs = [
        OnlineConfig::reclaiming(),
        OnlineConfig::static_plan(),
        OnlineConfig {
            max_backlog: 1,
            reclaim: false,
            policy: RecoveryPolicy::Absorb,
            ..OnlineConfig::static_plan()
        },
        OnlineConfig {
            frame_budget: SolveBudget::steps(1),
            ..OnlineConfig::reclaiming()
        },
        OnlineConfig {
            frame_budget: SolveBudget::unlimited().with_token(token),
            ..OnlineConfig::reclaiming()
        },
        OnlineConfig {
            switch: DvsSwitchCost::typical(),
            ..OnlineConfig::reclaiming()
        },
    ];
    let mut out = Vec::new();
    for dag in [pipeline_dag(), wide_dag()] {
        let dv = DeadlineVector::from_kpn(dag.deadlines.clone(), dag.hyperperiod_cycles);
        let n_procs = solve_with_deadlines(Strategy::LampsPs, &dag.graph, &dv, &cfg)
            .unwrap()
            .n_procs;
        let streams = [
            OnlineStream::synthesize(&dag, 1, 6, 1.0, 0.45, 0.7, None, f_max, 17),
            OnlineStream::periodic(&dag, 8, 0.4, f_max),
            OnlineStream::synthesize(
                &dag,
                n_procs,
                6,
                0.8,
                0.5,
                0.9,
                Some(&FaultIntensity::severe()),
                f_max,
                3,
            ),
        ];
        for ocfg in &configs {
            for stream in &streams {
                let r = run_online(&dag, stream, ocfg, &cfg).unwrap();
                let makespans: f64 = r.frames.iter().map(|f| f.makespan_s).sum();
                out.push((r.total_energy().to_bits(), makespans.to_bits()));
            }
        }
    }
    out
}

/// `(total energy, makespan)` bits of `simulate` under both policies.
fn simulate_bits() -> Vec<(u64, u64)> {
    let cfg = cfg();
    let mut out = Vec::new();
    for (gi, g) in stg_group(60, 6, 2006).into_iter().enumerate() {
        let g = g.scale_weights(3_100_000);
        let d = 1.5 * g.critical_path_cycles() as f64 / cfg.max_frequency();
        let sol = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
        let actual = actual_cycles(&g, 0.3, 0.9, gi as u64);
        for policy in [Policy::Static, Policy::SlackReclaim] {
            let r = simulate(&g, &sol, &actual, d, policy, &cfg);
            out.push((r.total_energy().to_bits(), r.makespan_s.to_bits()));
        }
    }
    out
}

fn assert_bits(name: &str, got: &[(u64, u64)], want: &[(u64, u64)]) {
    assert_eq!(got.len(), want.len(), "{name}: run count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g,
            w,
            "{name} run {i}: got ({}, {}), golden ({}, {})",
            f64::from_bits(g.0),
            f64::from_bits(g.1),
            f64::from_bits(w.0),
            f64::from_bits(w.1)
        );
    }
}

const FAULT: [(u64, u64); 96] = [
    (0x40208d85f6bd5b7c, 0x3ff6ad0031976a88),
    (0x40208d85f6bd5b7c, 0x3ff6ad0031976a88),
    (0x40208d85f6bd5b7c, 0x3ff6ad0031976a88),
    (0x40208d85f6bd5b7c, 0x3ff6ad0031976a88),
    (0x4020ee597ccdcef6, 0x3ff6ad0031976a88),
    (0x4020ee597ccdcef6, 0x3ff6ad0031976a88),
    (0x4020ee597ccdcef6, 0x3ff6ad0031976a88),
    (0x4020ee597ccdcef6, 0x3ff6ad0031976a88),
    (0x40245298b05a4c65, 0x400221699e7a279d),
    (0x4024a949278c7326, 0x400221699e7a279d),
    (0x40245298b05a4c65, 0x400221699e7a279d),
    (0x4024a96091616516, 0x400221699e7a279d),
    (0x40208658cd3ea3d7, 0x3ffc09164f35c1ec),
    (0x40208658cd3ea3d7, 0x3ffc09164f35c1ec),
    (0x40208658cd3ea3d7, 0x3ffc09164f35c1ec),
    (0x40208658cd3ea3d7, 0x3ffc09164f35c1ec),
    (0x4023eca18b6b19fe, 0x40124d89f2aab2b4),
    (0x4025d746f3a9d9fe, 0x4011002e32ed2a9c),
    (0x4023eca18b6b19fe, 0x40124d89f2aab2b4),
    (0x4025d77f6fd126d7, 0x40110052e62ada2a),
    (0x401aa9c4ded1685b, 0x4007986507bd29a7),
    (0x401aa9c4ded1685b, 0x4007986507bd29a7),
    (0x401aa9c4ded1685b, 0x4007986507bd29a7),
    (0x401aa9c4ded1685b, 0x4007986507bd29a7),
    (0x40222527f69ad89a, 0x3ff8627d4bf05736),
    (0x40222527f69ad89a, 0x3ff8627d4bf05736),
    (0x40222527f69ad89a, 0x3ff8627d4bf05736),
    (0x40222527f69ad89a, 0x3ff8627d4bf05736),
    (0x4021c4b2e6621c95, 0x3ff8627d4bf05736),
    (0x4021c4b2e6621c95, 0x3ff8627d4bf05736),
    (0x4021c4b2e6621c95, 0x3ff8627d4bf05736),
    (0x4021c4b2e6621c95, 0x3ff8627d4bf05736),
    (0x40247137143c9d1c, 0x400192e635836ddf),
    (0x40249bc843cbdd91, 0x4000efedb2749e13),
    (0x40247137143c9d1c, 0x400192e635836ddf),
    (0x40249be538b2b96d, 0x4000f03718effd2f),
    (0x40224406115dda4b, 0x3ffc95ab011dd9f9),
    (0x40224406115dda4b, 0x3ffc95ab011dd9f9),
    (0x40224406115dda4b, 0x3ffc95ab011dd9f9),
    (0x40224406115dda4b, 0x3ffc95ab011dd9f9),
    (0x402e734fd7fb50b0, 0x40185d360c25fe7b),
    (0x40304251ad565067, 0x40142fdf8a31f47c),
    (0x402e734fd7fb50b0, 0x40185d360c25fe7b),
    (0x4030426423b096f7, 0x40142fdf8a31f47c),
    (0x401faf640cd4dc9b, 0x4008029700b49f1e),
    (0x401faf640cd4dc9b, 0x4008029700b49f1e),
    (0x401faf640cd4dc9b, 0x4008029700b49f1e),
    (0x401faf640cd4dc9b, 0x4008029700b49f1e),
    (0x4021327afe7456de, 0x3ff717c5ff076102),
    (0x402132e0fd7516b9, 0x3ff717c5ff076102),
    (0x4021327afe7456de, 0x3ff717c5ff076102),
    (0x402132edb8483197, 0x3ff717c5ff076102),
    (0x40202a9f2d48403b, 0x3ff697e09ff2e0a3),
    (0x40202a9f2d48403b, 0x3ff697e09ff2e0a3),
    (0x40202a9f2d48403b, 0x3ff697e09ff2e0a3),
    (0x40202a9f2d48403b, 0x3ff697e09ff2e0a3),
    (0x40219494932c36f5, 0x4003e4cfd52ecd95),
    (0x40219494932c36f5, 0x4003e4cfd52ecd95),
    (0x40219494932c36f5, 0x4003e4cfd52ecd95),
    (0x40219494932c36f5, 0x4003e4cfd52ecd95),
    (0x401c5a08fabd681d, 0x3ffbda9057a4e003),
    (0x401c5a08fabd681d, 0x3ffbda9057a4e003),
    (0x401c5a08fabd681d, 0x3ffbda9057a4e003),
    (0x401c5a08fabd681d, 0x3ffbda9057a4e003),
    (0x402a4cbde03c5c22, 0x4015b45a8acc9952),
    (0x402e6636f6ce697b, 0x400f5b9670153cdc),
    (0x402a4cbde03c5c22, 0x4015b45a8acc9952),
    (0x402e666a4b48c466, 0x400f5c293d0bfb14),
    (0x401e7ed066967379, 0x40082dc9363e1dfe),
    (0x401e7ed066967379, 0x40082dc9363e1dfe),
    (0x401e7ed066967379, 0x40082dc9363e1dfe),
    (0x401e7ed066967379, 0x40082dc9363e1dfe),
    (0x4022b4d83795cd13, 0x3ff72d911e862160),
    (0x4022b4d83795cd13, 0x3ff72d911e862160),
    (0x4022b4d83795cd13, 0x3ff72d911e862160),
    (0x4022b4d83795cd13, 0x3ff72d911e862160),
    (0x40222fc4eb6671af, 0x3ff5e4ad5b1e99b8),
    (0x40222fc4eb6671af, 0x3ff5e4ad5b1e99b8),
    (0x40222fc4eb6671af, 0x3ff5e4ad5b1e99b8),
    (0x40222fc4eb6671af, 0x3ff5e4ad5b1e99b8),
    (0x40258f94c31c8c09, 0x4009303433bf9d05),
    (0x4027ecd1ce61255b, 0x400329671227cab7),
    (0x40258f94c31c8c09, 0x4009303433bf9d05),
    (0x4027ecfb0db2f33c, 0x400329b078a329d3),
    (0x4020b84277a4fbff, 0x40016ac88661b97e),
    (0x4020b84277a4fbff, 0x40016ac88661b97e),
    (0x4020b84277a4fbff, 0x40016ac88661b97e),
    (0x4020b84277a4fbff, 0x40016ac88661b97e),
    (0x402a19f7b173d122, 0x401923c74b65e5c5),
    (0x402f29fb4c1779e9, 0x4011e179c9ec0a46),
    (0x402a19f7b173d122, 0x401923c74b65e5c5),
    (0x402f2a2c891ba7b7, 0x4011e1b0d6c8919c),
    (0x401ba0bc59c621c7, 0x4003b9c6d9b69725),
    (0x401ba0bc59c621c7, 0x4003b9c6d9b69725),
    (0x401ba0bc59c621c7, 0x4003b9c6d9b69725),
    (0x401ba0bc59c621c7, 0x4003b9c6d9b69725),
];

const ONLINE: [(u64, u64); 36] = [
    (0x3fba643ead13aa7e, 0x3fb5c3d7b5c59748),
    (0x3fc8f91bce299d7b, 0x3fbbf49dae0c96dc),
    (0x3fb22d6134ed6818, 0x3f9ed2c060cfd39e),
    (0x3fbd28e4f238d144, 0x3fafcf94f9668175),
    (0x3fc8f91bce299d7b, 0x3fbbf49dae0c96dc),
    (0x3fb2b749ea3bad11, 0x3f9cc5d6e8a73ae3),
    (0x3fbd28e4f238d144, 0x3fafcf94f9668175),
    (0x3fc4cf972bcd5891, 0x3fb74bd8bbb52862),
    (0x3fb296f18b5a23af, 0x3f9d3bb41acd9426),
    (0x3fba5a574399a657, 0x3fb59e6740ef389a),
    (0x3fc8f91bce299d7b, 0x3fbbf49dae0c96dc),
    (0x3fb1d523b23bce97, 0x3f9d974f04ccec09),
    (0x3fba5a574399a657, 0x3fb59e6740ef389a),
    (0x3fc8f91bce299d7b, 0x3fbbf49dae0c96dc),
    (0x3fb1d523b23bce97, 0x3f9d974f04ccec09),
    (0x3fbb79e844c93f5a, 0x3fb3875ae2974285),
    (0x3fc8f91bce299d7b, 0x3fbbf49dae0c96dc),
    (0x3fb28737e6a3beff, 0x3f9e3fa0178d2807),
    (0x3fbe844179274358, 0x3fb60edf3abf3b4e),
    (0x3fcaf9f325b7ccb3, 0x3fbbaa1c9f969451),
    (0x3fd17ee2fc1a6cd5, 0x3fc2ed236484b689),
    (0x3fc054aa37b63d41, 0x3fb085e46d3d848d),
    (0x3fcaf9f325b7ccb3, 0x3fbbaa1c9f969451),
    (0x3fd1abd4a075c9c9, 0x3fc17b74eaadb1da),
    (0x3fc054aa37b63d41, 0x3fb085e46d3d848d),
    (0x3fc67af54a192a94, 0x3fb70dc284fd7b99),
    (0x3fc9b8683ca31b45, 0x3fc21368efb51fe0),
    (0x3fbe7391f791c336, 0x3fb5b55f89c86370),
    (0x3fcaf9f325b7ccb3, 0x3fbbaa1c9f969451),
    (0x3fd1b2d71430980c, 0x3fc3109b77c8a9a8),
    (0x3fbe7391f791c336, 0x3fb5b55f89c86370),
    (0x3fcaf9f325b7ccb3, 0x3fbbaa1c9f969451),
    (0x3fd1b2d71430980c, 0x3fc3109b77c8a9a8),
    (0x3fbf6b9089e8590e, 0x3fb384358f8c4bb0),
    (0x3fcaf9f325b7ccb3, 0x3fbbaa1c9f969451),
    (0x3fd18f4d8e349cb0, 0x3fc2b0690d7f3e80),
];

/// Makespans are the parent's bits; energies too, but for one run where
/// only the summation order of `active_j` moved the last bit.
const SIMULATE: [(u64, u64); 12] = [
    (0x40215afa874baf03, 0x4012850b31ae3c85),
    (0x401f6e9579caca85, 0x401dd8420e2d4bde),
    (0x40220f88762429e2, 0x40197764d903edd4),
    (0x402078385962cdf5, 0x402414f0f034359f),
    (0x402395e7ed850d95, 0x4015f3beed3f86b5),
    // The parent's energy here was 0x4021e2eeb819b235: `active_j` is now
    // summed in retirement order rather than task-id order, one ulp apart.
    (0x4021e2eeb819b234, 0x40208ef7367f4a3e),
    (0x402228a046c6d243, 0x40070b62f605b0ef),
    (0x40209a0c69f6e46b, 0x40105c24023d23d3),
    (0x40253403e097f30d, 0x401206ce208e5b2e),
    (0x40237a594000d403, 0x401a97970f128ec8),
    (0x4025a6bb14c3f413, 0x3fefd2134a7937ee),
    (0x402481b4d4b1b1cb, 0x3ff4b0a32b61f709),
];

#[test]
fn fault_runs_keep_their_bits() {
    assert_bits("run_with_faults", &fault_bits(), &FAULT);
}

#[test]
fn online_runs_keep_their_bits() {
    assert_bits("run_online", &online_bits(), &ONLINE);
}

#[test]
fn simulate_keeps_its_bits() {
    assert_bits("simulate", &simulate_bits(), &SIMULATE);
}
