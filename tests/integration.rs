//! Cross-crate integration tests: the full pipeline from graph sources
//! (generators, STG text, KPN unrolling, MPEG) through scheduling and
//! energy accounting, checking the paper's qualitative claims end to end.

use leakage_sched::core::limits::{limit_mf, limit_sf};
use leakage_sched::kpn::{unroll, Network, UnrollConfig};
use leakage_sched::prelude::*;
use leakage_sched::sched::deadlines::latest_finish_times_with;
use leakage_sched::sched::list::list_schedule;
use leakage_sched::taskgraph::apps::{mpeg, proxies};
use leakage_sched::taskgraph::gen::layered::stg_group;
use leakage_sched::taskgraph::gen::spine::with_parallelism;
use leakage_sched::taskgraph::{stg, COARSE_GRAIN_CYCLES_PER_UNIT, FINE_GRAIN_CYCLES_PER_UNIT};

fn cfg() -> SchedulerConfig {
    SchedulerConfig::paper()
}

fn deadline(graph: &TaskGraph, factor: f64) -> f64 {
    factor * graph.critical_path_cycles() as f64 / cfg().max_frequency()
}

/// The dominance chain of §4 on a diverse set of generated graphs, both
/// granularities, all deadline factors.
#[test]
fn dominance_chain_across_suite() {
    let cfg = cfg();
    let mut checked = 0;
    for (i, g) in stg_group(60, 4, 77).into_iter().enumerate() {
        for unit in [COARSE_GRAIN_CYCLES_PER_UNIT, FINE_GRAIN_CYCLES_PER_UNIT] {
            let scaled = g.clone().scale_weights(unit);
            for factor in [1.5, 2.0, 4.0, 8.0] {
                let d = deadline(&scaled, factor);
                let e = |s| {
                    solve(s, &scaled, d, &cfg)
                        .unwrap_or_else(|e| panic!("graph {i} {factor}x: {e}"))
                        .energy
                        .total()
                };
                let ss = e(Strategy::ScheduleStretch);
                let lamps = e(Strategy::Lamps);
                let ss_ps = e(Strategy::ScheduleStretchPs);
                let lamps_ps = e(Strategy::LampsPs);
                let sf = limit_sf(&scaled, d, &cfg).unwrap().energy_j;
                let mf = limit_mf(&scaled, d, &cfg).unwrap().energy_j;
                let eps = ss * 1e-9;
                assert!(lamps <= ss + eps);
                assert!(ss_ps <= ss + eps);
                assert!(lamps_ps <= lamps + eps);
                assert!(lamps_ps <= ss_ps + eps);
                assert!(sf <= lamps_ps + eps);
                assert!(mf <= sf + eps);
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 4 * 2 * 4);
}

/// Table 3's qualitative content for the MPEG-1 GOP.
#[test]
fn mpeg_table3_shape() {
    let cfg = cfg();
    let g = mpeg::paper_gop();
    let d = mpeg::GOP_DEADLINE_SECONDS;

    let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg).unwrap();
    let lamps = solve(Strategy::Lamps, &g, d, &cfg).unwrap();
    let ss_ps = solve(Strategy::ScheduleStretchPs, &g, d, &cfg).unwrap();
    let lamps_ps = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
    let sf = limit_sf(&g, d, &cfg).unwrap();
    let mf = limit_mf(&g, d, &cfg).unwrap();

    // LAMPS drops to 3 processors (paper: 3) and saves substantially.
    assert_eq!(lamps.n_procs, 3);
    assert!(lamps.energy.total() < 0.9 * ss.energy.total());
    // The PS variants land within 1% of the single-frequency bound
    // (paper: 10.947..10.949 vs 10.940).
    assert!(ss_ps.energy.total() <= 1.01 * sf.energy_j);
    assert!(lamps_ps.energy.total() <= 1.01 * sf.energy_j);
    // LAMPS+PS uses fewer processors than S&S+PS (paper: 6 vs 7).
    assert!(lamps_ps.n_procs < ss_ps.n_procs);
    // Loose enough deadline that both limits coincide (0.5 s ≥ CPL at
    // the critical frequency).
    assert!((sf.energy_j - mf.energy_j).abs() < 1e-9);
}

/// §5.2 headline: at loose deadlines LAMPS(+PS) saves a large fraction
/// vs S&S on low-parallelism workloads, and LAMPS+PS attains most of the
/// LIMIT-SF potential for coarse-grain tasks.
#[test]
fn loose_deadline_headline_savings() {
    let cfg = cfg();
    let g = proxies::robot().scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
    let d = deadline(&g, 8.0);
    let ss = solve(Strategy::ScheduleStretch, &g, d, &cfg).unwrap();
    let lamps_ps = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
    let sf = limit_sf(&g, d, &cfg).unwrap();

    let saving = 1.0 - lamps_ps.energy.total() / ss.energy.total();
    assert!(saving > 0.5, "saving {saving} (paper: up to 73%)");

    let attained =
        (ss.energy.total() - lamps_ps.energy.total()) / (ss.energy.total() - sf.energy_j);
    assert!(attained > 0.94, "attained {attained} (paper: >94%)");
}

/// STG text → graph → solve round trip.
#[test]
fn stg_text_to_solution() {
    let g0 = proxies::sparse();
    let text = stg::write(&g0);
    let g = stg::parse(&text)
        .unwrap()
        .scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
    assert_eq!(g.len(), 96);
    let d = deadline(&g, 2.0);
    let sol = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
    sol.schedule.validate(&g).unwrap();
    assert!(sol.makespan_s <= d * (1.0 + 1e-9));
}

/// KPN unrolling composes with per-task deadline propagation and the
/// list scheduler, and the chosen level honours every copy's deadline.
#[test]
fn kpn_stream_meets_every_copy_deadline() {
    let cfg = cfg();
    let f_max = cfg.max_frequency();
    let net = Network::fig1_example(25_000_000, 60_000_000, 35_000_000);
    let unrolled = unroll(
        &net,
        &UnrollConfig {
            copies: 6,
            first_deadline_cycles: (0.060 * f_max) as u64,
            period_cycles: (0.030 * f_max) as u64,
        },
    )
    .unwrap();
    let graph = &unrolled.graph;
    let lf = latest_finish_times_with(graph, unrolled.horizon_cycles(), &unrolled.deadlines);
    let schedule = list_schedule(graph, 2, &lf);
    schedule.validate(graph).unwrap();

    let mut required = 0.0f64;
    for t in graph.tasks() {
        required = required.max(schedule.finish(t) as f64 * f_max / lf[t.index()] as f64);
    }
    let level = cfg.levels.lowest_at_least(required).expect("feasible");
    for t in graph.tasks() {
        let finish_s = schedule.finish(t) as f64 / level.freq;
        let due_s = lf[t.index()] as f64 / f_max;
        assert!(finish_s <= due_s + 1e-9, "{t} finishes late");
    }
}

/// Determinism: the whole pipeline gives identical results on identical
/// inputs (graphs, schedules, energies).
#[test]
fn end_to_end_determinism() {
    let run = || {
        let g = with_parallelism(300, 6.0, 123).scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
        let d = deadline(&g, 2.0);
        let sol = solve(Strategy::LampsPs, &g, d, &cfg()).unwrap();
        (
            sol.n_procs,
            sol.level.vdd.to_bits(),
            sol.energy.total().to_bits(),
            sol.makespan_cycles,
        )
    };
    assert_eq!(run(), run());
}

/// Fine-grain graphs sleep less than coarse-grain ones (§5.2): with the
/// same structure, the coarse version must find at least as many
/// beneficial sleep opportunities.
#[test]
fn granularity_controls_shutdown_opportunities() {
    let cfg = cfg();
    let g = proxies::sparse();
    let coarse = g.clone().scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
    let fine = g.scale_weights(FINE_GRAIN_CYCLES_PER_UNIT);
    let dc = deadline(&coarse, 2.0);
    let df = deadline(&fine, 2.0);
    let sc = solve(Strategy::ScheduleStretchPs, &coarse, dc, &cfg).unwrap();
    let sf_ = solve(Strategy::ScheduleStretchPs, &fine, df, &cfg).unwrap();
    assert!(
        sc.energy.sleep_episodes >= sf_.energy.sleep_episodes,
        "coarse {} < fine {}",
        sc.energy.sleep_episodes,
        sf_.energy.sleep_episodes
    );
    // And the relative gain of PS over plain S&S is larger for coarse.
    let ss_c = solve(Strategy::ScheduleStretch, &coarse, dc, &cfg).unwrap();
    let ss_f = solve(Strategy::ScheduleStretch, &fine, df, &cfg).unwrap();
    let gain_c = 1.0 - sc.energy.total() / ss_c.energy.total();
    let gain_f = 1.0 - sf_.energy.total() / ss_f.energy.total();
    assert!(gain_c >= gain_f - 1e-9, "coarse {gain_c} vs fine {gain_f}");
}

/// Schedules never employ more processors than tasks, and unemployed
/// processors never appear in LAMPS solutions.
#[test]
fn processor_counts_are_tight() {
    let cfg = cfg();
    for g in stg_group(40, 3, 5) {
        let scaled = g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT);
        let d = deadline(&scaled, 4.0);
        for s in Strategy::all() {
            let sol = solve(s, &scaled, d, &cfg).unwrap();
            assert!(sol.n_procs <= scaled.len());
            assert!(sol.schedule.employed_procs() <= sol.n_procs);
            if s.searches_proc_count() {
                // LAMPS never keeps a processor on without work: an
                // unemployed processor only adds idle energy.
                assert_eq!(sol.schedule.employed_procs(), sol.n_procs);
            }
        }
    }
}
