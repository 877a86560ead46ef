//! Input-hardening audit: every public entry point rejects degenerate
//! inputs with a typed error instead of panicking.
//!
//! One table per entry point family; each row is (name, input, expected
//! rejection). The point is not the individual assertions — it is that
//! adding a new degenerate class here is a one-line row, and that none
//! of these rows can ever panic.

use lamps_core::limits::{limit_mf, limit_sf};
use lamps_core::{
    solve, solve_with_budget_cache, ScheduleCache, SchedulerConfig, SolveBudget, SolveError,
    Strategy,
};
use lamps_kpn::{unroll, KpnError, Network, UnrollConfig};
use lamps_sim::{run_with_faults, DvsSwitchCost, FaultPlan, RecoveryPolicy, SimError};
use lamps_taskgraph::{GraphBuilder, GraphError, TaskGraph};

fn chain(n: usize) -> TaskGraph {
    let mut b = GraphBuilder::new();
    let mut prev = b.add_task(3_100_000);
    for _ in 1..n {
        let t = b.add_task(3_100_000);
        b.add_edge(prev, t).unwrap();
        prev = t;
    }
    b.build().unwrap()
}

/// The degenerate deadlines every solver-side entry point must reject.
const BAD_DEADLINES: [(&str, f64); 5] = [
    ("nan", f64::NAN),
    ("+inf", f64::INFINITY),
    ("-inf", f64::NEG_INFINITY),
    ("zero", 0.0),
    ("negative", -1.0),
];

#[test]
fn solver_entry_points_reject_bad_deadlines() {
    let g = chain(4);
    let cfg = SchedulerConfig::paper();
    for (name, d) in BAD_DEADLINES {
        for s in Strategy::all() {
            assert!(
                matches!(solve(s, &g, d, &cfg), Err(SolveError::BadDeadline(_))),
                "solve/{s} accepted {name}"
            );
        }
        assert!(
            matches!(
                solve_with_budget_cache(
                    Strategy::LampsPs,
                    d,
                    &cfg,
                    &mut ScheduleCache::for_graph(&g),
                    &SolveBudget::unlimited()
                ),
                Err(SolveError::BadDeadline(_))
            ),
            "solve_with_budget_cache accepted {name}"
        );
        assert!(
            matches!(limit_sf(&g, d, &cfg), Err(SolveError::BadDeadline(_))),
            "limit_sf accepted {name}"
        );
        assert!(
            matches!(limit_mf(&g, d, &cfg), Err(SolveError::BadDeadline(_))),
            "limit_mf accepted {name}"
        );
    }
}

#[test]
fn infeasible_deadline_is_typed_not_a_panic() {
    let g = chain(4);
    let cfg = SchedulerConfig::paper();
    // Positive but below the critical path at maximum frequency.
    let d = 0.25 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    for s in Strategy::all() {
        assert!(matches!(
            solve(s, &g, d, &cfg),
            Err(SolveError::Infeasible { .. })
        ));
    }
    assert!(matches!(
        limit_sf(&g, d, &cfg),
        Err(SolveError::Infeasible { .. })
    ));
    // LIMIT-MF ignores the deadline for energy, so a tight-but-real
    // deadline is fine — it just flags the miss.
    assert!(!limit_mf(&g, d, &cfg).unwrap().meets_deadline);
}

#[test]
fn sim_run_rejects_degenerate_inputs() {
    let g = chain(4);
    let cfg = SchedulerConfig::paper();
    let d = 2.0 * g.critical_path_cycles() as f64 / cfg.max_frequency();
    let sol = solve(Strategy::LampsPs, &g, d, &cfg).unwrap();
    let switch = DvsSwitchCost::typical();
    let run = |actual: &[u64], faults: &FaultPlan, deadline: f64| {
        run_with_faults(
            &g,
            &sol,
            actual,
            faults,
            deadline,
            RecoveryPolicy::Boost,
            &cfg,
            &switch,
        )
    };

    for (name, bad_d) in BAD_DEADLINES {
        assert!(
            matches!(
                run(g.weights(), &FaultPlan::none(), bad_d),
                Err(SimError::BadDeadline(_))
            ),
            "run_with_faults accepted {name} deadline"
        );
    }
    assert!(matches!(
        run(&[1, 2], &FaultPlan::none(), d),
        Err(SimError::WrongActualLength { .. })
    ));
    let over: Vec<u64> = g.weights().iter().map(|w| w + 1).collect();
    assert!(matches!(
        run(&over, &FaultPlan::none(), d),
        Err(SimError::ActualExceedsWcet { .. })
    ));
    for factor in [f64::NAN, 0.5, -2.0] {
        let plan = FaultPlan {
            overruns: vec![lamps_sim::Overrun {
                task: lamps_taskgraph::TaskId(1),
                factor,
            }],
            ..FaultPlan::none()
        };
        assert!(
            matches!(run(g.weights(), &plan, d), Err(SimError::BadFaultPlan(_))),
            "overrun factor {factor} accepted"
        );
    }
}

#[test]
fn graph_builder_rejects_degenerate_graphs() {
    assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);

    let mut b = GraphBuilder::new();
    let a = b.add_task(1);
    assert_eq!(b.add_edge(a, a).unwrap_err(), GraphError::SelfLoop(a));

    let mut b = GraphBuilder::new();
    let a = b.add_task(1);
    let c = b.add_task(1);
    b.add_edge(a, c).unwrap();
    b.add_edge(c, a).unwrap();
    assert!(matches!(b.build().unwrap_err(), GraphError::Cycle(_)));
}

#[test]
fn kpn_unroll_rejects_degenerate_networks() {
    assert_eq!(
        unroll(
            &Network::new(),
            &UnrollConfig {
                copies: 2,
                first_deadline_cycles: 10,
                period_cycles: 5
            }
        )
        .unwrap_err(),
        KpnError::Empty
    );
    assert_eq!(
        unroll(
            &Network::fig1_example(10, 20, 30),
            &UnrollConfig {
                copies: 0,
                first_deadline_cycles: 10,
                period_cycles: 5
            }
        )
        .unwrap_err(),
        KpnError::ZeroCopies
    );
}
