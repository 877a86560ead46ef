//! Pins the indexed list scheduler to the heap oracle, event for event.
//!
//! Both entry points of the one event loop in `lamps_sched::list` — the
//! whole-graph [`list_schedule`] and the partial
//! [`reschedule_remaining`] — run on a rank-compressed bitset ready-set
//! and a monotone radix event queue. The heap algorithm survives as
//! [`reschedule_remaining_heap_reference`] precisely so this file can
//! assert both are *observationally identical* to it — same processor
//! assignment, same start/finish instants, same per-processor task
//! order. A whole-graph run is pinned to the oracle's degenerate case:
//! nothing done, every processor free at cycle 0.
//!
//! The cases are the inputs where tie-breaking is most fragile:
//! zero-weight tasks retiring in same-instant batches, single-processor
//! runs, width-1 chains, fan-outs where every ready task carries an
//! equal key, and — for partial runs — releases, wake-ups and finishes
//! landing on one instant, failed processors, and nothing left to do.

use lamps_sched::list::{list_schedule, ListScheduleWorkspace};
use lamps_sched::partial::{
    reschedule_remaining, reschedule_remaining_heap_reference, PartialSchedule, ProcAvailability,
};
use lamps_sched::schedule::ProcId;
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::{GraphBuilder, TaskGraph, TaskId};

/// Assert the whole-graph schedule equals the oracle's degenerate case
/// in every observable respect: placement, timing, and the order tasks
/// were laid onto each processor.
fn assert_pinned(graph: &TaskGraph, n_procs: usize, keys: &[u64], label: &str) {
    let new = list_schedule(graph, n_procs, keys);
    let reference = reschedule_remaining_heap_reference(
        graph,
        &vec![false; graph.len()],
        &vec![0; graph.len()],
        &vec![ProcAvailability::FreeAt(0); n_procs],
        keys,
    );
    assert_eq!(new.n_procs(), n_procs, "{label}: n_procs");
    assert_eq!(
        new.makespan_cycles(),
        reference.makespan_cycles(),
        "{label}: makespan"
    );
    for t in graph.tasks() {
        assert_eq!(new.start(t), reference.start(t), "{label}: start of {t:?}");
        assert_eq!(
            new.finish(t),
            reference.finish(t),
            "{label}: finish of {t:?}"
        );
        assert_eq!(new.proc(t), reference.proc(t), "{label}: proc of {t:?}");
    }
    for p in (0..n_procs as u32).map(ProcId) {
        assert_eq!(
            new.tasks_on(p),
            reference.tasks_on(p),
            "{label}: event order on {p:?}"
        );
    }
    new.validate(graph).expect("new schedule must be valid");
}

/// One partial-run input: which tasks are done and when they finished,
/// and when each processor can take work.
struct Cut {
    done: Vec<bool>,
    finish_done: Vec<u64>,
    avail: Vec<ProcAvailability>,
}

/// Assert [`reschedule_remaining`] through the shared `ws`/`out` equals
/// the oracle on every pending task and every processor's order.
fn assert_partial_pinned(
    ws: &mut ListScheduleWorkspace,
    out: &mut PartialSchedule,
    graph: &TaskGraph,
    cut: &Cut,
    keys: &[u64],
    label: &str,
) {
    reschedule_remaining(
        ws,
        graph,
        &cut.done,
        &cut.finish_done,
        &cut.avail,
        keys,
        out,
    );
    let reference =
        reschedule_remaining_heap_reference(graph, &cut.done, &cut.finish_done, &cut.avail, keys);
    assert_eq!(out.n_placed(), reference.n_placed(), "{label}: n_placed");
    assert_eq!(
        out.makespan_cycles(),
        reference.makespan_cycles(),
        "{label}: makespan"
    );
    for t in graph.tasks() {
        assert_eq!(out.start(t), reference.start(t), "{label}: start of {t:?}");
        assert_eq!(
            out.finish(t),
            reference.finish(t),
            "{label}: finish of {t:?}"
        );
        assert_eq!(out.proc(t), reference.proc(t), "{label}: proc of {t:?}");
    }
    for p in (0..cut.avail.len() as u32).map(ProcId) {
        assert_eq!(
            out.tasks_on(p),
            reference.tasks_on(p),
            "{label}: event order on {p:?}"
        );
    }
    assert_eq!(*out, reference, "{label}: whole partial schedule");
}

/// Priority-key patterns that stress distinct tie-breaking paths.
fn key_patterns(n: usize) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("id-order", (0..n as u64).collect()),
        ("reverse", (0..n as u64).rev().collect()),
        ("all-equal", vec![7; n]),
        (
            "two-buckets",
            (0..n as u64)
                .map(|i| if i % 2 == 0 { 0 } else { 1 } << 40)
                .collect(),
        ),
        (
            "wide-spread",
            (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
        ),
    ]
}

fn pin_all_patterns(graph: &TaskGraph, label: &str) {
    for n_procs in [1usize, 2, 3, 8, graph.len().max(1)] {
        for (kname, keys) in key_patterns(graph.len()) {
            assert_pinned(
                graph,
                n_procs,
                &keys,
                &format!("{label}/{kname}/p{n_procs}"),
            );
        }
    }
}

/// Partial-run inputs over `graph` on `n_procs` processors: a done
/// prefix of the topological order (none, a third, two thirds, all)
/// with late finish times, under four availability shapes — all free at
/// 0, staggered wake-ups, one failed processor, and all but one failed.
/// Times are drawn on a coarse grid of the critical path so releases,
/// wake-ups and finishes often share an instant.
fn cuts(graph: &TaskGraph, n_procs: usize, rng: &mut Rng) -> Vec<(String, Cut)> {
    let n = graph.len();
    let topo = graph.topo_order();
    let grid = graph.critical_path_cycles() / 8 + 1;
    let mut out = Vec::new();
    for k in [0, n / 3, (2 * n) / 3, n] {
        let mut done = vec![false; n];
        let mut finish_done = vec![0u64; n];
        for &t in &topo[..k] {
            done[t.index()] = true;
            finish_done[t.index()] = rng.gen_range(0u64..9) * grid;
        }
        let free = vec![ProcAvailability::FreeAt(0); n_procs];
        let staggered: Vec<_> = (0..n_procs)
            .map(|_| ProcAvailability::FreeAt(rng.gen_range(0u64..9) * grid))
            .collect();
        let mut one_failed = staggered.clone();
        if n_procs > 1 {
            one_failed[rng.gen_range(0..n_procs)] = ProcAvailability::Failed;
        }
        let survivor = rng.gen_range(0..n_procs);
        let lone: Vec<_> = (0..n_procs)
            .map(|p| {
                if p == survivor {
                    staggered[p]
                } else {
                    ProcAvailability::Failed
                }
            })
            .collect();
        for (aname, avail) in [
            ("free", free),
            ("staggered", staggered),
            ("one-failed", one_failed),
            ("lone-survivor", lone),
        ] {
            out.push((
                format!("done{k}/{aname}"),
                Cut {
                    done: done.clone(),
                    finish_done: finish_done.clone(),
                    avail,
                },
            ));
        }
    }
    out
}

/// Every [`cuts`] input under every key pattern, on 1, 2, 3 and 8
/// processors, through one reused workspace and output buffer.
fn pin_partial_cuts(graph: &TaskGraph, label: &str, seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut ws = ListScheduleWorkspace::new();
    let mut out = PartialSchedule::new();
    for n_procs in [1usize, 2, 3, 8] {
        for (cname, cut) in cuts(graph, n_procs, &mut rng) {
            for (kname, keys) in key_patterns(graph.len()) {
                assert_partial_pinned(
                    &mut ws,
                    &mut out,
                    graph,
                    &cut,
                    &keys,
                    &format!("{label}/{cname}/{kname}/p{n_procs}"),
                );
            }
        }
    }
}

fn zero_chain() -> TaskGraph {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = (0..40).map(|_| b.add_task(0)).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]).unwrap();
    }
    b.build().unwrap()
}

fn zero_fanout() -> TaskGraph {
    let mut b = GraphBuilder::new();
    let root = b.add_task(0);
    let mids: Vec<TaskId> = (0..24).map(|_| b.add_task(0)).collect();
    let sink = b.add_task(0);
    for &m in &mids {
        b.add_edge(root, m).unwrap();
        b.add_edge(m, sink).unwrap();
    }
    b.build().unwrap()
}

fn mixed_weights() -> TaskGraph {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<TaskId> = (0..6)
        .map(|i| b.add_task(if i % 2 == 0 { 0 } else { 9 }))
        .collect();
    for layer in 1..8u64 {
        let cur: Vec<TaskId> = (0..6)
            .map(|i| b.add_task(if (layer + i) % 3 == 0 { 0 } else { layer * 3 }))
            .collect();
        for (i, &t) in cur.iter().enumerate() {
            b.add_edge(prev[i], t).unwrap();
            b.add_edge(prev[(i + 1) % prev.len()], t).unwrap();
        }
        prev = cur;
    }
    b.build().unwrap()
}

/// A chain where every task has weight zero: every event happens at
/// instant 0 and the whole run is one same-instant retirement batch.
#[test]
fn all_zero_weight_chain_matches_reference() {
    pin_all_patterns(&zero_chain(), "zero-chain");
}

/// Zero-weight fan-out: one zero-weight root releases many zero-weight
/// children simultaneously, so the ready-set fills in one batch and the
/// drain order is pure tie-breaking.
#[test]
fn zero_weight_fanout_matches_reference() {
    pin_all_patterns(&zero_fanout(), "zero-fanout");
}

/// Width-1 graphs (pure chains with nonzero weights): the event queue
/// sees strictly increasing finish times and the ready set never holds
/// more than one task.
#[test]
fn width_one_chain_matches_reference() {
    let mut b = GraphBuilder::new();
    let ids: Vec<TaskId> = (0..50).map(|i| b.add_task(1 + (i * i) % 13)).collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1]).unwrap();
    }
    pin_all_patterns(&b.build().unwrap(), "chain");
}

/// Mixed zero/nonzero weights interleaved in a diamond lattice, so
/// zero-weight retirements land *between* nonzero finish events at the
/// same instant.
#[test]
fn mixed_zero_and_nonzero_weights_match_reference() {
    pin_all_patterns(&mixed_weights(), "mixed-weights");
}

/// Single-processor scheduling of random DAGs is a pure priority drain;
/// the reference and the indexed queue must serialize identically.
#[test]
fn single_proc_random_dags_match_reference() {
    let mut rng = Rng::seed_from_u64(0x51_7E57);
    for case in 0..32 {
        let n = rng.gen_range(2usize..30);
        let mut b = GraphBuilder::new();
        let ids: Vec<TaskId> = (0..n)
            .map(|_| b.add_task(rng.gen_range(0u64..20)))
            .collect();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(0.3) {
                    b.add_edge(ids[i], ids[j]).unwrap();
                }
            }
        }
        let g = b.build().unwrap();
        for (kname, keys) in key_patterns(g.len()) {
            assert_pinned(&g, 1, &keys, &format!("single-proc/{case}/{kname}"));
        }
    }
}

/// Random STG-style layered graphs across a spread of processor counts
/// and key patterns — the broad-coverage sweep behind the targeted edge
/// cases above.
#[test]
fn random_stg_graphs_match_reference() {
    for (gi, g) in stg_group(120, 6, 0xF1A9).iter().enumerate() {
        pin_all_patterns(g, &format!("stg/{gi}"));
    }
}

/// Partial runs on the same STG sweep: done prefixes with late finish
/// times (releases), staggered wake-ups, failed processors, and the
/// all-done cut that places nothing.
#[test]
fn partial_stg_graphs_match_reference() {
    for (gi, g) in stg_group(120, 6, 0xF1A9).iter().enumerate() {
        pin_partial_cuts(g, &format!("stg/{gi}"), 0xC07 + gi as u64);
    }
}

/// Partial runs whose pending rest is zero-weight: chains and fan-outs
/// that retire instantly, so releases and wake-ups are the only events
/// that move the clock, and the mixed lattice where zero-weight
/// retirements share instants with them.
#[test]
fn partial_zero_weight_pending_matches_reference() {
    pin_partial_cuts(&zero_chain(), "zero-chain", 1);
    pin_partial_cuts(&zero_fanout(), "zero-fanout", 2);
    pin_partial_cuts(&mixed_weights(), "mixed-weights", 3);
}
