//! Proof that a built graph owns exactly its CSR arrays and nothing else.
//!
//! An unnamed graph of `N` tasks and `E` distinct edges must hold
//! `8·N` bytes of weights, `2 · 4·(N+1)` bytes of offsets and
//! `2 · 4·E` bytes of adjacency on the heap, in two blocks (the weights
//! and one adjacency arena): no per-task name slots, no capacity slack
//! left by duplicate edges, no builder leftovers. A counting global
//! allocator measures the live heap bytes and blocks around each build.
//! Named graphs must still carry every name. (The cached critical path
//! and total work are inline fields: no heap bytes.)

use lamps_kpn::{unroll, Network, UnrollConfig};
use lamps_taskgraph::gen::layered::stg_group;
use lamps_taskgraph::{apps, stg, GraphBuilder, TaskGraph, TaskId};
use lamps_testalloc::{on_this_thread, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap bytes and blocks still live after `make` returns its graph.
fn retained(make: impl FnOnce() -> TaskGraph) -> (TaskGraph, i64, i64) {
    let (g, tally) = on_this_thread(make);
    (g, tally.bytes, tally.blocks)
}

fn lean_bytes(g: &TaskGraph) -> i64 {
    let (n, e) = (g.len() as i64, g.edge_count() as i64);
    8 * n + 8 * (n + 1) + 8 * e
}

/// Heap blocks of an unnamed graph: the weights and the arena.
const LEAN_BLOCKS: i64 = 2;

#[test]
fn unnamed_graphs_hold_only_their_csr_and_named_graphs_keep_names() {
    // Hand-built, with duplicate edges and an isolated task.
    let (g, bytes, blocks) = retained(|| {
        let mut b = GraphBuilder::with_capacity(64, 256);
        let ts: Vec<TaskId> = (0..10).map(|i| b.add_task(i + 1)).collect();
        for w in ts.windows(2).take(8) {
            b.add_edge(w[0], w[1]).unwrap();
            b.add_edge(w[0], w[1]).unwrap();
            b.add_edge(ts[0], w[1]).unwrap();
        }
        b.build().unwrap()
    });
    assert_eq!((g.len(), g.edge_count()), (10, 8 + 7));
    assert_eq!(bytes, lean_bytes(&g));
    assert_eq!(blocks, LEAN_BLOCKS);
    assert_eq!(g.name(TaskId(9)), None);
    assert_eq!(g.label(TaskId(9)), "T9");

    // Generated campaign-sized graphs: everything but the kept graph is
    // freed again.
    for i in 0..12 {
        let (g, bytes, blocks) = retained(|| stg_group(40, 12, 2006).swap_remove(i));
        assert_eq!(bytes, lean_bytes(&g), "stg_group graph {i}");
        assert_eq!(blocks, LEAN_BLOCKS, "stg_group graph {i}");
    }

    // Decoded graphs are unnamed too.
    let text = stg::write(&apps::proxies::fpppp());
    let (g, bytes, blocks) = retained(|| stg::parse(&text).unwrap());
    assert_eq!(bytes, lean_bytes(&g));
    assert_eq!(blocks, LEAN_BLOCKS);
    assert!(g.tasks().all(|t| g.name(t).is_none()));

    // Named graphs keep every name, and labels follow them.
    let gop = apps::mpeg::paper_gop();
    assert_eq!(gop.name(TaskId(0)), Some("I0"));
    assert_eq!(gop.label(TaskId(14)), "B14");
    assert!(gop.tasks().all(|t| gop.name(t).is_some()));
    let net = Network::fig1_example(10, 20, 30);
    let cfg = UnrollConfig {
        copies: 3,
        first_deadline_cycles: 100,
        period_cycles: 60,
    };
    let u = unroll(&net, &cfg).unwrap();
    assert_eq!(u.graph.len(), 9);
    for (i, want) in ["T1#0", "T2#0", "T3#0", "T1#1", "T3#2"]
        .iter()
        .zip([0u32, 1, 2, 3, 8])
        .map(|(name, i)| (i, name))
    {
        assert_eq!(u.graph.name(TaskId(i)), Some(*want));
        assert_eq!(u.graph.label(TaskId(i)), *want);
    }

    // A name after unnamed tasks pads the earlier ones with `None`. The
    // name table costs the named graph two more blocks, its box and its
    // slots, plus one per name.
    let (g, _, blocks) = retained(|| {
        let mut b = GraphBuilder::new();
        b.add_task(1);
        b.add_named_task("late", 2);
        b.add_edge(TaskId(0), TaskId(1)).unwrap();
        b.build().unwrap()
    });
    assert_eq!(blocks, LEAN_BLOCKS + 2 + 1);
    let (a, c) = (TaskId(0), TaskId(1));
    assert_eq!((g.name(a), g.label(a)), (None, "T0".to_string()));
    assert_eq!((g.name(c), g.label(c)), (Some("late"), "late".to_string()));
    assert_eq!(g.scale_weights(3).name(c), Some("late"));
}
