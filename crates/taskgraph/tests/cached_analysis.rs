//! Pins of the analysis a graph computes once, at build time.
//!
//! `build` runs one Kahn pass and stores the critical path and total
//! work; `topo_order` runs a queue-in-the-output Kahn pass. Both are
//! checked here against first principles on every graph family the
//! workspace builds: generated (STG groups, spine, fan-in, layered),
//! STG-parsed, the application proxies and MPEG GOPs, unrolled KPNs,
//! and chain-clustered graphs — each again after `scale_weights`.
//!
//! - the cached critical path equals the maximum top level and the
//!   maximum bottom level, and a recomputation in the original order;
//! - the cached total work equals the plain sum of the weights;
//! - `topo_order()` is identical to the original `VecDeque` pass kept
//!   as `topo_order_reference`.

use lamps_kpn::{unroll, Network, UnrollConfig};
use lamps_taskgraph::cluster::cluster_chains;
use lamps_taskgraph::gen::fanin::{generate as fanin, FaninConfig};
use lamps_taskgraph::gen::layered::{generate as layered, stg_group, LayeredConfig};
use lamps_taskgraph::gen::spine::with_parallelism;
use lamps_taskgraph::{apps, stg, TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};

/// Every graph family, labelled for failure messages.
fn corpus() -> Vec<(String, TaskGraph)> {
    let mut out: Vec<(String, TaskGraph)> = Vec::new();
    for (size, count) in [(50, 6), (500, 2), (2000, 1)] {
        for (i, g) in stg_group(size, count, 2006).into_iter().enumerate() {
            out.push((format!("stg_group({size})[{i}]"), g));
        }
    }
    for (i, p) in [1.0, 2.5, 8.0].into_iter().enumerate() {
        out.push((
            format!("spine[{i}]"),
            with_parallelism(120, p, 40 + i as u64),
        ));
    }
    out.push((
        "fanin".into(),
        fanin(
            &FaninConfig {
                n_tasks: 90,
                ..FaninConfig::default()
            },
            3,
        ),
    ));
    out.push((
        "layered".into(),
        layered(
            &LayeredConfig {
                n_tasks: 150,
                n_layers: 12,
                ..LayeredConfig::default()
            },
            5,
        ),
    ));
    for (name, g) in apps::proxies::all() {
        out.push((name.to_string(), g));
    }
    out.push(("mpeg::paper_gop".into(), apps::mpeg::paper_gop()));
    let spec = apps::mpeg::GopSpec::paper();
    out.push((
        "mpeg::gop_stream".into(),
        apps::mpeg::gop_stream(&spec, 3, 1_550_000_000).0,
    ));
    for copies in [1, 4, 25] {
        let net = Network::fig1_example(10, 20, 30);
        let cfg = UnrollConfig {
            copies,
            first_deadline_cycles: 100,
            period_cycles: 60,
        };
        out.push((format!("kpn({copies})"), unroll(&net, &cfg).unwrap().graph));
    }
    // Derived graphs: decoded from STG text, and chain-clustered.
    let derived: Vec<(String, TaskGraph)> = out
        .iter()
        .flat_map(|(name, g)| {
            [
                (format!("{name}/stg"), stg::parse(&stg::write(g)).unwrap()),
                (format!("{name}/clustered"), cluster_chains(g).graph),
            ]
        })
        .collect();
    out.extend(derived);
    let scaled: Vec<(String, TaskGraph)> = out
        .iter()
        .map(|(name, g)| {
            (
                format!("{name}/scaled"),
                g.clone().scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT),
            )
        })
        .collect();
    out.extend(scaled);
    out
}

/// The critical path recomputed independently of the graph's own
/// passes: top levels in the order of the original Kahn pass.
fn reference_critical_path(g: &TaskGraph) -> u64 {
    let mut tl = vec![0u64; g.len()];
    for t in g.topo_order_reference().unwrap() {
        let ready = g.predecessors(t).iter().map(|&p| tl[p.index()]).max();
        tl[t.index()] = ready.unwrap_or(0) + g.weight(t);
    }
    tl.into_iter().max().unwrap_or(0)
}

#[test]
fn cached_critical_path_and_work_match_first_principles() {
    let corpus = corpus();
    assert!(corpus.len() > 100, "{} graphs", corpus.len());
    for (name, g) in &corpus {
        assert_eq!(
            g.critical_path_cycles(),
            reference_critical_path(g),
            "{name}"
        );
        assert_eq!(
            g.critical_path_cycles(),
            g.top_levels().into_iter().max().unwrap(),
            "{name}"
        );
        assert_eq!(
            g.critical_path_cycles(),
            g.bottom_levels().into_iter().max().unwrap(),
            "{name}"
        );
        assert_eq!(
            g.total_work_cycles(),
            g.weights().iter().sum::<u64>(),
            "{name}"
        );
        let path = g.critical_path();
        let along: u64 = path.iter().map(|&t| g.weight(t)).sum();
        assert_eq!(along, g.critical_path_cycles(), "{name}");
    }
}

#[test]
fn topo_order_matches_the_original_kahn_pass() {
    for (name, g) in corpus() {
        assert_eq!(g.topo_order(), g.topo_order_reference().unwrap(), "{name}");
    }
}
