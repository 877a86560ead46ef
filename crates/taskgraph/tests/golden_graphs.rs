//! Bit pins of the graphs every generator draws.
//!
//! Each case hashes (64-bit FNV-1a) the task count, every weight, every
//! edge in CSR order, the stored critical path and the stored total work
//! of the graphs one generator call returns. The pinned values were
//! taken from the per-layer `Vec<Vec<TaskId>>` layered generator and the
//! Kahn-pass `build`, so any rewrite of the generators or of the builder
//! that changes one random draw, one edge or one cached total fails
//! here, naming the case.
//!
//! On a deliberate change of a generator's output, the failure message
//! prints the whole table with the new values; paste it only after
//! reading why every changed row changed.

use lamps_taskgraph::apps::proxies;
use lamps_taskgraph::gen::fanin::{generate as fanin, FaninConfig};
use lamps_taskgraph::gen::layered::{generate as layered, stg_group, LayeredConfig};
use lamps_taskgraph::gen::spine::{generate as spine, with_parallelism, SpineConfig};
use lamps_taskgraph::{TaskGraph, COARSE_GRAIN_CYCLES_PER_UNIT};

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn graph(&mut self, g: &TaskGraph) {
        self.u64(g.len() as u64);
        for &w in g.weights() {
            self.u64(w);
        }
        self.u64(g.edge_count() as u64);
        for (from, to) in g.edges() {
            self.bytes(&from.0.to_le_bytes());
            self.bytes(&to.0.to_le_bytes());
        }
        self.u64(g.critical_path_cycles());
        self.u64(g.total_work_cycles());
    }
}

fn hash(graphs: &[TaskGraph]) -> u64 {
    let mut h = Fnv::new();
    for g in graphs {
        h.graph(g);
    }
    h.0
}

fn layered_cfg(n_tasks: usize, n_layers: usize, dummies: bool) -> LayeredConfig {
    LayeredConfig {
        n_tasks,
        n_layers,
        dummies,
        ..LayeredConfig::default()
    }
}

/// Every case, labelled: one hash over the graphs the call returns.
/// Labels read `n` tasks, `l` layers, `d` dummies, `x` graph count,
/// `p` parallelism and `s` seed.
fn cases() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [1u64, 2, 2006] {
        for (n, layers) in [(100, 10), (120, 12), (60, 1), (50, 50), (40, 90), (1, 1)] {
            for dummies in [true, false] {
                out.push((
                    format!("layered n{n} l{layers} d{} s{seed}", u8::from(dummies)),
                    hash(&[layered(&layered_cfg(n, layers, dummies), seed)]),
                ));
            }
        }
        let skewed = LayeredConfig {
            n_tasks: 300,
            n_layers: 7,
            mean_in_degree: 3.5,
            skip_prob: 0.6,
            weight_range: (5, 40),
            dummies: true,
        };
        out.push((
            format!("layered skewed s{seed}"),
            hash(&[layered(&skewed, seed)]),
        ));
        for (n, count) in [(10, 8), (40, 6), (300, 3), (1000, 1)] {
            out.push((
                format!("stg_group n{n} x{count} s{seed}"),
                hash(&stg_group(n, count, seed)),
            ));
        }
        out.push((
            format!("spine s{seed}"),
            hash(&[spine(
                &SpineConfig {
                    n_tasks: 80,
                    spine_len: 20,
                    cpl: 900,
                    work: 6000,
                    extra_edges: 30,
                    weight_cap: 300,
                },
                seed,
            )]),
        ));
        for p in [1.0, 4.0, 12.0] {
            out.push((
                format!("with_parallelism p{p} s{seed}"),
                hash(&[with_parallelism(200, p, seed)]),
            ));
        }
        out.push((
            format!("fanin default s{seed}"),
            hash(&[fanin(&FaninConfig::default(), seed)]),
        ));
        out.push((
            format!("fanin wide s{seed}"),
            hash(&[fanin(
                &FaninConfig {
                    n_tasks: 400,
                    max_out: 8,
                    max_in: 3,
                    fanout_prob: 0.7,
                    weight_range: (1, 300),
                },
                seed,
            )]),
        ));
        out.push((
            format!("stg_group n40 x4 s{seed} scaled"),
            hash(
                &stg_group(40, 4, seed)
                    .into_iter()
                    .map(|g| g.scale_weights(COARSE_GRAIN_CYCLES_PER_UNIT))
                    .collect::<Vec<_>>(),
            ),
        ));
    }
    for (name, g) in proxies::all() {
        out.push((format!("proxies::{name}"), hash(&[g])));
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("layered n100 l10 d1 s1", 0x46d539677f9e07b5),
    ("layered n100 l10 d0 s1", 0x9c5c212c1b80b9a6),
    ("layered n120 l12 d1 s1", 0x705d1a37c4f3a8a2),
    ("layered n120 l12 d0 s1", 0x51ec1eccc76fc30f),
    ("layered n60 l1 d1 s1", 0x1749bc1d7ff9989c),
    ("layered n60 l1 d0 s1", 0x1dd25ab6176e2312),
    ("layered n50 l50 d1 s1", 0x8b00968b23168e09),
    ("layered n50 l50 d0 s1", 0x4aeb8159fd2e87e1),
    ("layered n40 l90 d1 s1", 0x9662065ea8b5137d),
    ("layered n40 l90 d0 s1", 0x7afd6d2a3a2bbf03),
    ("layered n1 l1 d1 s1", 0x9f8689abd854eed3),
    ("layered n1 l1 d0 s1", 0x9cfcc14ea1085ad0),
    ("layered skewed s1", 0xe259525912fe2d53),
    ("stg_group n10 x8 s1", 0x1fe3ce4180781357),
    ("stg_group n40 x6 s1", 0xe7941da0fed777a4),
    ("stg_group n300 x3 s1", 0xeee2b22f3f34d7ba),
    ("stg_group n1000 x1 s1", 0x4b3e3a6b8c064f8f),
    ("spine s1", 0x06dc4122fe034efa),
    ("with_parallelism p1 s1", 0x5fc6ca8f0712f25a),
    ("with_parallelism p4 s1", 0x084d06beb197ada9),
    ("with_parallelism p12 s1", 0x8ba8bd9d1d29eb6c),
    ("fanin default s1", 0xba25a1e3d08c56ad),
    ("fanin wide s1", 0x59d6dd3187fe1c9d),
    ("stg_group n40 x4 s1 scaled", 0x21c8adfdc5ceb593),
    ("layered n100 l10 d1 s2", 0xd93587a8828cee22),
    ("layered n100 l10 d0 s2", 0x573f0ff252381121),
    ("layered n120 l12 d1 s2", 0x7a68e50d2284e13e),
    ("layered n120 l12 d0 s2", 0x66aaa5617dfc0733),
    ("layered n60 l1 d1 s2", 0xfd2d14cc70d39a0c),
    ("layered n60 l1 d0 s2", 0x4fdad1fb2027dde2),
    ("layered n50 l50 d1 s2", 0x9022e45bc63540d6),
    ("layered n50 l50 d0 s2", 0x5a544d6d46293652),
    ("layered n40 l90 d1 s2", 0x03750323c59417b1),
    ("layered n40 l90 d0 s2", 0xfb37aefb6e009c3b),
    ("layered n1 l1 d1 s2", 0x1690daa4137341c1),
    ("layered n1 l1 d0 s2", 0xf9747606253fb782),
    ("layered skewed s2", 0x7de5d0b6c632d9ad),
    ("stg_group n10 x8 s2", 0xf4aaf7c7d6ce112c),
    ("stg_group n40 x6 s2", 0xd3bba806e325cc13),
    ("stg_group n300 x3 s2", 0x5c7a1a01f97c3bd9),
    ("stg_group n1000 x1 s2", 0x1489ed84aa46a9b6),
    ("spine s2", 0x8a6bc10b9334d489),
    ("with_parallelism p1 s2", 0x02352a61fd277220),
    ("with_parallelism p4 s2", 0xc243e55221f3c379),
    ("with_parallelism p12 s2", 0xfd3f1c14f9871ae5),
    ("fanin default s2", 0xa9c89054ee4ebd50),
    ("fanin wide s2", 0x9100b444f1301f4b),
    ("stg_group n40 x4 s2 scaled", 0x486a300e79818f0b),
    ("layered n100 l10 d1 s2006", 0xc760f89adc50e8bc),
    ("layered n100 l10 d0 s2006", 0x928c53a2fe73ab72),
    ("layered n120 l12 d1 s2006", 0x8791963a8f8746d2),
    ("layered n120 l12 d0 s2006", 0xcbf424b9b5ffe9cc),
    ("layered n60 l1 d1 s2006", 0xfe88b40495b603cd),
    ("layered n60 l1 d0 s2006", 0x561200818f9a2c1b),
    ("layered n50 l50 d1 s2006", 0x1c8b9efaa6677152),
    ("layered n50 l50 d0 s2006", 0x6c826936ef33cce6),
    ("layered n40 l90 d1 s2006", 0x73a1efcee8963161),
    ("layered n40 l90 d0 s2006", 0xd999b2cc4c71f447),
    ("layered n1 l1 d1 s2006", 0x2af18a69d87f15a1),
    ("layered n1 l1 d0 s2006", 0xa420faf97f4e03a2),
    ("layered skewed s2006", 0xc4b44428e7dbfde3),
    ("stg_group n10 x8 s2006", 0x43735625799a1953),
    ("stg_group n40 x6 s2006", 0x89e25272a10d53ee),
    ("stg_group n300 x3 s2006", 0xc415ac89f6be865a),
    ("stg_group n1000 x1 s2006", 0x27aac2139fe0a142),
    ("spine s2006", 0x85bb2777be9a155f),
    ("with_parallelism p1 s2006", 0x19043f4d78f1c2be),
    ("with_parallelism p4 s2006", 0xe9e4a0daf695087b),
    ("with_parallelism p12 s2006", 0x0dcbab335fc01c1b),
    ("fanin default s2006", 0xd17550501129552c),
    ("fanin wide s2006", 0xec27a9749e7d687b),
    ("stg_group n40 x4 s2006 scaled", 0x6afd9ec1953f983e),
    ("proxies::fpppp", 0x48698117bb50ed94),
    ("proxies::robot", 0x36f71ad660775a3a),
    ("proxies::sparse", 0x112fc75d11070b8f),
];

#[test]
fn generators_draw_the_pinned_graphs() {
    let got = cases();
    let mismatched: Vec<&str> = got
        .iter()
        .filter(|(name, h)| {
            GOLDEN
                .iter()
                .find(|(g, _)| g == name)
                .is_none_or(|(_, want)| want != h)
        })
        .map(|(name, _)| name.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", {h:#018x}),\n"))
        .collect();
    assert!(
        mismatched.is_empty() && GOLDEN.len() == got.len(),
        "{} of {} cases differ from the pins ({:?}); {} pins for {} cases. Current table:\n{table}",
        mismatched.len(),
        got.len(),
        mismatched,
        GOLDEN.len(),
        got.len()
    );
}
