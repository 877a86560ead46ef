//! Seeded random task-graph generators.
//!
//! The paper evaluates on the Standard Task Graph Set's 2700 random graphs
//! (§5.1). The set itself is a download we reproduce statistically: these
//! generators emit graphs with the same published characteristics (node
//! counts, integer weights 1–300, the CPL/total-work ranges of Table 2,
//! zero-weight dummy entry/exit nodes) so that every code path the paper's
//! evaluation exercises is exercised here, deterministically per seed.
//!
//! Two families:
//! * [`layered`] — layer-by-layer random DAGs, the classic STG
//!   construction; width varies per graph so a group spans a wide
//!   parallelism range, as in Figs. 12–13.
//! * [`spine`] — graphs that hit an exact critical-path length and total
//!   work (used both for the `fpppp`/`robot`/`sparse` proxies of Table 2
//!   and for the parallelism-controlled scatter experiments).

use crate::graph::{GraphBuilder, TaskGraph, TaskId};
use crate::rng::Rng;

/// STG task weights are integers in 1..=300 (§5.1).
pub const STG_WEIGHT_MAX: u64 = 300;

/// Partition `total` into `parts` integers, each in `[1, cap]`, uniformly
/// enough for benchmarking purposes. Panics if infeasible
/// (`parts > total` or `total > parts·cap`).
pub fn random_partition(rng: &mut Rng, total: u64, parts: usize, cap: u64) -> Vec<u64> {
    assert!(parts >= 1, "need at least one part");
    let parts_u = parts as u64;
    assert!(total >= parts_u, "total {total} < parts {parts}");
    assert!(
        total <= parts_u.saturating_mul(cap),
        "total {total} > parts*cap {}",
        parts_u * cap
    );
    let mut out = Vec::with_capacity(parts);
    let mut rem = total;
    for i in 0..parts {
        let left = (parts - 1 - i) as u64;
        let lo = rem.saturating_sub(left.saturating_mul(cap)).max(1);
        let hi = (rem - left).min(cap);
        let w = rng.gen_range(lo..=hi);
        out.push(w);
        rem -= w;
    }
    debug_assert_eq!(rem, 0);
    out
}

/// Layer-by-layer random DAG generation.
pub mod layered {
    use super::*;

    /// Configuration of the layered generator.
    #[derive(Debug, Clone)]
    pub struct LayeredConfig {
        /// Number of non-dummy tasks.
        pub n_tasks: usize,
        /// Target number of layers (chain length); widths are randomized
        /// around `n_tasks / n_layers`.
        pub n_layers: usize,
        /// Weight range (inclusive) in STG units.
        pub weight_range: (u64, u64),
        /// Expected number of predecessors per non-first-layer task
        /// (each is guaranteed at least one, for connectivity).
        pub mean_in_degree: f64,
        /// Probability that a predecessor comes from a non-adjacent
        /// earlier layer (a "skip" edge).
        pub skip_prob: f64,
        /// Add STG-style zero-weight dummy entry and exit nodes.
        pub dummies: bool,
    }

    impl Default for LayeredConfig {
        fn default() -> Self {
            LayeredConfig {
                n_tasks: 100,
                n_layers: 10,
                weight_range: (1, STG_WEIGHT_MAX),
                mean_in_degree: 2.0,
                skip_prob: 0.15,
                dummies: true,
            }
        }
    }

    /// Generate one layered random DAG.
    pub fn generate(cfg: &LayeredConfig, seed: u64) -> TaskGraph {
        assert!(cfg.n_tasks >= 1);
        assert!(cfg.n_layers >= 1);
        assert!(cfg.weight_range.0 >= 1 && cfg.weight_range.0 <= cfg.weight_range.1);
        let mut rng = Rng::seed_from_u64(seed);
        let n_layers = cfg.n_layers.min(cfg.n_tasks);

        // Layer `li` is the consecutive ids `start[li]..start[li + 1]`.
        // Random layer widths: distribute tasks over layers, each layer
        // non-empty; a prefix sum then turns widths into starts.
        let mut start = vec![1u32; n_layers + 1];
        start[0] = 0;
        for _ in 0..cfg.n_tasks - n_layers {
            start[rng.gen_range(0..n_layers) + 1] += 1;
        }
        for li in 0..n_layers {
            start[li + 1] += start[li];
        }
        let layer = |li: usize| start[li]..start[li + 1];

        let mut b = GraphBuilder::with_capacity(
            cfg.n_tasks + 2,
            (cfg.n_tasks as f64 * cfg.mean_in_degree) as usize + cfg.n_tasks,
        );
        for _ in 0..cfg.n_tasks {
            b.add_task(rng.gen_range(cfg.weight_range.0..=cfg.weight_range.1));
        }

        // Wire predecessors. Every task past the first layer gets at
        // least one, so only missing successors need tracking.
        let mut has_succ = vec![false; cfg.n_tasks];
        for li in 1..n_layers {
            for t in layer(li) {
                let n_preds = 1 + sample_extra(&mut rng, cfg.mean_in_degree - 1.0);
                for k in 0..n_preds {
                    let from_layer = if k > 0 && rng.gen_bool(cfg.skip_prob) && li > 1 {
                        rng.gen_range(0..li - 1)
                    } else {
                        li - 1
                    };
                    let from = layer(from_layer);
                    let src = from.start + rng.gen_range(0..from.len()) as u32;
                    has_succ[src as usize] = true;
                    b.add_edge(TaskId(src), TaskId(t))
                        .expect("indices are valid");
                }
            }
        }

        if cfg.dummies {
            let entry = b.add_task(0);
            let exit = b.add_task(0);
            for t in layer(0) {
                b.add_edge(entry, TaskId(t)).expect("valid");
            }
            for t in layer(n_layers - 1) {
                b.add_edge(TaskId(t), exit).expect("valid");
            }
            // Orphan-free: connect any still-sinkless task before the
            // last layer to the exit so the graph has a unique entry and
            // exit, as STG files do.
            for t in 0..start[n_layers - 1] {
                if !has_succ[t as usize] {
                    b.add_edge(TaskId(t), exit).expect("valid");
                }
            }
        }

        b.build().expect("layered graphs are DAGs")
    }

    /// Sample a non-negative count with the given mean (geometric-ish).
    fn sample_extra(rng: &mut Rng, mean: f64) -> usize {
        if mean <= 0.0 {
            return 0;
        }
        let p = 1.0 / (1.0 + mean);
        let mut k = 0;
        while k < 16 && !rng.gen_bool(p) {
            k += 1;
        }
        k
    }

    /// Generate a *group* of `count` graphs of `n_tasks` tasks whose
    /// layer counts (and therefore parallelism) vary widely, mimicking
    /// one size-group of the STG random set.
    pub fn stg_group(n_tasks: usize, count: usize, seed: u64) -> Vec<TaskGraph> {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5741_5345_4441);
        (0..count)
            .map(|i| {
                // Log-uniform parallelism target between ~1 and ~min(48, n/4).
                let p_max = (n_tasks as f64 / 4.0).clamp(1.5, 48.0);
                let p = (rng.gen_range(0.0f64..1.0) * p_max.ln()).exp().max(1.0);
                let n_layers = ((n_tasks as f64 / p).round() as usize).clamp(2, n_tasks);
                let cfg = LayeredConfig {
                    n_tasks,
                    n_layers,
                    mean_in_degree: rng.gen_range(1.2..3.0),
                    skip_prob: rng.gen_range(0.05..0.3),
                    ..LayeredConfig::default()
                };
                generate(&cfg, seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9))
            })
            .collect()
    }
}

/// Graphs with an exact critical-path length and exact total work.
pub mod spine {
    use super::*;

    /// Configuration of the spine generator. All quantities are in weight
    /// units (scale afterwards for a granularity).
    #[derive(Debug, Clone, Copy)]
    pub struct SpineConfig {
        /// Total number of tasks (spine + off-spine).
        pub n_tasks: usize,
        /// Number of tasks on the spine chain.
        pub spine_len: usize,
        /// Exact critical-path length (sum of spine weights).
        pub cpl: u64,
        /// Exact total work (spine + off-spine weights).
        pub work: u64,
        /// Number of additional *dominated* edges to add beyond the
        /// structural ones (they never change the CPL).
        pub extra_edges: usize,
        /// Per-task weight cap (STG uses 300).
        pub weight_cap: u64,
    }

    /// Generate a graph with exactly `cfg.n_tasks` tasks, critical path
    /// `cfg.cpl`, and total work `cfg.work`.
    ///
    /// Construction: a chain of `spine_len` tasks realizes the critical
    /// path; the remaining tasks hang between two spine positions chosen
    /// so that the detour is never longer than the chain segment it
    /// bypasses, which provably preserves the CPL. The first and last
    /// spine tasks have weight 1 so that every off-spine weight up to
    /// `cpl − 2` fits somewhere.
    ///
    /// # Panics
    ///
    /// Panics when the targets are infeasible (e.g. `work < cpl +
    /// (n_tasks − spine_len)`, `cpl < spine_len`, or an off-spine weight
    /// could not be placed).
    pub fn generate(cfg: &SpineConfig, seed: u64) -> TaskGraph {
        assert!(cfg.spine_len >= 2, "spine needs at least 2 tasks");
        assert!(cfg.n_tasks >= cfg.spine_len);
        assert!(cfg.cpl >= cfg.spine_len as u64, "cpl too small for spine");
        let m = cfg.n_tasks - cfg.spine_len;
        assert!(
            m == 0 || cfg.cpl >= 3,
            "off-spine tasks need an interior: cpl {} leaves no room between the pinned ends",
            cfg.cpl
        );
        let off_work = cfg
            .work
            .checked_sub(cfg.cpl)
            .expect("work must be at least cpl");
        assert!(
            m as u64 <= off_work || (m == 0 && off_work == 0),
            "off-spine work {off_work} cannot cover {m} tasks with weight >= 1"
        );

        let mut rng = Rng::seed_from_u64(seed);

        // Spine weights: first and last pinned to 1, interior random.
        let spine_weights: Vec<u64> = if cfg.spine_len == 2 {
            assert_eq!(cfg.cpl, 2, "spine of 2 forces cpl = 2");
            vec![1, 1]
        } else {
            let interior =
                random_partition(&mut rng, cfg.cpl - 2, cfg.spine_len - 2, cfg.weight_cap);
            let mut w = Vec::with_capacity(cfg.spine_len);
            w.push(1);
            w.extend(interior);
            w.push(1);
            w
        };

        // Off-spine weights, capped so each fits between the pinned ends.
        let off_cap = cfg.weight_cap.min(cfg.cpl.saturating_sub(2)).max(1);
        let off_weights: Vec<u64> = if m == 0 {
            Vec::new()
        } else {
            random_partition(&mut rng, off_work, m, off_cap)
        };

        let mut b = GraphBuilder::with_capacity(cfg.n_tasks, cfg.n_tasks * 2 + cfg.extra_edges);
        let spine: Vec<TaskId> = spine_weights.iter().map(|&w| b.add_task(w)).collect();
        for w in spine.windows(2) {
            b.add_edge(w[0], w[1]).expect("valid");
        }

        // Prefix sums S[i] = w(c_0..c_i).
        let mut prefix = Vec::with_capacity(cfg.spine_len);
        let mut acc = 0u64;
        for &w in &spine_weights {
            acc += w;
            prefix.push(acc);
        }

        // Attach off-spine tasks: c_a → x → c_b with the chain weight
        // strictly between a and b at least w(x).
        let mut edge_set: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut attach: Vec<(usize, usize)> = Vec::with_capacity(m);
        for &w in &off_weights {
            let x = b.add_task(w);
            // Random a, then the minimal feasible b; fall back to a = 0.
            let mut a = rng.gen_range(0..cfg.spine_len - 1);
            let mut bpos = find_b(&prefix, a, w);
            if bpos.is_none() {
                a = 0;
                bpos = find_b(&prefix, 0, w);
            }
            let bpos = bpos
                .unwrap_or_else(|| panic!("off-spine weight {w} does not fit (cpl {})", cfg.cpl));
            b.add_edge(spine[a], x).expect("valid");
            b.add_edge(x, spine[bpos]).expect("valid");
            edge_set.insert((spine[a].0, x.0));
            edge_set.insert((x.0, spine[bpos].0));
            attach.push((a, bpos));
        }

        // Dominated extra edges: from an earlier spine task into an
        // off-spine task, or from an off-spine task to a later spine
        // task. Neither can lengthen any path.
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < cfg.extra_edges && attempts < cfg.extra_edges * 40 + 100 {
            attempts += 1;
            if m == 0 {
                break;
            }
            let k = rng.gen_range(0..m);
            let x = TaskId((cfg.spine_len + k) as u32);
            let (a, bpos) = attach[k];
            let into = rng.gen_bool(0.5);
            let edge = if into && a > 0 {
                let i = rng.gen_range(0..a);
                (spine[i].0, x.0)
            } else if !into && bpos + 1 < cfg.spine_len {
                let j = rng.gen_range(bpos + 1..cfg.spine_len);
                (x.0, spine[j].0)
            } else {
                continue;
            };
            if edge_set.insert(edge) {
                b.add_edge(TaskId(edge.0), TaskId(edge.1)).expect("valid");
                added += 1;
            }
        }

        let g = b.build().expect("spine graphs are DAGs");
        debug_assert_eq!(g.critical_path_cycles(), cfg.cpl);
        debug_assert_eq!(g.total_work_cycles(), cfg.work);
        g
    }

    /// Smallest b > a with chain weight strictly between a and b at least
    /// `w`, i.e. `S[b−1] − S[a] ≥ w`.
    fn find_b(prefix: &[u64], a: usize, w: u64) -> Option<usize> {
        let n = prefix.len();
        // S[b-1] >= S[a] + w; prefix is strictly increasing.
        let target = prefix[a] + w;
        let idx = prefix.partition_point(|&s| s < target); // first b-1 with S >= target
        let bpos = idx + 1;
        if bpos < n {
            Some(bpos)
        } else {
            None
        }
    }

    /// Generate a graph of `n_tasks` tasks with STG-style weights whose
    /// average parallelism is approximately `parallelism` (exact CPL and
    /// work; parallelism deviates only by integer rounding). Used for the
    /// Fig. 12/13 scatter experiments.
    pub fn with_parallelism(n_tasks: usize, parallelism: f64, seed: u64) -> TaskGraph {
        assert!(n_tasks >= 3);
        assert!(parallelism >= 1.0);
        let mut rng = Rng::seed_from_u64(seed ^ 0x50_41_52);
        // Expected STG weight ≈ 150; draw total work around n·150 but cap
        // it so that both the spine and the off-spine partition fit under
        // the 300-unit weight cap.
        let work: u64 = (0..n_tasks)
            .map(|_| rng.gen_range(1..=STG_WEIGHT_MAX))
            .sum::<u64>()
            .min(STG_WEIGHT_MAX * (n_tasks as u64 - 2));
        let cpl = ((work as f64 / parallelism).round() as u64)
            .clamp(3, work.saturating_sub(n_tasks as u64 - 2).max(3));
        // Spine long enough that interior weights fit under the cap, and
        // short enough that the off-spine tasks can absorb the remaining
        // work under the cap.
        let off_work = work - cpl;
        let off_cap = STG_WEIGHT_MAX.min(cpl - 2).max(1);
        let min_off_tasks = off_work.div_ceil(off_cap) as usize;
        let min_len = (cpl.div_ceil(STG_WEIGHT_MAX) as usize + 2).max(3);
        let max_len = (n_tasks - min_off_tasks).min(cpl as usize);
        assert!(
            min_len <= max_len,
            "infeasible parallelism target: n={n_tasks}, p={parallelism}"
        );
        let target_len = (cpl as f64 / 120.0).round() as usize;
        let spine_len = target_len.clamp(min_len, max_len);
        let cfg = SpineConfig {
            n_tasks,
            spine_len,
            cpl,
            work,
            extra_edges: n_tasks / 3,
            weight_cap: STG_WEIGHT_MAX,
        };
        generate(&cfg, seed)
    }
}

/// Fan-in/fan-out random DAG generation — the second construction method
/// of the STG set (Tobita & Kasahara): grow the graph by repeatedly
/// either *expanding* a frontier node into several successors (fan-out)
/// or *joining* several frontier nodes into one successor (fan-in).
/// Produces bushier, less layered graphs than [`layered`].
pub mod fanin {
    use super::*;

    /// Configuration of the fan-in/fan-out generator.
    #[derive(Debug, Clone)]
    pub struct FaninConfig {
        /// Number of non-dummy tasks.
        pub n_tasks: usize,
        /// Maximum out-degree of a fan-out expansion.
        pub max_out: usize,
        /// Maximum in-degree of a fan-in join.
        pub max_in: usize,
        /// Probability of choosing fan-out over fan-in at each step.
        pub fanout_prob: f64,
        /// Weight range (inclusive) in STG units.
        pub weight_range: (u64, u64),
    }

    impl Default for FaninConfig {
        fn default() -> Self {
            FaninConfig {
                n_tasks: 100,
                max_out: 4,
                max_in: 4,
                fanout_prob: 0.5,
                weight_range: (1, STG_WEIGHT_MAX),
            }
        }
    }

    /// Generate one fan-in/fan-out DAG.
    pub fn generate(cfg: &FaninConfig, seed: u64) -> TaskGraph {
        assert!(cfg.n_tasks >= 1);
        assert!(cfg.max_out >= 1 && cfg.max_in >= 1);
        assert!((0.0..=1.0).contains(&cfg.fanout_prob));
        let mut rng = Rng::seed_from_u64(seed ^ 0xFA21);
        let mut b = GraphBuilder::with_capacity(cfg.n_tasks, cfg.n_tasks * 2);
        let weight = |rng: &mut Rng| rng.gen_range(cfg.weight_range.0..=cfg.weight_range.1);

        // Frontier: tasks with no successors yet.
        let w0 = weight(&mut rng);
        let mut frontier: Vec<TaskId> = vec![b.add_task(w0)];
        while b.len() < cfg.n_tasks {
            let remaining = cfg.n_tasks - b.len();
            if frontier.len() > 1 && (!rng.gen_bool(cfg.fanout_prob) || remaining == 1) {
                // Fan-in: join 2..=max_in frontier nodes into one child.
                let k = rng
                    .gen_range(2..=cfg.max_in.min(frontier.len()))
                    .min(frontier.len());
                let w = weight(&mut rng);
                let child = b.add_task(w);
                for _ in 0..k {
                    let i = rng.gen_range(0..frontier.len());
                    let parent = frontier.swap_remove(i);
                    b.add_edge(parent, child).expect("valid ids");
                }
                frontier.push(child);
            } else {
                // Fan-out: expand one frontier node into 1..=max_out
                // children (capped at the budget).
                let i = rng.gen_range(0..frontier.len());
                let parent = frontier.swap_remove(i);
                let k = rng.gen_range(1..=cfg.max_out).min(remaining);
                for _ in 0..k {
                    let w = weight(&mut rng);
                    let child = b.add_task(w);
                    b.add_edge(parent, child).expect("valid ids");
                    frontier.push(child);
                }
            }
        }
        b.build().expect("fan-in/fan-out graphs are DAGs")
    }
}

#[cfg(test)]
mod tests {
    use super::fanin::{generate as fanin_gen, FaninConfig};
    use super::layered::{generate as layered_gen, stg_group, LayeredConfig};
    use super::spine::{generate as spine_gen, with_parallelism, SpineConfig};
    use super::*;

    #[test]
    fn random_partition_respects_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..100 {
            let parts = rng.gen_range(1..20usize);
            let cap = rng.gen_range(1..50u64);
            let total = rng.gen_range(parts as u64..=parts as u64 * cap);
            let p = random_partition(&mut rng, total, parts, cap);
            assert_eq!(p.len(), parts);
            assert_eq!(p.iter().sum::<u64>(), total);
            assert!(p.iter().all(|&w| (1..=cap).contains(&w)));
        }
    }

    #[test]
    #[should_panic(expected = "total")]
    fn random_partition_rejects_infeasible() {
        let mut rng = Rng::seed_from_u64(1);
        random_partition(&mut rng, 5, 10, 300);
    }

    #[test]
    fn layered_generates_valid_dag_of_requested_size() {
        let cfg = LayeredConfig {
            n_tasks: 120,
            n_layers: 12,
            dummies: true,
            ..LayeredConfig::default()
        };
        let g = layered_gen(&cfg, 42);
        assert_eq!(g.len(), 122); // +2 dummies
                                  // Unique entry/exit.
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        // Weights in STG range (dummies are 0).
        for t in g.tasks() {
            assert!(g.weight(t) <= STG_WEIGHT_MAX);
        }
    }

    #[test]
    fn layered_is_deterministic_per_seed() {
        let cfg = LayeredConfig::default();
        let a = layered_gen(&cfg, 9);
        let b = layered_gen(&cfg, 9);
        assert_eq!(a, b);
        let c = layered_gen(&cfg, 10);
        assert_ne!(a, c);
    }

    /// FNV-1a over the task count, every weight, the edge count and
    /// every edge in CSR order: equal hashes mean equal graphs for any
    /// purpose the solver cares about.
    fn graph_hash(g: &TaskGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(g.len() as u64);
        for &w in g.weights() {
            eat(w);
        }
        eat(g.edge_count() as u64);
        for (from, to) in g.edges() {
            eat(u64::from(from.0));
            eat(u64::from(to.0));
        }
        h
    }

    /// Pins the exact graphs the generators emit (hashes recorded
    /// before the single-build generator and the O(V+E) `build`), so a
    /// change to either that moves one weight or edge fails here.
    #[test]
    fn golden_generated_graphs() {
        let group = |n: usize, count: usize, seed: u64| {
            stg_group(n, count, seed)
                .iter()
                .fold(0u64, |acc, g| acc.rotate_left(7) ^ graph_hash(g))
        };
        let got_groups = [
            group(10, 40, 2006),
            group(40, 20, 7),
            group(200, 6, 2006),
            group(1000, 2, 41),
        ];
        let layered = |n_tasks: usize, n_layers: usize, seed: u64| {
            let cfg = LayeredConfig {
                n_tasks,
                n_layers,
                dummies: true,
                ..LayeredConfig::default()
            };
            graph_hash(&layered_gen(&cfg, seed))
        };
        let got_layered = [
            layered(1, 1, 3),
            layered(50, 5, 11),
            layered(120, 12, 42),
            layered(500, 3, 2006),
        ];
        assert_eq!(
            got_groups,
            [
                0xf27e_188c_bf3a_899b,
                0xd4fa_c196_7e5f_296e,
                0x963b_882b_9fa4_7eb8,
                0x1b12_5942_157e_668b,
            ]
        );
        assert_eq!(
            got_layered,
            [
                0xeab8_3519_be11_b1b7,
                0x53db_9cc2_c630_c80e,
                0x6d2c_a9f2_7dd4_0f78,
                0x8cb6_3347_8453_582f,
            ]
        );
    }

    #[test]
    fn stg_group_spans_parallelism_range() {
        let graphs = stg_group(200, 24, 3);
        assert_eq!(graphs.len(), 24);
        let ps: Vec<f64> = graphs.iter().map(|g| g.parallelism()).collect();
        let min = ps.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ps.iter().cloned().fold(0.0, f64::max);
        assert!(min < 4.0, "min parallelism {min}");
        assert!(max > 8.0, "max parallelism {max}");
    }

    #[test]
    fn spine_hits_exact_targets() {
        let cfg = SpineConfig {
            n_tasks: 88,
            spine_len: 45,
            cpl: 545,
            work: 2459,
            extra_edges: 0,
            weight_cap: 300,
        };
        let g = spine_gen(&cfg, 11);
        assert_eq!(g.len(), 88);
        assert_eq!(g.critical_path_cycles(), 545);
        assert_eq!(g.total_work_cycles(), 2459);
        assert_eq!(g.edge_count(), 44 + 2 * 43); // robot: exactly 130
    }

    #[test]
    fn spine_extra_edges_preserve_cpl() {
        let base = SpineConfig {
            n_tasks: 100,
            spine_len: 30,
            cpl: 400,
            work: 3000,
            extra_edges: 0,
            weight_cap: 300,
        };
        let with_extras = SpineConfig {
            extra_edges: 150,
            ..base
        };
        let g0 = spine_gen(&base, 5);
        let g1 = spine_gen(&with_extras, 5);
        assert_eq!(g0.critical_path_cycles(), g1.critical_path_cycles());
        assert_eq!(g0.total_work_cycles(), g1.total_work_cycles());
        assert!(g1.edge_count() > g0.edge_count());
    }

    #[test]
    fn with_parallelism_is_close() {
        for &p in &[1.5, 4.0, 12.0, 30.0] {
            let g = with_parallelism(1000, p, 77);
            let got = g.parallelism();
            assert!((got / p - 1.0).abs() < 0.15, "target {p}, got {got}");
            assert_eq!(g.len(), 1000);
        }
    }

    #[test]
    fn with_parallelism_chain_limit() {
        let g = with_parallelism(50, 1.0, 3);
        assert!(g.parallelism() < 1.3);
    }

    #[test]
    fn fanin_generates_requested_size() {
        for seed in 0..5 {
            let cfg = FaninConfig {
                n_tasks: 80,
                ..FaninConfig::default()
            };
            let g = fanin_gen(&cfg, seed);
            assert_eq!(g.len(), 80);
            // Single root by construction.
            assert_eq!(g.sources().len(), 1);
            for t in g.tasks() {
                assert!(g.weight(t) >= 1 && g.weight(t) <= STG_WEIGHT_MAX);
                assert!(g.out_degree(t) <= 4);
                assert!(g.in_degree(t) <= 4);
            }
        }
    }

    #[test]
    fn fanin_deterministic_and_varied() {
        let cfg = FaninConfig::default();
        assert_eq!(fanin_gen(&cfg, 7), fanin_gen(&cfg, 7));
        assert_ne!(fanin_gen(&cfg, 7), fanin_gen(&cfg, 8));
    }

    #[test]
    fn fanin_fanout_prob_shapes_graph() {
        // Pure fan-out gives an out-tree (every non-root has in-degree
        // 1); heavy fan-in gives join nodes.
        let tree = fanin_gen(
            &FaninConfig {
                n_tasks: 60,
                fanout_prob: 1.0,
                ..FaninConfig::default()
            },
            3,
        );
        assert!(tree.tasks().all(|t| tree.in_degree(t) <= 1));
        let joiny = fanin_gen(
            &FaninConfig {
                n_tasks: 60,
                fanout_prob: 0.3,
                ..FaninConfig::default()
            },
            3,
        );
        assert!(joiny.tasks().any(|t| joiny.in_degree(t) >= 2));
    }

    #[test]
    fn spine_weight_caps_respected() {
        let cfg = SpineConfig {
            n_tasks: 60,
            spine_len: 20,
            cpl: 500,
            work: 2000,
            extra_edges: 10,
            weight_cap: 300,
        };
        let g = spine_gen(&cfg, 1);
        for t in g.tasks() {
            assert!(g.weight(t) >= 1 && g.weight(t) <= 300);
        }
    }
}
