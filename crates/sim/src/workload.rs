//! Actual-execution-time generation.
//!
//! The paper's MPEG task weights are *maximum* execution times of the
//! Tennis sequence; real frames finish earlier. This module draws
//! per-task actual cycle counts as a seeded fraction of the WCET.

use lamps_taskgraph::rng::Rng;
use lamps_taskgraph::TaskGraph;

/// Draw actual cycles per task: uniform in
/// `[min_fraction · w, max_fraction · w]`, clamped to `[1, w]` for
/// non-zero-weight tasks (zero-weight dummies stay zero).
///
/// # Panics
///
/// Panics unless `0 < min_fraction ≤ max_fraction ≤ 1`.
pub fn actual_cycles(
    graph: &TaskGraph,
    min_fraction: f64,
    max_fraction: f64,
    seed: u64,
) -> Vec<u64> {
    check_fractions(min_fraction, max_fraction);
    let mut rng = Rng::seed_from_u64(seed);
    graph
        .weights()
        .iter()
        .map(|&w| draw_job(&mut rng, w, min_fraction, max_fraction))
        .collect()
}

/// Panic unless `0 < min_fraction ≤ max_fraction ≤ 1`.
pub(crate) fn check_fractions(min_fraction: f64, max_fraction: f64) {
    assert!(
        min_fraction > 0.0 && min_fraction <= max_fraction && max_fraction <= 1.0,
        "fractions must satisfy 0 < min <= max <= 1"
    );
}

/// Frame `i`'s seed in a stream seeded with `seed`: its actuals draw
/// from it, and its faults from it `^ 0x5EED`.
pub(crate) fn frame_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One job's actual cycles, the next draw of `rng` for WCET `w`: the
/// per-job step of [`actual_cycles`], and of every read of a stream's
/// drawn actuals. A zero-weight job reads 0 and consumes no draw.
pub(crate) fn draw_job(rng: &mut Rng, w: u64, min_fraction: f64, max_fraction: f64) -> u64 {
    if w == 0 {
        0
    } else {
        let f = rng.gen_range(min_fraction..=max_fraction);
        ((w as f64 * f).round() as u64).clamp(1, w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lamps_taskgraph::GraphBuilder;

    fn graph() -> TaskGraph {
        let mut b = GraphBuilder::new();
        b.add_task(0);
        for _ in 0..50 {
            b.add_task(1_000_000);
        }
        b.build().unwrap()
    }

    #[test]
    fn fractions_respected() {
        let g = graph();
        let a = actual_cycles(&g, 0.4, 0.8, 7);
        assert_eq!(a[0], 0);
        for (&actual, &w) in a.iter().zip(g.weights()).skip(1) {
            assert!(actual >= (0.4 * w as f64) as u64 - 1);
            assert!(actual <= (0.8 * w as f64) as u64 + 1);
        }
    }

    #[test]
    fn full_fraction_is_wcet() {
        let g = graph();
        let a = actual_cycles(&g, 1.0, 1.0, 7);
        assert_eq!(&a[..], g.weights());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = graph();
        assert_eq!(
            actual_cycles(&g, 0.5, 0.9, 3),
            actual_cycles(&g, 0.5, 0.9, 3)
        );
        assert_ne!(
            actual_cycles(&g, 0.5, 0.9, 3),
            actual_cycles(&g, 0.5, 0.9, 4)
        );
    }

    #[test]
    #[should_panic(expected = "fractions")]
    fn bad_fractions_rejected() {
        actual_cycles(&graph(), 0.9, 0.5, 1);
    }
}
