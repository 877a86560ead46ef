//! The actual-cycles column of an online stream.
//!
//! A built stream derives its actuals rather than storing them: it
//! keeps a copy of the job WCETs, and a read of frame `i` either copies
//! those WCETs (a worst-case stream) or draws the frame's values from
//! its seed, `frame_seed(seed, i)`, with the per-job step of
//! [`crate::actual_cycles`]. So the column costs `8·N` bytes for `N`
//! jobs, however many frames it spans.
//!
//! A table assembled from values stores every frame's actual cycles in
//! one flat `u64` column, `8·F·N` bytes for `F` frames. A column is
//! never edited once built, and is read one frame at a time into a
//! buffer the caller owns.

use crate::workload::draw_job;
use lamps_taskgraph::rng::Rng;

/// Frame `i`'s seed in a stream seeded with `seed`: its actuals draw
/// from it, and its faults from it `^ 0x5EED`.
pub(crate) fn frame_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every frame's actual cycles: stored frame-major, or derived from a
/// copy of the job WCETs, each frame running the WCETs themselves or,
/// with a draw, frame `i` drawing its values from
/// [`frame_seed`]`(seed, i)` as [`crate::actual_cycles`] does.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Stored(Box<[u64]>),
    Derived {
        wcet: Box<[u64]>,
        draw: Option<Draw>,
    },
}

/// The fraction bounds and stream seed of drawn actuals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Draw {
    lo: f64,
    hi: f64,
    seed: u64,
}

impl Default for Column {
    fn default() -> Self {
        Column::Stored(Box::default())
    }
}

impl Column {
    /// Frames that each run every job's WCET `wcet`.
    pub(crate) fn wcet(wcet: &[u64]) -> Self {
        Column::Derived {
            wcet: wcet.into(),
            draw: None,
        }
    }

    /// Frames whose actuals are drawn in `[lo, hi] × wcet`, frame `i`'s
    /// from [`frame_seed`]`(seed, i)`. The caller checks the fractions.
    pub(crate) fn drawn(wcet: &[u64], lo: f64, hi: f64, seed: u64) -> Self {
        Column::Derived {
            wcet: wcet.into(),
            draw: Some(Draw { lo, hi, seed }),
        }
    }

    /// The column holding exactly `values`.
    pub(crate) fn from_values(values: Vec<u64>) -> Self {
        Column::Stored(values.into_boxed_slice())
    }

    /// The WCETs a derived column reads at or below, frame by frame;
    /// `None` for a stored column, whose values have no such bound.
    pub(crate) fn wcet_bound(&self) -> Option<&[u64]> {
        match self {
            Column::Derived { wcet, .. } => Some(wcet),
            Column::Stored(_) => None,
        }
    }

    /// Replace `out` with frame `i`'s values, `jobs` of them in a stored
    /// column. A derived read draws from the frame's seed alone, so it
    /// costs one seeding and one draw per job whatever `i` is.
    ///
    /// # Panics
    ///
    /// If a stored column holds no frame `i`.
    pub(crate) fn read(&self, i: usize, jobs: usize, out: &mut Vec<u64>) {
        out.clear();
        match self {
            Column::Stored(v) => out.extend_from_slice(&v[i * jobs..(i + 1) * jobs]),
            Column::Derived { wcet, draw: None } => out.extend_from_slice(wcet),
            Column::Derived {
                wcet,
                draw: Some(d),
            } => {
                let mut rng = Rng::seed_from_u64(frame_seed(d.seed, i));
                out.extend(wcet.iter().map(|&w| draw_job(&mut rng, w, d.lo, d.hi)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::actual_cycles;
    use lamps_taskgraph::GraphBuilder;

    const BIG: u64 = u32::MAX as u64 + 1;

    /// Jobs of every kind a draw treats apart: zero-weight dummies
    /// between and at either end, and a WCET that needs `u64`.
    const WCET: [u64; 6] = [0, 1_000_000, 0, 7, 5 * BIG, 0];

    fn graph() -> lamps_taskgraph::TaskGraph {
        let mut b = GraphBuilder::new();
        for w in WCET {
            b.add_task(w);
        }
        b.build().unwrap()
    }

    /// `frames` frames of `column`, read back to back.
    fn all(column: &Column, frames: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut frame = Vec::new();
        for i in 0..frames {
            column.read(i, WCET.len(), &mut frame);
            out.extend_from_slice(&frame);
        }
        out
    }

    /// Frame `i` of a drawn column reads what [`actual_cycles`] draws
    /// from the frame's seed, in any order; a WCET column reads the
    /// WCETs.
    #[test]
    fn derived_frames_read_their_recipe() {
        let g = graph();
        let n = WCET.len();
        let drawn = Column::drawn(&WCET, 0.3, 0.9, 11);
        let wcet = Column::wcet(&WCET);
        let mut frame = vec![9; 2 * n];
        for i in (0..4).rev() {
            drawn.read(i, n, &mut frame);
            assert_eq!(frame, actual_cycles(&g, 0.3, 0.9, frame_seed(11, i)));
            wcet.read(i, n, &mut frame);
            assert_eq!(frame, WCET);
        }
        let values = all(&drawn, 4);
        drawn.read(1, n, &mut frame);
        assert_eq!(values[n..2 * n], frame);
        assert!(values
            .iter()
            .zip(WCET.iter().cycle())
            .all(|(&a, &w)| a <= w));
        assert!(values.iter().any(|&a| a > u64::from(u32::MAX)));
        assert_eq!(wcet.wcet_bound(), Some(&WCET[..]));
        assert_eq!(Column::from_values(values).wcet_bound(), None);
    }

    /// A zero-WCET job reads 0 and consumes no draw: dropping every
    /// dummy from the graph leaves the other jobs' draws unchanged.
    #[test]
    fn zero_wcet_jobs_read_zero_and_consume_no_draw() {
        let real: Vec<u64> = WCET.iter().copied().filter(|&w| w > 0).collect();
        let with = Column::drawn(&WCET, 0.2, 0.8, 3);
        let without = Column::drawn(&real, 0.2, 0.8, 3);
        let values = all(&with, 5);
        for (a, w) in values.iter().zip(WCET.iter().cycle()) {
            if *w == 0 {
                assert_eq!(*a, 0);
            }
        }
        let kept: Vec<u64> = values
            .iter()
            .zip(WCET.iter().cycle())
            .filter(|(_, &w)| w > 0)
            .map(|(&a, _)| a)
            .collect();
        let mut frame = Vec::new();
        let mut dropped = Vec::new();
        for i in 0..5 {
            without.read(i, real.len(), &mut frame);
            dropped.extend_from_slice(&frame);
        }
        assert_eq!(kept, dropped);
    }

    /// A stored column reads back the values a derived one drew, whether
    /// or not they fit in `u32`, frame by frame.
    #[test]
    fn derived_columns_compare_and_store_by_value() {
        let n = WCET.len();
        let derived = Column::drawn(&WCET, 0.5, 0.9, 2);
        let values = all(&derived, 3);
        let stored = Column::from_values(values.clone());
        assert!(matches!(stored, Column::Stored(_)));
        assert_eq!(all(&stored, 3), values);
        assert_ne!(all(&Column::drawn(&WCET, 0.5, 0.9, 3), 3), values);
        assert_eq!(all(&Column::wcet(&WCET), 2), WCET.repeat(2));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..3 {
            derived.read(i, n, &mut a);
            stored.read(i, n, &mut b);
            assert_eq!(a, b, "frame {i}");
        }
    }
}
