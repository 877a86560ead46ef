//! The actual-cycles column of an online stream.
//!
//! A built stream derives its actuals rather than storing them: it
//! keeps a copy of the job WCETs, and every read either returns those
//! WCETs (a worst-case stream) or draws frame `i`'s values afresh from
//! the frame's seed, `frame_seed(seed, i)`, with the per-job step of
//! [`crate::actual_cycles`]. So the column costs `8·N` bytes for `N`
//! jobs, however many frames it spans.
//!
//! A table assembled from values stores every frame's actual cycles in
//! one flat `u64` column, `8·F·N` bytes for `F` frames. A column is
//! never edited once built.
//!
//! Columns compare by value, whatever their form, and readers see an
//! [`Actuals`] view and get every value as `u64`.

use crate::workload::draw_job;
use lamps_taskgraph::rng::Rng;
use std::ops::Range;

/// Frame `i`'s seed in a stream seeded with `seed`: its actuals draw
/// from it, and its faults from it `^ 0x5EED`.
pub(crate) fn frame_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Every frame's actual cycles, frame-major: stored, or derived from a
/// [`Recipe`].
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Stored(Box<[u64]>),
    Derived(Recipe),
}

/// How a derived column reads: `frames` frames of the jobs whose WCETs
/// are `wcet`, each frame running the WCETs themselves or, with a draw,
/// frame `i` drawing its values from [`frame_seed`]`(seed, i)` as
/// [`crate::actual_cycles`] does.
#[derive(Debug, Clone)]
pub(crate) struct Recipe {
    wcet: Box<[u64]>,
    frames: usize,
    draw: Option<Draw>,
}

/// The fraction bounds and stream seed of drawn actuals.
#[derive(Debug, Clone, Copy)]
struct Draw {
    lo: f64,
    hi: f64,
    seed: u64,
}

impl Default for Column {
    fn default() -> Self {
        Column::Stored(Box::default())
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.all() == other.all()
    }
}

impl Column {
    /// `frames` frames that each run every job's WCET `wcet`.
    pub(crate) fn wcet(wcet: &[u64], frames: usize) -> Self {
        Column::Derived(Recipe {
            wcet: wcet.into(),
            frames,
            draw: None,
        })
    }

    /// `frames` frames whose actuals are drawn in `[lo, hi] × wcet`,
    /// frame `i`'s from [`frame_seed`]`(seed, i)`. The caller checks the
    /// fractions.
    pub(crate) fn drawn(wcet: &[u64], frames: usize, lo: f64, hi: f64, seed: u64) -> Self {
        Column::Derived(Recipe {
            wcet: wcet.into(),
            frames,
            draw: Some(Draw { lo, hi, seed }),
        })
    }

    /// The column holding exactly `values`.
    pub(crate) fn from_values(values: Vec<u64>) -> Self {
        Column::Stored(values.into_boxed_slice())
    }

    /// The WCETs a derived column reads at or below, frame by frame;
    /// `None` for a stored column, whose values have no such bound.
    pub(crate) fn wcet_bound(&self) -> Option<&[u64]> {
        match self {
            Column::Derived(recipe) => Some(&recipe.wcet),
            _ => None,
        }
    }

    /// The values in `range`.
    ///
    /// # Panics
    ///
    /// If `range` does not lie within the column.
    pub(crate) fn view(&self, range: Range<usize>) -> Actuals<'_> {
        Actuals(match self {
            Column::Stored(v) => Slice::Stored(&v[range]),
            Column::Derived(recipe) => {
                let len = self.len();
                assert!(
                    range.start <= range.end && range.end <= len,
                    "range {range:?} out of range for {len}"
                );
                Slice::Derived {
                    recipe,
                    start: range.start,
                    len: range.len(),
                }
            }
        })
    }

    /// Every value.
    pub(crate) fn all(&self) -> Actuals<'_> {
        self.view(0..self.len())
    }

    fn len(&self) -> usize {
        match self {
            Column::Stored(v) => v.len(),
            Column::Derived(recipe) => recipe.frames * recipe.wcet.len(),
        }
    }
}

/// A borrowed run of actual cycle counts — one frame's, or a whole
/// table's — read as `u64` whatever form its column takes. Two views
/// are equal when they hold the same values, whatever their forms.
#[derive(Debug, Clone, Copy)]
pub struct Actuals<'a>(Slice<'a>);

#[derive(Debug, Clone, Copy)]
enum Slice<'a> {
    Stored(&'a [u64]),
    /// Values `start..start + len` of a derived column.
    Derived {
        recipe: &'a Recipe,
        start: usize,
        len: usize,
    },
}

impl<'a> Actuals<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self.0 {
            Slice::Stored(v) => v.len(),
            Slice::Derived { len, .. } => len,
        }
    }

    /// Whether the view holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `j`. On a view of derived actuals this redraws the frame's
    /// values up to `j`, so it costs O(N) for `N` jobs a frame. Only
    /// tests call it: the runtime and its checker read every frame
    /// through [`Actuals::iter`].
    ///
    /// # Panics
    ///
    /// If `j` is not below [`Actuals::len`].
    pub fn get(&self, j: usize) -> u64 {
        match self.0 {
            Slice::Stored(v) => v[j],
            Slice::Derived { recipe, start, len } => {
                assert!(j < len, "index {j} out of range for {len}");
                Derived::at(recipe, start + j, 1).value()
            }
        }
    }

    /// The values in order.
    pub fn iter(&self) -> Iter<'a> {
        Iter(match self.0 {
            Slice::Stored(v) => Form::Stored(v.iter()),
            Slice::Derived { recipe, start, len } => Form::Derived(Derived::at(recipe, start, len)),
        })
    }

    /// The values, widened into an owned vector.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [u64]> for Actuals<'a> {
    fn from(values: &'a [u64]) -> Self {
        Actuals(Slice::Stored(values))
    }
}

impl PartialEq for Actuals<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for Actuals<'a> {
    type Item = u64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// The values of an [`Actuals`] view, as `u64`.
#[derive(Debug, Clone)]
pub struct Iter<'a>(Form<'a>);

#[derive(Debug, Clone)]
enum Form<'a> {
    Stored(std::slice::Iter<'a, u64>),
    Derived(Derived<'a>),
}

/// A read of a derived column: the frame and job of the next value, the
/// values left, and the frame's generator, reseeded at each frame
/// boundary.
#[derive(Debug, Clone)]
struct Derived<'a> {
    recipe: &'a Recipe,
    frame: usize,
    job: usize,
    left: usize,
    rng: Rng,
}

impl<'a> Derived<'a> {
    /// A read of `left` values from value `pos` on: seeded for `pos`'s
    /// frame, with the draws of the frame's earlier jobs consumed.
    fn at(recipe: &'a Recipe, pos: usize, left: usize) -> Self {
        let n = recipe.wcet.len();
        let frame = pos.checked_div(n).unwrap_or(0);
        let job = pos - frame * n;
        let mut read = Derived {
            recipe,
            frame,
            job: 0,
            left,
            rng: Rng::seed_from_u64(recipe.draw.map_or(0, |d| frame_seed(d.seed, frame))),
        };
        for _ in 0..job {
            read.value();
        }
        read
    }

    /// The next value, moving on to the next frame after the last job.
    fn value(&mut self) -> u64 {
        let wcet = &self.recipe.wcet;
        if self.job == wcet.len() {
            self.frame += 1;
            self.job = 0;
            if let Some(d) = self.recipe.draw {
                self.rng = Rng::seed_from_u64(frame_seed(d.seed, self.frame));
            }
        }
        let w = wcet[self.job];
        self.job += 1;
        match self.recipe.draw {
            None => w,
            Some(d) => draw_job(&mut self.rng, w, d.lo, d.hi),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            Form::Stored(v) => v.next().copied(),
            Form::Derived(d) => {
                if d.left == 0 {
                    return None;
                }
                d.left -= 1;
                Some(d.value())
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = match &self.0 {
            Form::Stored(v) => v.len(),
            Form::Derived(d) => d.left,
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::actual_cycles;
    use lamps_taskgraph::GraphBuilder;

    const BIG: u64 = u32::MAX as u64 + 1;

    #[test]
    fn views_read_the_same_values_at_either_width() {
        let stored = Column::from_values(vec![1, 2, 3, 4, BIG]);
        let borrowed: &[u64] = &[2, 3];
        assert_eq!(stored.view(1..3), Actuals::from(borrowed));
        assert_ne!(stored.view(0..2), Actuals::from(borrowed));
        let v = stored.view(1..5);
        assert_eq!((v.len(), v.get(2), v.get(3)), (4, 4, BIG));
        assert_eq!(v.iter().len(), 4);
        assert_eq!(v.into_iter().sum::<u64>(), 9 + BIG);
        assert_eq!(Column::from_values(vec![]), Column::default());
    }

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

    /// Frame `i` of a drawn column reads what [`actual_cycles`] draws
    /// from the frame's seed; a WCET column reads the WCETs.
    #[test]
    fn derived_frames_read_their_recipe() {
        let g = graph();
        let n = WCET.len();
        let drawn = Column::drawn(&WCET, 4, 0.3, 0.9, 11);
        let wcet = Column::wcet(&WCET, 4);
        assert_eq!((drawn.len(), wcet.len()), (4 * n, 4 * n));
        for i in 0..4 {
            let frame = drawn.view(i * n..(i + 1) * n);
            assert_eq!(
                frame.to_vec(),
                actual_cycles(&g, 0.3, 0.9, frame_seed(11, i))
            );
            assert_eq!(wcet.view(i * n..(i + 1) * n).to_vec(), WCET);
        }
        let all = drawn.all().to_vec();
        assert_eq!(all[n..2 * n], drawn.view(n..2 * n).to_vec());
        assert!(all.iter().zip(WCET.iter().cycle()).all(|(&a, &w)| a <= w));
        assert!(all.iter().any(|&a| a > u64::from(u32::MAX)));
        assert_eq!(wcet.wcet_bound(), Some(&WCET[..]));
        assert_eq!(Column::from_values(all).wcet_bound(), None);
    }

    /// `get(j)` reads what `iter().nth(j)` does, on a whole-table view
    /// and on per-frame views, and on views that start mid-frame.
    #[test]
    fn get_reads_what_iteration_reads() {
        let n = WCET.len();
        for column in [Column::drawn(&WCET, 3, 0.5, 1.0, 7), Column::wcet(&WCET, 3)] {
            let mut views = vec![column.all(), column.view(4..3 * n - 1)];
            views.extend((0..3).map(|i| column.view(i * n..(i + 1) * n)));
            for v in views {
                for j in 0..v.len() {
                    assert_eq!(Some(v.get(j)), v.iter().nth(j), "value {j}");
                }
                assert_eq!(v.iter().nth(v.len()), None);
                assert_eq!(v.iter().len(), v.len());
            }
        }
    }

    /// A zero-WCET job reads 0 and consumes no draw: dropping every
    /// dummy from the graph leaves the other jobs' draws unchanged.
    #[test]
    fn zero_wcet_jobs_read_zero_and_consume_no_draw() {
        let real: Vec<u64> = WCET.iter().copied().filter(|&w| w > 0).collect();
        let with = Column::drawn(&WCET, 5, 0.2, 0.8, 3);
        let without = Column::drawn(&real, 5, 0.2, 0.8, 3);
        let values = with.all().to_vec();
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
        assert_eq!(kept, without.all().to_vec());
    }

    /// Equality is by value: a derived column equals the stored column
    /// of its values, whether or not they fit in `u32`.
    #[test]
    fn derived_columns_compare_and_store_by_value() {
        let narrow_wcet = [0, 9, 1_000_000];
        for (wcet, frames) in [(&narrow_wcet[..], 4), (&WCET[..], 2)] {
            let derived = Column::drawn(wcet, frames, 0.5, 0.9, 2);
            let stored = Column::from_values(derived.all().to_vec());
            assert!(matches!(stored, Column::Stored(_)));
            assert_eq!(derived, stored);
            assert_eq!(stored, derived);
            assert_ne!(derived, Column::drawn(wcet, frames, 0.5, 0.9, 3));
            assert_eq!(
                Column::wcet(wcet, frames),
                Column::from_values(wcet.repeat(frames))
            );
        }
        assert_eq!(Column::wcet(&narrow_wcet, 0), Column::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn derived_views_past_the_end_panic() {
        Column::wcet(&WCET, 2).view(0..2 * WCET.len() + 1);
    }
}
