//! The arrival times of an online stream.
//!
//! A stream built by [`crate::OnlineStream::periodic`] or
//! [`crate::OnlineStream::synthesize`] lets frame `i` arrive at
//! `i · arrival_factor · span`, so it stores the three numbers of that
//! progression instead of one `f64` per frame and evaluates the product
//! in exactly that order whenever an arrival is read. A table assembled
//! from explicit arrivals ([`crate::FrameTable::from_parts`]) holds them
//! as a vector. Neither is edited once built.
//!
//! Readers see an [`Arrivals`] view, and two columns compare equal when
//! they hold the same values, whichever way each is stored.

/// Every frame's arrival \[s\]: a progression or explicit values.
#[derive(Debug, Clone)]
pub(crate) enum ArrivalColumn {
    /// Frame `i` of `n` arrives at `i · factor · span`.
    Progression { n: usize, factor: f64, span: f64 },
    /// One arrival per frame.
    Explicit(Vec<f64>),
}

impl Default for ArrivalColumn {
    fn default() -> Self {
        ArrivalColumn::Explicit(Vec::new())
    }
}

impl ArrivalColumn {
    /// Every arrival.
    pub(crate) fn view(&self) -> Arrivals<'_> {
        Arrivals(self)
    }
}

impl PartialEq for ArrivalColumn {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

/// A borrowed view of a stream's arrivals \[s\], one per frame, read the
/// same whether the stream stores them as a progression or explicitly.
/// Two views are equal when they hold the same values (`f64 ==`).
#[derive(Debug, Clone, Copy)]
pub struct Arrivals<'a>(&'a ArrivalColumn);

impl<'a> Arrivals<'a> {
    /// Number of arrivals.
    pub fn len(&self) -> usize {
        match self.0 {
            ArrivalColumn::Progression { n, .. } => *n,
            ArrivalColumn::Explicit(v) => v.len(),
        }
    }

    /// Whether the view holds no arrival.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arrival `i` \[s\].
    ///
    /// # Panics
    ///
    /// If `i` is not below [`Arrivals::len`].
    pub fn get(&self, i: usize) -> f64 {
        match *self.0 {
            ArrivalColumn::Progression { n, factor, span } => {
                assert!(i < n, "arrival {i} out of range for {n} frames");
                i as f64 * factor * span
            }
            ArrivalColumn::Explicit(ref v) => v[i],
        }
    }

    /// The arrivals in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.get(i))
    }

    /// The arrivals, in an owned vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

impl PartialEq for Arrivals<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progressions_read_the_products_in_order() {
        let (factor, span) = (0.85, 0.0123);
        let col = ArrivalColumn::Progression { n: 5, factor, span };
        let want: Vec<f64> = (0..5).map(|i| i as f64 * factor * span).collect();
        let v = col.view();
        assert_eq!((v.len(), v.is_empty()), (5, false));
        assert_eq!(v.iter().len(), 5);
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(v.get(i).to_bits(), w.to_bits());
        }
        assert_eq!(col, ArrivalColumn::Explicit(want));
        assert_eq!(
            ArrivalColumn::Progression { n: 0, factor, span },
            ArrivalColumn::default()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reads_past_the_end_panic() {
        let col = ArrivalColumn::Progression {
            n: 2,
            factor: 1.0,
            span: 1.0,
        };
        col.view().get(2);
    }
}
