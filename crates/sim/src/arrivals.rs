//! The arrival times of an online stream.
//!
//! A stream built by [`crate::OnlineStream::periodic`] or
//! [`crate::OnlineStream::synthesize`] lets frame `i` arrive at
//! `i · arrival_factor · span`, so it stores the three numbers of that
//! progression instead of one `f64` per frame and evaluates the product
//! in exactly that order whenever an arrival is read. A table assembled
//! from explicit arrivals ([`crate::FrameTable::from_parts`]) holds them
//! as a vector. Neither is edited once built.

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
    /// Number of arrivals: the table's frame count.
    pub(crate) fn len(&self) -> usize {
        match self {
            ArrivalColumn::Progression { n, .. } => *n,
            ArrivalColumn::Explicit(v) => v.len(),
        }
    }

    /// Arrival `i` \[s\].
    ///
    /// # Panics
    ///
    /// If `i` is not below [`ArrivalColumn::len`].
    pub(crate) fn get(&self, i: usize) -> f64 {
        match *self {
            ArrivalColumn::Progression { n, factor, span } => {
                assert!(i < n, "arrival {i} out of range for {n} frames");
                i as f64 * factor * span
            }
            ArrivalColumn::Explicit(ref v) => v[i],
        }
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
        assert_eq!(col.len(), 5);
        let explicit = ArrivalColumn::Explicit(want.clone());
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(col.get(i).to_bits(), w.to_bits());
            assert_eq!(explicit.get(i).to_bits(), w.to_bits());
        }
        assert_eq!(ArrivalColumn::Progression { n: 0, factor, span }.len(), 0);
        assert_eq!(ArrivalColumn::default().len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reads_past_the_end_panic() {
        let col = ArrivalColumn::Progression {
            n: 2,
            factor: 1.0,
            span: 1.0,
        };
        col.get(2);
    }
}
