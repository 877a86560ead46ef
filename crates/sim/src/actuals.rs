//! The actual-cycles column of an online stream.
//!
//! Every frame's actual cycles sit in one flat column at the narrowest
//! width that holds every value: `u32` when every count fits, `u64`
//! otherwise. An actual never exceeds its job's WCET, so a graph whose
//! largest WCET fits in `u32` always gets the narrow column. The width
//! is a fact of the values, never a setting, and the column is
//! canonical: it is narrow exactly when every value fits, so two
//! columns compare equal exactly when they hold the same values.
//!
//! Readers see an [`Actuals`] view and get every value as `u64`.

use std::ops::Range;

/// Every frame's actual cycles, frame-major, narrow exactly when every
/// value fits in `u32`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Default for Column {
    fn default() -> Self {
        Column::Narrow(Vec::new())
    }
}

impl Column {
    /// An empty column with room for `len` values, none above `max`:
    /// narrow when `max` fits in `u32`.
    pub(crate) fn with_capacity(len: usize, max: u64) -> Self {
        if u32::try_from(max).is_ok() {
            Column::Narrow(Vec::with_capacity(len))
        } else {
            Column::Wide(Vec::with_capacity(len))
        }
    }

    /// The column holding exactly `values`.
    pub(crate) fn from_values(values: Vec<u64>) -> Self {
        let mut column = Column::Wide(values);
        column.canonicalize();
        column
    }

    /// Append `values`.
    ///
    /// # Panics
    ///
    /// If the column is narrow and a value does not fit in `u32`: the
    /// column's width comes from a bound every value must respect.
    pub(crate) fn extend(&mut self, values: impl Iterator<Item = u64>) {
        match self {
            Column::Narrow(v) => v.extend(values.map(|a| {
                u32::try_from(a).expect("a value above the bound the column was sized for")
            })),
            Column::Wide(v) => v.extend(values),
        }
    }

    /// Narrow a wide column whose every value fits.
    pub(crate) fn canonicalize(&mut self) {
        if let Column::Wide(v) = self {
            if v.iter().all(|&a| u32::try_from(a).is_ok()) {
                *self = Column::Narrow(v.iter().map(|&a| a as u32).collect());
            }
        }
    }

    /// Overwrite value `i` with `value`, widening the column when
    /// `value` does not fit and narrowing it when `value` replaced the
    /// last value that did not.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub(crate) fn set(&mut self, i: usize, value: u64) {
        match self {
            Column::Narrow(v) => match u32::try_from(value) {
                Ok(narrow) => v[i] = narrow,
                Err(_) => {
                    assert!(i < v.len(), "index {i} out of range for {}", v.len());
                    let mut wide: Vec<u64> = v.iter().map(|&a| u64::from(a)).collect();
                    wide[i] = value;
                    *self = Column::Wide(wide);
                }
            },
            Column::Wide(v) => {
                let old = std::mem::replace(&mut v[i], value);
                if u32::try_from(old).is_err() && u32::try_from(value).is_ok() {
                    self.canonicalize();
                }
            }
        }
    }

    /// The values in `range`.
    pub(crate) fn view(&self, range: Range<usize>) -> Actuals<'_> {
        Actuals(match self {
            Column::Narrow(v) => Slice::Narrow(&v[range]),
            Column::Wide(v) => Slice::Wide(&v[range]),
        })
    }

    /// Every value.
    pub(crate) fn all(&self) -> Actuals<'_> {
        self.view(0..self.len())
    }

    fn len(&self) -> usize {
        match self {
            Column::Narrow(v) => v.len(),
            Column::Wide(v) => v.len(),
        }
    }
}

/// A borrowed run of actual cycle counts — one frame's, or a whole
/// table's — read as `u64` whatever width its column stores. Two views
/// are equal when they hold the same values, whatever their widths.
#[derive(Debug, Clone, Copy)]
pub struct Actuals<'a>(Slice<'a>);

#[derive(Debug, Clone, Copy)]
enum Slice<'a> {
    Narrow(&'a [u32]),
    Wide(&'a [u64]),
}

impl<'a> Actuals<'a> {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self.0 {
            Slice::Narrow(v) => v.len(),
            Slice::Wide(v) => v.len(),
        }
    }

    /// Whether the view holds no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `j`.
    ///
    /// # Panics
    ///
    /// If `j` is not below [`Actuals::len`].
    pub fn get(&self, j: usize) -> u64 {
        match self.0 {
            Slice::Narrow(v) => u64::from(v[j]),
            Slice::Wide(v) => v[j],
        }
    }

    /// The values in order.
    pub fn iter(&self) -> Iter<'a> {
        match self.0 {
            Slice::Narrow(v) => Iter {
                narrow: v.iter(),
                wide: [].iter(),
            },
            Slice::Wide(v) => Iter {
                narrow: [].iter(),
                wide: v.iter(),
            },
        }
    }

    /// The values, widened into an owned vector.
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }
}

impl<'a> From<&'a [u64]> for Actuals<'a> {
    fn from(values: &'a [u64]) -> Self {
        Actuals(Slice::Wide(values))
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

/// The values of an [`Actuals`] view, as `u64`. One of the two slices
/// is always empty.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    narrow: std::slice::Iter<'a, u32>,
    wide: std::slice::Iter<'a, u64>,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self.narrow.next() {
            Some(&a) => Some(u64::from(a)),
            None => self.wide.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.narrow.len() + self.wide.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: u64 = u32::MAX as u64 + 1;

    #[test]
    fn columns_are_narrow_exactly_when_every_value_fits() {
        let fits = Column::from_values(vec![0, 7, u32::MAX as u64]);
        assert!(matches!(fits, Column::Narrow(_)));
        assert_eq!(fits.all().to_vec(), [0, 7, u32::MAX as u64]);
        let wide = Column::from_values(vec![0, BIG]);
        assert!(matches!(wide, Column::Wide(_)));
        assert_eq!(Column::from_values(vec![]), Column::default());
        assert!(matches!(Column::with_capacity(4, BIG), Column::Wide(_)));
        assert!(matches!(
            Column::with_capacity(4, u32::MAX as u64),
            Column::Narrow(_)
        ));
    }

    #[test]
    fn views_read_the_same_values_at_either_width() {
        let narrow = Column::Narrow(vec![1, 2, 3, 4]);
        let wide: &[u64] = &[2, 3];
        assert_eq!(narrow.view(1..3), Actuals::from(wide));
        assert_ne!(narrow.view(0..2), Actuals::from(wide));
        let v = narrow.view(1..4);
        assert_eq!((v.len(), v.get(2)), (3, 4));
        assert_eq!(v.iter().len(), 3);
        assert_eq!(v.into_iter().sum::<u64>(), 9);
    }
}
