//! Order statistics shared by the workloads and `compare`.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it. `0` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile chosen by the "at least ten samples beyond it"
/// rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile chosen (0.999, 0.99 or 0.9).
    pub q: f64,
    /// Its value.
    pub value: u64,
    /// Samples strictly above its rank.
    pub beyond: usize,
}

/// The highest of p99.9, p99 and p90 that has at least ten samples
/// beyond it, or `None` when even p90 has fewer (under 100 samples).
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    let n = sorted.len();
    [0.999, 0.99, 0.9].into_iter().find_map(|q| {
        let rank = ((q * n as f64).ceil() as usize).max(1);
        let beyond = n.saturating_sub(rank);
        (beyond >= 10).then(|| Tail {
            q,
            value: sorted[rank - 1],
            beyond,
        })
    })
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed the way
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so spreads read the same in both tools. A
/// single value is all three quartiles; an empty slice gives NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let m = d.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, d.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 99 samples: p90 has 9 beyond it, so no tail qualifies.
        let v: Vec<u64> = (1..=99).collect();
        assert_eq!(tail(&v), None);
        // 100 samples: p90 is the highest with 10 beyond.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                q: 0.9,
                value: 90,
                beyond: 10
            })
        );
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let v: Vec<u64> = (1..=1000).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.99, 990, 10));
        // 10 000 samples: p99.9 qualifies.
        let v: Vec<u64> = (1..=10_000).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.q, t.value, t.beyond), (0.999, 9990, 10));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 5.0, 4.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
