//! Order statistics over small samples: the median every timing is
//! reported as, nearest-rank percentiles for the latency tails, and the
//! quartile spread the acceptance check uses.

/// Sorted copy of `values` (total order, so NaN cannot poison a sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle value, or the mean of the two middle values.
///
/// # Panics
/// Panics on an empty sample — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `q` percent
/// of the sample at or below it. With fewer than ten samples beyond it the
/// value is an order statistic of the slowest few, not a tail estimate;
/// [`samples_beyond`] says which.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
    let v = sorted(values);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`th
/// percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| -> f64 {
        // j = i·(n+1)/4 clamped to [1, n-1]; interpolate v[j-1]..v[j].
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median — the spread the
/// acceptance check holds against a metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[2.0, 9.0, 1.0, 7.0, 5.0]), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Small samples: the p95 of twelve is the largest.
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(percentile(&twelve, 95.0), 12.0);
        assert_eq!(percentile(&twelve, 50.0), 6.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(6000, 95.0), 300);
        assert_eq!(samples_beyond(12, 95.0), 0);
        assert_eq!(samples_beyond(200, 95.0), 10);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let (q1, q3) = quartiles(&[3.0, 5.0]);
        assert!((q1 - 2.5).abs() < 1e-12 && (q3 - 5.5).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
