//! The benchmark's own arithmetic: nearest-rank percentiles that carry
//! their sample counts, medians and geometric means.

/// One percentile of a sample, with the counts that say how much to trust
/// it: `samples` values in all, `beyond` of them strictly above the rank
/// the value was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the nearest rank (0 for an empty sample).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked above the one reported.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0–100] of `values`: the smallest value
/// such that at least `p`% of the sample is at or below it. Empty input
/// gives a zero value with zero samples.
pub fn percentile(values: &[f64], p: f64) -> Percentile {
    let n = values.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Median (mean of the two middle values for an even count; 0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Geometric mean of positive ratios (1 for an empty list).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_report_their_counts() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&v, 50.0);
        assert_eq!(p50.value, 500.0);
        assert_eq!((p50.samples, p50.beyond), (1000, 500));
        let p99 = percentile(&v, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn percentile_is_order_independent_and_clamped() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0).value, 3.0);
        // Few samples: p99 is the maximum, with nothing beyond it.
        let p99 = percentile(&v, 99.0);
        assert_eq!((p99.value, p99.beyond), (5.0, 0));
        assert_eq!(percentile(&v, 0.0).value, 1.0);
        assert_eq!(percentile(&[], 99.0).samples, 0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.9, 0.9, 0.9]) - 0.9).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
