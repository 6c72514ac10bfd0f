//! Order statistics over latency samples.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! above it, so a p99 needs 1,000 samples: a tail read off fewer points is
//! one or two outliers, not a distribution.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by nearest rank, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    // The epsilon keeps `0.99 * 1000` from rounding up to rank 991.
    let rank = (q * samples.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    at_rank(samples, rank)
}

/// The `rank`-th smallest sample (1-based), if [`MIN_BEYOND`] lie above it.
fn at_rank(samples: &[f64], rank: usize) -> Option<f64> {
    if rank == 0 || rank > samples.len() || samples.len() - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median by nearest rank of a small set of repeats (no tail rule: used
/// for the handful of set-up repetitions in one run).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_refused_below_ten_samples_beyond() {
        // 999 samples: rank 990, only 9 above it.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // 1,000 samples: rank 990, exactly 10 above it.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn median_by_nearest_rank_ignores_order() {
        let mut v = ramp(101);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(51.0));
        assert_eq!(percentile(&ramp(19), 0.5), None, "only 9 above the median");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
