//! Percentiles, medians and latency summaries.

/// Beyond a reported tail percentile there must lie at least this many
/// samples; with fewer, the percentile is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], q: f64) -> (usize, f64) {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (rank, sorted[rank - 1])
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (so p99 needs 1000 samples).
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let (rank, value) = nearest_rank(&v, q);
    (v.len() - rank >= MIN_BEYOND).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Rank 990 leaves exactly 10 samples beyond.
        assert_eq!(tail_percentile(&thousand, 0.99), Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.99), None, "only 9 samples beyond rank 990");
        assert_eq!(tail_percentile(&[], 0.99), None);
        // p90 of 100 samples has 10 beyond; of 99 it has 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
