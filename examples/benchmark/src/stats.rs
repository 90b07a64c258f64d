//! Order statistics over measured samples.

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p`% of the samples at or below
/// it. NaN when there are no samples, which the coverage check reports.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest of the usual reporting percentiles (50, 80, 90, 95, 98, 99,
/// 99.9) that still has at least ten samples beyond it, so a tail figure is
/// never read off one or two outliers. `None` below 20 samples.
pub fn supported_percentile(count: usize) -> Option<f64> {
    [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0]
        .into_iter()
        .find(|&p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn supported_percentile_keeps_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(49), Some(50.0));
        assert_eq!(supported_percentile(50), Some(80.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(999), Some(98.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
        for n in 20..3000 {
            let p = supported_percentile(n).unwrap();
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }
}
