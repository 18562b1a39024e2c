//! Order statistics over latency samples.

/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `true` when at least [`TAIL_SAMPLES`] samples lie beyond the
/// nearest-rank `p`th percentile of `n` samples, so the percentile is
/// more than a restatement of the few slowest samples.
pub fn supported(n: usize, p: f64) -> bool {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    n >= rank + TAIL_SAMPLES
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// Median of unsorted samples (nearest-rank p50).
pub fn median(mut samples: Vec<f64>) -> f64 {
    sort(&mut samples);
    percentile(&samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50.0), 2.0);
        assert_eq!(percentile(&odd, 1.0), 1.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p95 of 200 is rank 190: exactly ten samples lie beyond
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
    }
}
