//! Order statistics over timing samples.

/// Samples a percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (the mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest whole percentile at most `want` that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when even the median
/// does not.
pub fn supported_percentile(n: usize, want: u32) -> Option<u32> {
    (50..=want.min(99))
        .rev()
        .find(|&p| n * (100 - p as usize) >= TAIL_SAMPLES * 100)
}

/// The `p`-th percentile of `sorted` (nearest rank).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helper_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        assert_eq!(supported_percentile(1000, 99), Some(99));
        assert_eq!(supported_percentile(999, 99), Some(98));
        assert_eq!(supported_percentile(500, 99), Some(98));
        assert_eq!(supported_percentile(100, 99), Some(90));
        assert_eq!(supported_percentile(20, 99), Some(50));
        assert_eq!(supported_percentile(19, 99), None);
        assert_eq!(supported_percentile(100_000, 50), Some(50));
        for n in [20, 37, 150, 999, 5000] {
            let p = supported_percentile(n, 99).unwrap() as usize;
            assert!(n * (100 - p) >= 1000, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n * (100 - p - 1) < 1000,
                    "n={n}: p{} is supported too",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
