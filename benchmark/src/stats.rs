//! Order statistics over timing samples.

use std::time::Duration;

/// Linear-interpolated percentile (`p` in 0..=100) of unsorted samples —
/// the same estimator on every metric, so medians and tails compare.
/// Returns 0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Distance between the quartiles as a share of the median — the spread the
/// benchmark contract gates on. 0 with fewer than two samples.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mid = median(samples);
    if samples.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    (percentile(samples, 75.0) - percentile(samples, 25.0)) / mid
}

pub fn secs(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(Duration::as_secs_f64).collect()
}

/// `numerator / denominator`, 0 when the denominator is 0 (a layer that did
/// not run has no share).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_clamps() {
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 11.0);
        assert_eq!(percentile(&s, 90.0), 10.0);
        assert!((percentile(&s, 95.0) - 10.5).abs() < 1e-12);
        assert_eq!(percentile(&s, 250.0), 11.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), percentile(&[1.0, 5.0, 9.0], 50.0));
    }

    #[test]
    fn quartile_spread_is_relative_to_the_median() {
        // quartiles of 1..=5 are 2 and 4, median 3
        assert!((quartile_spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.0]), 0.0);
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
