//! Order statistics for op timings: the median and the tail rule.

/// Median of `values` (mean of the middle two for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The tail of a timing sample: the highest percentile that still has at
/// least ten samples beyond it, and which percentile that is. Up to 20
/// samples nothing above the median qualifies, so the median is returned
/// as `p50`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 20 {
        return median(values).map(|m| (m, 50.0));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // n = 19 and n = 20: nothing above the median has ten beyond it.
        assert_eq!(tail(&ramp(19)), Some((10.0, 50.0)));
        assert_eq!(tail(&ramp(20)), Some((10.5, 50.0)));
        // n = 40: the 30th value, p75, has exactly ten beyond it.
        assert_eq!(tail(&ramp(40)), Some((30.0, 75.0)));
        // n = 250: the 240th value, p96.
        assert_eq!(tail(&ramp(250)), Some((240.0, 96.0)));
        assert_eq!(tail(&[]), None);
    }
}
