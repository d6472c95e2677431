//! Summary statistics for the experiment harness.
//!
//! Every figure in the paper's evaluation plots a mean over repeated
//! randomized trials. [`Summary`] accumulates samples in one pass (Welford)
//! and reports mean, sample standard deviation, and a normal-approximation
//! 95 % confidence half-width, which the `coding_table` binary prints
//! next to each measured decoding overhead.

/// One-pass accumulator for mean and variance (Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; 0 when empty (callers print counts alongside).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; 0 with fewer than two observations.
    #[must_use]
    pub(crate) fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub(crate) fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub(crate) fn stderr(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.stddev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95 % confidence interval.
    #[must_use]
    pub fn ci95(&self) -> f64 {
        1.96 * self.stderr()
    }

    /// Smallest observation (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Self::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant() {
        let s: Summary = std::iter::repeat_n(5.0, 10).collect();
        assert_eq!(s.count(), 10);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!(s.variance() < 1e-12);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn summary_known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: Summary = (0..10).map(|i| i as f64).collect();
        let large: Summary = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(large.ci95() < small.ci95());
    }
}
