//! Descriptive statistics.
//!
//! Compact summaries (count, mean, variance, min/median/max, quartiles) used
//! by the dataset-description outputs (Section 3 of the paper) and by
//! EXPERIMENTS.md reporting.

use crate::quantile::{QuantileError, SortedSample};

/// A five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n=1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile (type 7).
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile (type 7).
    pub q75: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample.
    ///
    /// # Errors
    ///
    /// Fails for empty samples or samples containing NaN.
    pub fn of(sample: &[f64]) -> Result<Self, QuantileError> {
        let sorted = SortedSample::new(sample)?;
        let values = sorted.values();
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Ok(Self {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: values[0],
            // lint:allow(no-unwrap) — 0.25 is a compile-time-constant valid probability
            q25: sorted.quantile(0.25).expect("valid p"),
            median: sorted.median(),
            // lint:allow(no-unwrap) — 0.75 is a compile-time-constant valid probability
            q75: sorted.quantile(0.75).expect("valid p"),
            max: values[n - 1],
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q75 - self.q25
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q25, 2.0);
        assert_eq!(s.q75, 4.0);
        assert_eq!(s.iqr(), 2.0);
        assert!((s.std_dev - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_element() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn empty_errors() {
        assert!(Summary::of(&[]).is_err());
    }

    #[test]
    fn nan_errors() {
        assert!(Summary::of(&[1.0, f64::NAN]).is_err());
    }
}
