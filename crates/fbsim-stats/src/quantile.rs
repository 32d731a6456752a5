//! Empirical quantiles (type 7 — linear interpolation between order
//! statistics).
//!
//! Type-7 is the default quantile definition in R, NumPy and Pandas, which is
//! what the paper's analysis pipeline used to compute the audience-size
//! quantiles `AS(Q, N)` of Section 4.1. Given a sorted sample
//! `x_1 <= … <= x_n` and a probability `p ∈ [0, 1]`, the type-7 quantile is
//!
//! ```text
//! h = (n - 1) * p
//! Q(p) = x_{⌊h⌋+1} + (h - ⌊h⌋) * (x_{⌊h⌋+2} - x_{⌊h⌋+1})
//! ```
//!
//! (1-based indexing as in the literature).

/// Error returned by quantile computations on invalid input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantileError {
    /// The sample was empty.
    EmptySample,
    /// The requested probability was outside `[0, 1]` or not finite.
    InvalidProbability,
    /// The sample contained a NaN, which has no defined order.
    NanInSample,
}

impl std::fmt::Display for QuantileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantileError::EmptySample => write!(f, "cannot take a quantile of an empty sample"),
            QuantileError::InvalidProbability => {
                write!(f, "quantile probability must be a finite value in [0, 1]")
            }
            QuantileError::NanInSample => write!(f, "sample contains NaN"),
        }
    }
}

impl std::error::Error for QuantileError {}

/// Computes the type-7 quantile of `sample` at probability `p`.
///
/// The sample does not need to be sorted; a sorted copy is made internally.
/// For repeated quantiles of the same data prefer [`SortedSample`].
///
/// # Errors
///
/// Returns an error if the sample is empty, contains NaN, or `p` is not a
/// finite probability in `[0, 1]`.
///
/// # Examples
///
/// ```
/// use fbsim_stats::quantile::quantile;
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
/// assert_eq!(quantile(&xs, 0.0).unwrap(), 1.0);
/// assert_eq!(quantile(&xs, 1.0).unwrap(), 4.0);
/// ```
pub fn quantile(sample: &[f64], p: f64) -> Result<f64, QuantileError> {
    SortedSample::new(sample)?.quantile(p)
}

/// Computes several type-7 quantiles of `sample` in one pass (one sort).
///
/// # Errors
///
/// Same conditions as [`quantile`]; the first invalid probability aborts the
/// computation.
pub fn quantiles(sample: &[f64], ps: &[f64]) -> Result<Vec<f64>, QuantileError> {
    let sorted = SortedSample::new(sample)?;
    ps.iter().map(|&p| sorted.quantile(p)).collect()
}

/// Computes the type-7 quantile of `sample` at probability `p` by
/// selection instead of a full sort, reordering `sample` in place.
///
/// The lower order statistic is the `⌊h⌋`-th element after
/// `select_nth_unstable_by`, and the upper one the minimum of the part
/// above it. Both orders are `total_cmp`, as in [`SortedSample::new`], so
/// the answer is bit-identical to [`quantile`] in O(n) rather than
/// O(n log n). It suits callers that read one quantile per sample, like the
/// `N_P` bootstrap's `V_AS` columns.
///
/// # Errors
///
/// Same conditions as [`quantile`], checked in the same order.
///
/// # Examples
///
/// ```
/// use fbsim_stats::quantile::{quantile, select_quantile};
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// let sorted_answer = quantile(&xs, 0.9).unwrap();
/// assert_eq!(select_quantile(&mut xs.clone(), 0.9).unwrap(), sorted_answer);
/// assert_eq!(select_quantile(&mut xs.clone(), 0.5).unwrap(), 2.5);
/// ```
pub fn select_quantile(sample: &mut [f64], p: f64) -> Result<f64, QuantileError> {
    if sample.is_empty() {
        return Err(QuantileError::EmptySample);
    }
    if sample.iter().any(|v| v.is_nan()) {
        return Err(QuantileError::NanInSample);
    }
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(QuantileError::InvalidProbability);
    }
    let (lo, frac) = type7_position(sample.len(), p);
    let (_, &mut lower, above) = sample.select_nth_unstable_by(lo, f64::total_cmp);
    Ok(match above.iter().copied().min_by(f64::total_cmp) {
        Some(upper) => lower + frac * (upper - lower),
        None => lower,
    })
}

/// The type-7 position `h = (n - 1)·p` of a sample of `n ≥ 1` values,
/// split into the lower order statistic's 0-based index and the
/// interpolation weight toward the next one.
fn type7_position(n: usize, p: f64) -> (usize, f64) {
    let h = (n - 1) as f64 * p;
    let lo = h.floor() as usize;
    (lo, h - lo as f64)
}

/// A sample sorted once, for computing many quantiles cheaply.
///
/// The uniqueness model computes four quantiles (Q = 50, 80, 90, 95) of each
/// of 25 audience-size vectors across 10,000 bootstrap resamples; sorting
/// once per vector matters there.
#[derive(Debug, Clone)]
pub struct SortedSample {
    values: Vec<f64>,
}

impl SortedSample {
    /// Sorts `sample` ascending and wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`QuantileError::EmptySample`] for an empty slice and
    /// [`QuantileError::NanInSample`] if any value is NaN.
    pub fn new(sample: &[f64]) -> Result<Self, QuantileError> {
        if sample.is_empty() {
            return Err(QuantileError::EmptySample);
        }
        if sample.iter().any(|v| v.is_nan()) {
            return Err(QuantileError::NanInSample);
        }
        let mut values = sample.to_vec();
        values.sort_by(|a, b| a.total_cmp(b));
        Ok(Self { values })
    }

    /// Wraps a vector that is already sorted ascending.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty, contains NaN, or is not
    /// actually sorted.
    pub fn from_sorted(values: Vec<f64>) -> Result<Self, QuantileError> {
        if values.is_empty() {
            return Err(QuantileError::EmptySample);
        }
        if values.iter().any(|v| v.is_nan()) {
            return Err(QuantileError::NanInSample);
        }
        if values.windows(2).any(|w| w[0] > w[1]) {
            // A caller handing us unsorted data would silently corrupt every
            // quantile; treat it as the same class of input error.
            return Err(QuantileError::NanInSample);
        }
        Ok(Self { values })
    }

    /// The sorted values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty (never true for a constructed sample).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Type-7 quantile at probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`QuantileError::InvalidProbability`] when `p` is not a finite
    /// value in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Result<f64, QuantileError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(QuantileError::InvalidProbability);
        }
        let (lo, frac) = type7_position(self.values.len(), p);
        let lower = self.values[lo];
        Ok(match self.values.get(lo + 1) {
            Some(&upper) => lower + frac * (upper - lower),
            None => lower,
        })
    }

    /// Median (the 0.5 quantile).
    pub fn median(&self) -> f64 {
        // lint:allow(no-unwrap) — 0.5 is a compile-time-constant valid probability
        self.quantile(0.5).expect("0.5 is a valid probability")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_element() {
        for p in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(quantile(&[7.0], p).unwrap(), 7.0);
        }
    }

    #[test]
    fn matches_r_type7_reference() {
        // Reference values from R: quantile(c(10,20,30,40,50), probs=...)
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 30.0);
        assert_eq!(quantile(&xs, 0.25).unwrap(), 20.0);
        assert_eq!(quantile(&xs, 0.75).unwrap(), 40.0);
        assert!((quantile(&xs, 0.9).unwrap() - 46.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.1).unwrap() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_sorted_internally() {
        let xs = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.5).unwrap(), 30.0);
    }

    #[test]
    fn interpolates_between_order_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        // h = 3 * 0.5 = 1.5 -> x[1] + 0.5*(x[2]-x[1]) = 2.5
        assert_eq!(quantile(&xs, 0.5).unwrap(), 2.5);
        // h = 3 * (1/3) = 1.0 -> exactly x[1] = 2.0
        assert!((quantile(&xs, 1.0 / 3.0).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_errors() {
        assert_eq!(quantile(&[], 0.5), Err(QuantileError::EmptySample));
    }

    #[test]
    fn nan_sample_errors() {
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), Err(QuantileError::NanInSample));
    }

    #[test]
    fn invalid_probability_errors() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -0.1), Err(QuantileError::InvalidProbability));
        assert_eq!(quantile(&xs, 1.1), Err(QuantileError::InvalidProbability));
        assert_eq!(quantile(&xs, f64::NAN), Err(QuantileError::InvalidProbability));
        assert_eq!(quantile(&xs, f64::INFINITY), Err(QuantileError::InvalidProbability));
    }

    #[test]
    fn quantiles_batch_matches_individual() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let ps = [0.0, 0.1, 0.5, 0.9, 1.0];
        let batch = quantiles(&xs, &ps).unwrap();
        for (p, q) in ps.iter().zip(&batch) {
            assert_eq!(*q, quantile(&xs, *p).unwrap());
        }
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        assert!(SortedSample::from_sorted(vec![2.0, 1.0]).is_err());
        assert!(SortedSample::from_sorted(vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn median_of_paper_scale_percentiles() {
        // Section 3 of the paper: audience-size percentiles for the 99k
        // interests are p25=113,193 p50=418,530 p75=1,719,925. Sanity-check
        // that feeding exactly those order statistics reproduces them.
        let xs = [113_193.0, 418_530.0, 1_719_925.0];
        assert_eq!(quantile(&xs, 0.25).unwrap(), (113_193.0 + 418_530.0) / 2.0);
        assert_eq!(quantile(&xs, 0.5).unwrap(), 418_530.0);
    }

    #[test]
    fn duplicate_values_are_handled() {
        let xs = [20.0, 20.0, 20.0, 20.0];
        for p in [0.0, 0.3, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&xs, p).unwrap(), 20.0);
        }
    }
}
