//! The logarithmic fit and the `N_P` cutpoint (Section 4.1).
//!
//! `V_AS(Q)` has an asymptote at the reporting floor (20 in the 2017
//! regime), so the paper fits
//!
//! ```text
//! log10(V_AS(Q)) ~ −A·log10(N + 1) + B
//! ```
//!
//! including the **first** floor-valued point and truncating the rest —
//! conservative, robust to the floor, and applicable unchanged under the
//! current 1,000-user floor. `N_P` is where the fitted line crosses an
//! audience of one user (`log10 = 0`):
//!
//! ```text
//! N_P = 10^(B/A) − 1
//! ```

use fbsim_stats::regression::LinearFit;

/// Outcome of fitting one `V_AS(Q)` vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpFit {
    /// The estimated `N_P` (interests needed for uniqueness with
    /// probability Q/100).
    pub np: f64,
    /// Fitted decay coefficient `A` (positive).
    pub a: f64,
    /// Fitted intercept `B`.
    pub b: f64,
    /// R² of the censored fit.
    pub r_squared: f64,
    /// Number of points used after censoring.
    pub points_used: usize,
}

/// Errors from the fit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer than two usable points after censoring.
    TooFewPoints,
    /// The fitted slope was non-negative — the audience did not decay, so
    /// no uniqueness cutpoint exists.
    NonDecreasing,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints => write!(f, "need at least two uncensored points to fit"),
            FitError::NonDecreasing => {
                write!(f, "audience sizes do not decrease; N_P undefined")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// Applies the paper's censoring rule: keep points while above the floor,
/// keep the **first** point at (or below) the floor, drop everything after.
pub fn censor_at_floor(v_as: &[f64], floor: f64) -> &[f64] {
    match v_as.iter().position(|&v| v <= floor) {
        Some(first_floored) => &v_as[..=first_floored],
        None => v_as,
    }
}

/// Fits the censored `V_AS(Q)` vector and derives `N_P`.
///
/// `v_as[k]` is the audience size for `k+1` interests; `floor` is the
/// reporting floor in force when the data was collected.
///
/// # Errors
///
/// See [`FitError`].
pub fn fit_np(v_as: &[f64], floor: f64) -> Result<NpFit, FitError> {
    let censored = censor_at_floor(v_as, floor);
    if censored.len() < 2 {
        return Err(FitError::TooFewPoints);
    }
    let xs: Vec<f64> = (0..censored.len())
        .map(|k| ((k + 2) as f64).log10()) // N = k+1, regressor log10(N+1)
        .collect();
    let ys: Vec<f64> = censored.iter().map(|&v| v.max(1.0).log10()).collect();
    let fit = LinearFit::fit(&xs, &ys).map_err(|_| FitError::TooFewPoints)?;
    if fit.slope >= 0.0 {
        return Err(FitError::NonDecreasing);
    }
    let a = -fit.slope;
    let b = fit.intercept;
    Ok(NpFit {
        np: 10f64.powf(b / a) - 1.0,
        a,
        b,
        r_squared: fit.r_squared,
        points_used: censored.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a synthetic V_AS obeying the model exactly, with a floor.
    fn synthetic(a: f64, b: f64, len: usize, floor: f64) -> Vec<f64> {
        (1..=len).map(|n| 10f64.powf(b - a * ((n + 1) as f64).log10()).max(floor)).collect()
    }

    #[test]
    fn recovers_np_from_exact_model() {
        // Paper-like coefficients: N(R)_0.5 ≈ 11.4.
        let a = 7.09;
        let b = 7.76;
        let v = synthetic(a, b, 25, 20.0);
        let fit = fit_np(&v, 20.0).unwrap();
        let expected = 10f64.powf(b / a) - 1.0;
        // Keeping the first floored point biases the estimate slightly
        // upward — the conservative direction the paper describes.
        assert!(fit.np >= expected - 1e-9, "np {} vs {expected}", fit.np);
        assert!((fit.np - expected).abs() < 0.8, "np {} vs {expected}", fit.np);
        assert!(fit.r_squared > 0.99);
        assert!((fit.a - a).abs() < 0.3);
    }

    #[test]
    fn censoring_keeps_first_floored_point() {
        let v = vec![1000.0, 100.0, 20.0, 20.0, 20.0];
        let censored = censor_at_floor(&v, 20.0);
        assert_eq!(censored, &[1000.0, 100.0, 20.0]);
    }

    #[test]
    fn censoring_no_floor_keeps_all() {
        let v = vec![1000.0, 500.0, 100.0];
        assert_eq!(censor_at_floor(&v, 20.0).len(), 3);
    }

    #[test]
    fn floor_censoring_changes_estimate_conservatively() {
        // With a long run of floor-20 points included, the fit would flatten
        // and overestimate N_P; censoring keeps it close to truth.
        let a = 9.0;
        let b = 7.0;
        let truth = 10f64.powf(b / a) - 1.0;
        let v = synthetic(a, b, 25, 20.0);
        let censored_fit = fit_np(&v, 20.0).unwrap();
        // Uncensored fit for comparison (pretend floor 0 so nothing is cut).
        let uncensored_fit = fit_np(&v, 0.0).unwrap();
        assert!((censored_fit.np - truth).abs() < (uncensored_fit.np - truth).abs());
    }

    #[test]
    fn robust_to_higher_floor() {
        // §4.1: "our method can still be applied for the current higher
        // limit of 1,000 users".
        let a = 7.09;
        let b = 7.76;
        let expected = 10f64.powf(b / a) - 1.0;
        let v = synthetic(a, b, 25, 1_000.0);
        let fit = fit_np(&v, 1_000.0).unwrap();
        // The higher floor censors earlier, so the conservative bias grows,
        // but the estimate stays in the right ballpark.
        assert!(fit.np >= expected - 1e-9, "np {} vs {expected}", fit.np);
        assert!((fit.np - expected).abs() < 2.0, "np {} vs {expected}", fit.np);
    }

    #[test]
    fn too_few_points_errors() {
        assert_eq!(fit_np(&[100.0], 20.0), Err(FitError::TooFewPoints));
        assert_eq!(fit_np(&[], 20.0), Err(FitError::TooFewPoints));
        // Immediately floored: only one usable point.
        assert_eq!(fit_np(&[20.0, 20.0, 20.0], 20.0), Err(FitError::TooFewPoints));
    }

    #[test]
    fn non_decreasing_errors() {
        assert_eq!(fit_np(&[100.0, 200.0, 400.0], 20.0), Err(FitError::NonDecreasing));
    }

    #[test]
    fn np_increases_with_slower_decay() {
        let fast = fit_np(&synthetic(10.0, 7.0, 25, 20.0), 20.0).unwrap();
        let slow = fit_np(&synthetic(6.0, 7.0, 25, 20.0), 20.0).unwrap();
        assert!(slow.np > fast.np);
    }
}
