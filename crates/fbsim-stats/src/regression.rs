//! Ordinary least-squares simple linear regression.
//!
//! Section 4.1 of the paper fits `log(V_AS(Q)) ~ -A·log(N+1) + B` and derives
//! `N_P = 10^(B/A) - 1` from the fitted coefficients, quoting the R² of each
//! fit in Table 1. This module provides the plain `y = slope·x + intercept`
//! OLS fit with R², residuals and prediction that the uniqueness crate builds
//! on.

/// Errors from fitting a simple linear regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsError {
    /// Fewer than two points were supplied.
    TooFewPoints,
    /// `xs` and `ys` had different lengths.
    LengthMismatch,
    /// All x values were identical, so the slope is undefined.
    DegenerateX,
    /// A non-finite value (NaN or ±inf) was present in the input.
    NonFiniteInput,
}

impl std::fmt::Display for OlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OlsError::TooFewPoints => write!(f, "need at least two points to fit a line"),
            OlsError::LengthMismatch => write!(f, "x and y must have the same length"),
            OlsError::DegenerateX => write!(f, "all x values identical: slope undefined"),
            OlsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for OlsError {}

/// Result of a simple OLS fit `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination of the fit.
    ///
    /// When the response is constant (zero total sum of squares) the fit is
    /// exact and R² is reported as 1.0, matching the convention of the
    /// paper's Table 1 where degenerate-perfect fits show `R² = 1.00`.
    pub r_squared: f64,
    /// Number of points used in the fit.
    pub n: usize,
}

impl LinearFit {
    /// Fits `y ≈ slope·x + intercept` by ordinary least squares.
    ///
    /// # Errors
    ///
    /// See [`OlsError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use fbsim_stats::regression::LinearFit;
    /// let xs = [0.0, 1.0, 2.0, 3.0];
    /// let ys = [1.0, 3.0, 5.0, 7.0];
    /// let fit = LinearFit::fit(&xs, &ys).unwrap();
    /// assert!((fit.slope - 2.0).abs() < 1e-12);
    /// assert!((fit.intercept - 1.0).abs() < 1e-12);
    /// assert!((fit.r_squared - 1.0).abs() < 1e-12);
    /// ```
    pub fn fit(xs: &[f64], ys: &[f64]) -> Result<Self, OlsError> {
        if xs.len() != ys.len() {
            return Err(OlsError::LengthMismatch);
        }
        if xs.len() < 2 {
            return Err(OlsError::TooFewPoints);
        }
        if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
            return Err(OlsError::NonFiniteInput);
        }
        let n = xs.len() as f64;
        let mean_x = xs.iter().sum::<f64>() / n;
        let mean_y = ys.iter().sum::<f64>() / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        let mut syy = 0.0;
        for (&x, &y) in xs.iter().zip(ys) {
            let dx = x - mean_x;
            let dy = y - mean_y;
            sxx += dx * dx;
            sxy += dx * dy;
            syy += dy * dy;
        }
        // lint:allow(float-eq) — exact guard: all-identical x values give exactly zero variance
        if sxx == 0.0 {
            return Err(OlsError::DegenerateX);
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        // lint:allow(float-eq) — exact guard: constant y gives exactly zero total sum of squares
        let r_squared = if syy == 0.0 {
            1.0
        } else {
            // R² = 1 - SS_res / SS_tot; for simple OLS this equals
            // sxy² / (sxx·syy), which is cheaper and numerically stable.
            (sxy * sxy / (sxx * syy)).clamp(0.0, 1.0)
        };
        Ok(Self { slope, intercept, r_squared, n: xs.len() })
    }

    /// Predicted response at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Residuals `y_i - ŷ_i` for the given points.
    pub fn residuals(&self, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        xs.iter().zip(ys).map(|(&x, &y)| y - self.predict(x)).collect()
    }

    /// The x at which the fitted line crosses `y = target`.
    ///
    /// Returns `None` when the line is flat (slope 0) and never crosses, or
    /// when the crossing is not finite. The uniqueness model uses this with
    /// `target = 0` in log10-space: the interest count where the fitted
    /// audience size reaches 1 user.
    pub fn x_at(&self, target: f64) -> Option<f64> {
        // lint:allow(float-eq) — exact guard: a flat fit has no finite crossing point
        if self.slope == 0.0 {
            return None;
        }
        let x = (target - self.intercept) / self.slope;
        x.is_finite().then_some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_line() {
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -3.5 * x + 9.25).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!((fit.slope + 3.5).abs() < 1e-12);
        assert!((fit.intercept - 9.25).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.n, 10);
    }

    #[test]
    fn noisy_line_r_squared_below_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.98 && fit.r_squared < 1.0);
        assert!((fit.slope - 1.0).abs() < 0.1);
    }

    #[test]
    fn constant_response_is_perfect_fit() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [5.0, 5.0, 5.0];
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 5.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn degenerate_x_errors() {
        assert_eq!(LinearFit::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]), Err(OlsError::DegenerateX));
    }

    #[test]
    fn length_mismatch_errors() {
        assert_eq!(LinearFit::fit(&[1.0], &[1.0, 2.0]), Err(OlsError::LengthMismatch));
    }

    #[test]
    fn too_few_points_errors() {
        assert_eq!(LinearFit::fit(&[1.0], &[1.0]), Err(OlsError::TooFewPoints));
        assert_eq!(LinearFit::fit(&[], &[]), Err(OlsError::TooFewPoints));
    }

    #[test]
    fn non_finite_errors() {
        assert_eq!(LinearFit::fit(&[1.0, f64::NAN], &[1.0, 2.0]), Err(OlsError::NonFiniteInput));
        assert_eq!(
            LinearFit::fit(&[1.0, 2.0], &[1.0, f64::INFINITY]),
            Err(OlsError::NonFiniteInput)
        );
    }

    #[test]
    fn x_at_crossing() {
        // y = -2x + 8 crosses y=0 at x=4.
        let xs = [0.0, 1.0, 2.0];
        let ys = [8.0, 6.0, 4.0];
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        let x0 = fit.x_at(0.0).unwrap();
        assert!((x0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn x_at_flat_line_is_none() {
        let fit = LinearFit::fit(&[0.0, 1.0], &[3.0, 3.0]).unwrap();
        assert_eq!(fit.x_at(0.0), None);
    }

    #[test]
    fn residuals_sum_to_zero() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.3, 1.1, 1.8, 3.2, 3.9];
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        let sum: f64 = fit.residuals(&xs, &ys).iter().sum();
        assert!(sum.abs() < 1e-10);
    }

    #[test]
    fn paper_style_loglog_fit() {
        // Construct V_AS(50)-like data obeying log10(AS) = B - A log10(N+1)
        // with A=7.09, B=7.76 (the coefficients implied by the paper's
        // N(R)_0.5 = 11.41 and the Fig. 2 median interest audience), and
        // recover N_P = 10^(B/A) - 1.
        let a = 7.09;
        let b = 7.76;
        let xs: Vec<f64> = (1..=25).map(|n| ((n + 1) as f64).log10()).collect();
        let ys: Vec<f64> = xs.iter().map(|x| b - a * x).collect();
        let fit = LinearFit::fit(&xs, &ys).unwrap();
        let np = 10f64.powf(fit.intercept / -fit.slope) - 1.0;
        let expected = 10f64.powf(b / a) - 1.0;
        assert!((np - expected).abs() < 1e-9);
        assert!((expected - 11.4).abs() < 0.5);
    }
}
