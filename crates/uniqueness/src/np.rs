//! `N_P` estimation with bootstrap confidence intervals — Table 1.

use fbsim_stats::bootstrap::{bootstrap_ci, BootstrapCi};

use crate::fit::fit_np;
use crate::selection::SelectionStrategy;
use crate::vectors::AudienceVectors;

/// One `N_P` estimate (one cell group of Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct NpEstimate {
    /// Selection strategy.
    pub strategy: SelectionStrategy,
    /// Uniqueness probability P (e.g. 0.9).
    pub p: f64,
    /// Point estimate of `N_P`.
    pub value: f64,
    /// 95% bootstrap confidence interval, when bootstrap was run.
    pub ci95: Option<BootstrapCi>,
    /// R² of the point-estimate fit.
    pub r_squared: f64,
}

/// Errors estimating `N_P`.
#[derive(Debug, Clone, PartialEq)]
pub enum NpError {
    /// The point fit failed.
    Fit(crate::fit::FitError),
    /// The bootstrap failed outright (every resample's fit failed).
    Bootstrap(String),
}

impl std::fmt::Display for NpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NpError::Fit(e) => write!(f, "N_P fit failed: {e}"),
            NpError::Bootstrap(e) => write!(f, "N_P bootstrap failed: {e}"),
        }
    }
}

impl std::error::Error for NpError {}

/// Estimates `N_P` for one probability from collected audience vectors.
///
/// `replicates = 0` skips the bootstrap (point estimate only); the paper
/// uses 10,000 replicates for its 95% CIs.
///
/// # Errors
///
/// See [`NpError`].
pub fn estimate_np(
    vectors: &AudienceVectors,
    p: f64,
    replicates: usize,
    seed: u64,
) -> Result<NpEstimate, NpError> {
    assert!(p > 0.0 && p < 1.0, "P must be a probability in (0, 1)");
    let q = p * 100.0;
    let floor = vectors.floor as f64;
    let point = {
        let _span = uof_telemetry::span!("uniqueness.fit", users = vectors.len(), p = p);
        fit_np(&vectors.v_as_censored(q, None, floor), floor).map_err(NpError::Fit)?
    };
    let ci95 = if replicates > 0 {
        let _span = uof_telemetry::span!(
            "uniqueness.bootstrap",
            users = vectors.len(),
            replicates = replicates,
            p = p,
        );
        let (ci, _) = bootstrap_ci(vectors.len(), replicates, 0.95, seed, |idx| {
            fit_np(&vectors.v_as_censored(q, Some(idx), floor), floor).ok().map(|f| f.np)
        })
        .map_err(|e| NpError::Bootstrap(e.to_string()))?;
        Some(ci)
    } else {
        None
    };
    Ok(NpEstimate {
        strategy: vectors.strategy,
        p,
        value: point.np,
        ci95,
        r_squared: point.r_squared,
    })
}

/// The probabilities of Table 1.
pub const TABLE1_PROBABILITIES: [f64; 4] = [0.5, 0.8, 0.9, 0.95];

/// Table 1: `N(LP)_P` and `N(R)_P` for P ∈ {0.5, 0.8, 0.9, 0.95}.
#[derive(Debug, Clone)]
pub struct NpTable {
    /// Least-popular row.
    pub lp: Vec<NpEstimate>,
    /// Random row.
    pub random: Vec<NpEstimate>,
}

impl NpTable {
    /// Builds the table from collected LP and R audience vectors.
    ///
    /// # Errors
    ///
    /// Fails if any cell's fit or bootstrap fails.
    pub fn build(
        lp_vectors: &AudienceVectors,
        random_vectors: &AudienceVectors,
        replicates: usize,
        seed: u64,
    ) -> Result<Self, NpError> {
        let cells = |vectors: &AudienceVectors| -> Result<Vec<NpEstimate>, NpError> {
            TABLE1_PROBABILITIES
                .iter()
                .map(|&p| estimate_np(vectors, p, replicates, seed ^ (p * 1e4) as u64))
                .collect()
        };
        Ok(Self { lp: cells(lp_vectors)?, random: cells(random_vectors)? })
    }

    /// Renders the table in the paper's row layout.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "N_P        | P=0.5          | P=0.8          | P=0.9          | P=0.95\n",
        );
        for (label, row) in [("N(LP)_P", &self.lp), ("N(R)_P", &self.random)] {
            out.push_str(&format!("{label:<10} |"));
            for cell in row {
                let ci =
                    cell.ci95.map(|c| format!(" ({:.2},{:.2})", c.lo, c.hi)).unwrap_or_default();
                out.push_str(&format!(" {:.2}{ci} R2={:.2} |", cell.value, cell.r_squared));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::AudienceVectors;

    /// Synthetic rows following the exact paper model plus noise.
    fn synthetic_vectors(a: f64, b: f64, users: usize) -> AudienceVectors {
        let rows: Vec<Vec<f64>> = (0..users)
            .map(|u| {
                // Per-user multiplicative jitter, deterministic.
                let jitter = 1.0 + 0.2 * ((u as f64 * 2.399).sin());
                (1..=25)
                    .map(|n| (10f64.powf(b - a * ((n + 1) as f64).log10()) * jitter).max(20.0))
                    .collect()
            })
            .collect();
        AudienceVectors::from_rows(SelectionStrategy::Random, 20, rows)
    }

    #[test]
    fn point_estimate_matches_model() {
        let a = 7.09;
        let b = 7.76;
        let v = synthetic_vectors(a, b, 100);
        let est = estimate_np(&v, 0.5, 0, 1).unwrap();
        let expected = 10f64.powf(b / a) - 1.0;
        assert!((est.value - expected).abs() < 1.0, "{} vs {expected}", est.value);
        assert!(est.ci95.is_none());
        assert!(est.r_squared > 0.99);
    }

    #[test]
    fn bootstrap_ci_brackets_point() {
        let v = synthetic_vectors(7.0, 7.7, 80);
        let est = estimate_np(&v, 0.9, 300, 7).unwrap();
        let ci = est.ci95.unwrap();
        assert!(ci.contains(est.value), "{ci:?} should contain {}", est.value);
        assert!(ci.width() < est.value, "CI should be informative");
    }

    #[test]
    fn deterministic_for_seed() {
        let v = synthetic_vectors(7.0, 7.7, 50);
        let a = estimate_np(&v, 0.8, 200, 3).unwrap();
        let b = estimate_np(&v, 0.8, 200, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn higher_p_needs_more_interests() {
        let v = synthetic_vectors(7.0, 7.7, 100);
        let n50 = estimate_np(&v, 0.5, 0, 1).unwrap().value;
        let n95 = estimate_np(&v, 0.95, 0, 1).unwrap().value;
        assert!(n95 >= n50, "N_0.95 {n95} must be ≥ N_0.5 {n50}");
    }

    #[test]
    fn table_builds_and_renders() {
        let lp = AudienceVectors::from_rows(
            SelectionStrategy::LeastPopular,
            20,
            synthetic_vectors(12.0, 6.0, 60).rows().to_vec(),
        );
        let random = synthetic_vectors(7.0, 7.7, 60);
        let table = NpTable::build(&lp, &random, 100, 5).unwrap();
        assert_eq!(table.lp.len(), 4);
        assert_eq!(table.random.len(), 4);
        // LP values are far below random at every P.
        for (l, r) in table.lp.iter().zip(&table.random) {
            assert!(l.value < r.value);
        }
        let text = table.render();
        assert!(text.contains("N(LP)_P"));
        assert!(text.contains("N(R)_P"));
    }

    #[test]
    fn test_scale_table_is_pinned_bit_for_bit() {
        use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
        use fbsim_population::{MaterializedUser, World, WorldConfig};
        // (value, lo, hi) bits per cell, LP row then R row, recorded from
        // the full-sort `V_AS` path; the censored selection path must
        // reproduce every one.
        const PINNED: [(u64, u64, u64); 8] = [
            (0x4011_0c74_02d1_32d3, 0x4010_b075_7bdc_f524, 0x4016_2a81_54ba_135f),
            (0x401b_82fe_82a0_82fd, 0x4016_0184_c0f9_5609, 0x401d_db58_0e0f_be5a),
            (0x4020_fc4a_6df5_50cd, 0x401b_3d6e_4385_64d2, 0x403e_e1b2_2575_db66),
            (0x4030_0c3e_933c_67c2, 0x401d_4796_35dd_3f7d, 0x406c_32c6_411c_b16f),
            (0x4031_10aa_5dc3_57fa, 0x402d_c572_4aab_2960, 0x4034_e369_88fb_342e),
            (0x403b_2075_e746_efaf, 0x4036_c32c_a0af_b473, 0x4042_7be2_724d_47d5),
            (0x4042_32c6_68a5_ca70, 0x403c_5c34_63bb_7091, 0x4045_a05e_1c6d_f17d),
            (0x4045_3777_d42b_e714, 0x4041_703b_e24b_f43d, 0x4050_900c_dc59_c46d),
        ];
        let world = World::generate(WorldConfig::test_scale(83)).unwrap();
        let api = AdsManagerApi::new(&world, ReportingEra::Early2017);
        let cohort = world.sample_cohort(60, 5);
        let refs: Vec<&MaterializedUser> = cohort.iter().collect();
        let lp = AudienceVectors::collect(&api, &refs, SelectionStrategy::LeastPopular, 13);
        let random = AudienceVectors::collect(&api, &refs, SelectionStrategy::Random, 13);
        let table = NpTable::build(&lp, &random, 200, 17).unwrap();
        for (cell, &(value, lo, hi)) in table.lp.iter().chain(&table.random).zip(&PINNED) {
            let ci = cell.ci95.unwrap();
            assert_eq!(
                (cell.value.to_bits(), ci.lo.to_bits(), ci.hi.to_bits()),
                (value, lo, hi),
                "{:?} P={}",
                cell.strategy,
                cell.p
            );
            assert_eq!(ci.replicates, 200);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn p_must_be_probability() {
        let v = synthetic_vectors(7.0, 7.7, 10);
        let _ = estimate_np(&v, 50.0, 0, 1);
    }
}
