//! World-model configuration.
//!
//! The defaults reproduce the paper's January-2017 measurement universe:
//! 1.5B users (top-50 countries, Appendix A), ~99k interests whose
//! single-interest audiences match Fig. 2, and interest-counts per user
//! matching Fig. 1. The latent-taste constants (`n_topics`,
//! `topics_per_user`, `base_affinity`, …) were tuned with the
//! [`crate::calibration`] harness so the conjunction-audience decay matches
//! the paper's fitted `N_P` values (Table 1); see EXPERIMENTS.md for the
//! measured-vs-paper comparison.

/// Configuration of the synthetic world.
///
/// Construct with [`WorldConfig::paper_scale`] (defaults matching the paper)
/// or [`WorldConfig::test_scale`] (small and fast for unit tests), then
/// override fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldConfig {
    /// Total simulated monthly-active-user population (the paper's
    /// uniqueness universe is 1.5B across the top-50 countries).
    pub population: u64,
    /// Number of interests in the catalog (the paper observed 99k unique
    /// interests across its cohort).
    pub n_interests: u32,
    /// Number of latent topics.
    pub n_topics: u32,
    /// Minimum number of taste topics per user.
    pub topics_per_user_min: u32,
    /// Maximum number of taste topics per user (inclusive).
    pub topics_per_user_max: u32,
    /// Baseline affinity for topics outside a user's taste, relative to a
    /// total taste weight of 1. Smaller values mean stronger interest
    /// correlation (audiences shrink more slowly with extra interests from
    /// the same person).
    pub base_affinity: f64,
    /// Skew of topic sizes (Zipf exponent over topic ranks).
    pub topic_zipf_s: f64,
    /// Median interests per **cohort** user (Fig. 1: 426). The FDVT cohort
    /// is self-selected power users; the world-population median is derived
    /// separately (see [`WorldConfig::world_interests_median`]) so that the
    /// total interest mass stays consistent with the Fig.-2 audience sizes.
    pub interests_per_user_median: f64,
    /// log10 standard deviation of interests per user.
    pub interests_per_user_sigma: f64,
    /// Clamp range for interests per user (Fig. 1: 1 – 8,950).
    pub interests_per_user_min: f64,
    /// Upper clamp for interests per user.
    pub interests_per_user_max: f64,
    /// 25th percentile of single-interest audience size (Fig. 2: 113,193).
    pub audience_q25: f64,
    /// 75th percentile of single-interest audience size (Fig. 2: 1,719,925).
    pub audience_q75: f64,
    /// Number of latent panel users used by the Monte-Carlo reach engine.
    /// More panel users = less estimator noise, linearly more CPU.
    pub panel_size: u32,
    /// Rounds of exact iterative-proportional-fitting after the linear
    /// initialisation when calibrating interest scores to their target
    /// audiences.
    pub calibration_rounds: u32,
    /// Master seed. Everything in the world derives from it.
    pub seed: u64,
}

/// Natural-log variance factor converting a log10-parameterised log-normal's
/// median into its mean: `mean = median · exp((σ·ln10)² / 2)`.
fn lognormal_mean_factor(sigma_log10: f64) -> f64 {
    let s = sigma_log10 * std::f64::consts::LN_10;
    (s * s / 2.0).exp()
}

impl WorldConfig {
    /// Defaults matching the paper's measurement universe.
    ///
    /// The taste constants are the calibrated values (see module docs).
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            population: 1_500_000_000,
            n_interests: 99_000,
            n_topics: 150,
            topics_per_user_min: 3,
            topics_per_user_max: 6,
            base_affinity: 0.15,
            topic_zipf_s: 0.8,
            interests_per_user_median: 426.0,
            interests_per_user_sigma: 0.52,
            interests_per_user_min: 1.0,
            interests_per_user_max: 8_950.0,
            audience_q25: 113_193.0,
            audience_q75: 1_719_925.0,
            panel_size: 200_000,
            calibration_rounds: 8,
            seed,
        }
    }

    /// A small, fast world for unit tests: everything scaled down ~100×
    /// while keeping the same qualitative structure.
    pub fn test_scale(seed: u64) -> Self {
        Self {
            population: 10_000_000,
            n_interests: 2_000,
            n_topics: 40,
            topics_per_user_min: 3,
            topics_per_user_max: 6,
            base_affinity: 0.15,
            topic_zipf_s: 0.8,
            interests_per_user_median: 120.0,
            interests_per_user_sigma: 0.4,
            interests_per_user_min: 1.0,
            interests_per_user_max: 1_500.0,
            audience_q25: 50_000.0,
            audience_q75: 500_000.0,
            panel_size: 20_000,
            calibration_rounds: 8,
            seed,
        }
    }

    /// Median interests per **world** user, derived so the ecosystem is
    /// internally consistent.
    ///
    /// In a closed model the total audience mass equals the total interest
    /// mass: `Σ_i AS_i = population · E[interests per user]`. The Fig.-2
    /// audience distribution therefore pins down the world mean; the world
    /// median follows by dividing out the log-normal mean factor. The FDVT
    /// cohort samples its (heavier) interest counts from the Fig.-1
    /// distribution instead — those users are rare-but-legal draws from the
    /// same world model, mirroring the paper's self-selected power users.
    pub fn world_interests_median(&self) -> f64 {
        let mu = (self.audience_q25.log10() + self.audience_q75.log10()) / 2.0;
        const Z75: f64 = 0.674_489_750_196_081_7;
        let sigma_aud = (self.audience_q75.log10() - self.audience_q25.log10()) / (2.0 * Z75);
        let mean_audience = 10f64.powf(mu) * lognormal_mean_factor(sigma_aud);
        let mean_n = self.n_interests as f64 * mean_audience / self.population as f64;
        let median = mean_n / lognormal_mean_factor(self.interests_per_user_sigma);
        median.max(self.interests_per_user_min)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.population == 0 {
            return Err("population must be positive".into());
        }
        if self.n_interests == 0 {
            return Err("catalog must contain at least one interest".into());
        }
        if self.n_topics == 0 {
            return Err("need at least one topic".into());
        }
        if self.topics_per_user_min == 0 || self.topics_per_user_min > self.topics_per_user_max {
            return Err("topics_per_user range must be non-empty and start at >= 1".into());
        }
        if self.topics_per_user_max > self.n_topics {
            return Err("topics_per_user_max cannot exceed n_topics".into());
        }
        if !(self.base_affinity > 0.0 && self.base_affinity.is_finite()) {
            return Err("base_affinity must be positive and finite".into());
        }
        if self.interests_per_user_min < 1.0
            || self.interests_per_user_max < self.interests_per_user_min
        {
            return Err("interests_per_user clamp range invalid".into());
        }
        if !(self.audience_q25 > 0.0 && self.audience_q75 > self.audience_q25) {
            return Err("audience quartiles must satisfy 0 < q25 < q75".into());
        }
        if self.audience_q75 >= self.population as f64 {
            return Err("audience q75 must be below the total population".into());
        }
        if self.panel_size == 0 {
            return Err("panel must contain at least one user".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_valid() {
        assert_eq!(WorldConfig::paper_scale(1).validate(), Ok(()));
    }

    #[test]
    fn test_scale_is_valid() {
        assert_eq!(WorldConfig::test_scale(1).validate(), Ok(()));
    }

    #[test]
    fn paper_scale_matches_paper_constants() {
        let c = WorldConfig::paper_scale(0);
        assert_eq!(c.population, 1_500_000_000);
        assert_eq!(c.n_interests, 99_000);
        assert_eq!(c.interests_per_user_median, 426.0);
        assert_eq!(c.audience_q25, 113_193.0);
        assert_eq!(c.audience_q75, 1_719_925.0);
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = WorldConfig::test_scale(0);
        let cases: Vec<(WorldConfig, &str)> = vec![
            (WorldConfig { population: 0, ..base.clone() }, "population"),
            (WorldConfig { n_interests: 0, ..base.clone() }, "catalog"),
            (WorldConfig { n_topics: 0, ..base.clone() }, "topic"),
            (WorldConfig { topics_per_user_min: 0, ..base.clone() }, "topics_per_user"),
            (
                WorldConfig { topics_per_user_min: 7, topics_per_user_max: 6, ..base.clone() },
                "topics_per_user",
            ),
            (WorldConfig { topics_per_user_max: 10_000, ..base.clone() }, "n_topics"),
            (WorldConfig { base_affinity: 0.0, ..base.clone() }, "base_affinity"),
            (WorldConfig { base_affinity: f64::NAN, ..base.clone() }, "base_affinity"),
            (WorldConfig { interests_per_user_min: 0.0, ..base.clone() }, "clamp"),
            (WorldConfig { audience_q25: 0.0, ..base.clone() }, "quartiles"),
            (WorldConfig { audience_q75: 1e12, ..base.clone() }, "below the total population"),
            (WorldConfig { panel_size: 0, ..base.clone() }, "panel"),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }

    #[test]
    fn world_median_is_below_cohort_median() {
        // The FDVT cohort is heavier than the average user in both the
        // paper (426 vs unknown world median) and the model.
        for cfg in [WorldConfig::paper_scale(0), WorldConfig::test_scale(0)] {
            let world = cfg.world_interests_median();
            assert!(world >= cfg.interests_per_user_min);
            assert!(
                world < cfg.interests_per_user_median,
                "world median {world} should be below cohort median {}",
                cfg.interests_per_user_median
            );
        }
    }

    #[test]
    fn paper_scale_world_median_near_hundred() {
        // Σ AS_i / population with Fig.-2 audiences gives ≈223 mean interests
        // per world user, i.e. a median near 109 at σ=0.52.
        let m = WorldConfig::paper_scale(0).world_interests_median();
        assert!((90.0..130.0).contains(&m), "world median {m}");
    }
}
