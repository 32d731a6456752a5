//! The assembled world: catalog + panel, calibrated and ready for queries.

use crate::calibration::{calibrate_scores, CalibrationReport};
use crate::catalog::InterestCatalog;
use crate::cohort::{MaterializedUser, Materializer};
use crate::config::WorldConfig;
use crate::panel::Panel;
use crate::reach::ReachEngine;

/// A fully constructed synthetic world.
///
/// Construction is deterministic in the config (including its seed):
/// generate catalog → generate panel → calibrate scores to the Fig.-2
/// audience targets. A [`World`] is the single object the ad platform, the
/// FDVT simulator and the uniqueness analysis all share.
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    catalog: InterestCatalog,
    panel: Panel,
    calibration: CalibrationReport,
}

/// Error constructing a world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldError(pub String);

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid world configuration: {}", self.0)
    }
}

impl std::error::Error for WorldError {}

impl World {
    /// Generates and calibrates a world.
    ///
    /// # Errors
    ///
    /// Returns [`WorldError`] when the configuration fails validation.
    pub fn generate(config: WorldConfig) -> Result<Self, WorldError> {
        config.validate().map_err(WorldError)?;
        let mut catalog = InterestCatalog::generate(&config);
        let mut panel = Panel::generate(&config, &catalog);
        let calibration = calibrate_scores(&mut catalog, &mut panel, config.calibration_rounds);
        Ok(Self { config, catalog, panel, calibration })
    }

    /// The configuration the world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The calibrated interest catalog.
    pub fn catalog(&self) -> &InterestCatalog {
        &self.catalog
    }

    /// The latent Monte-Carlo panel.
    pub fn panel(&self) -> &Panel {
        &self.panel
    }

    /// How well calibration matched the Fig.-2 targets.
    pub fn calibration(&self) -> &CalibrationReport {
        &self.calibration
    }

    /// The world's mutation generation, bumped by every change to the
    /// carriage model ([`World::scale_budget_factor`], recalibration).
    ///
    /// Reach answers are a pure function of `(query, generation)`: any
    /// cache keyed on a query is valid exactly as long as the generation it
    /// was filled under is still current. The `reach-cache` crate uses this
    /// as its invalidation epoch.
    pub fn generation(&self) -> u64 {
        self.panel.generation()
    }

    /// Rescales the panel's global assignment-budget factor by `ratio` and
    /// refreshes the carriage model — the world-level mutation hook (the
    /// real-platform analog: the MAU base shifting under a live reach
    /// service). Bumps [`World::generation`], so epoch-keyed caches drop
    /// their stale entries lazily.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is not a positive finite number (see
    /// [`Panel::scale_budget_factor`]).
    pub fn scale_budget_factor(&mut self, ratio: f64) {
        self.panel.scale_budget_factor(ratio, &self.catalog);
    }

    /// A reach engine over this world.
    pub fn reach_engine(&self) -> ReachEngine<'_> {
        ReachEngine::new(&self.catalog, &self.panel)
    }

    /// A materialiser for drawing concrete users from this world.
    pub fn materializer(&self) -> Materializer<'_> {
        Materializer::new(&self.config, &self.catalog)
    }

    /// Convenience: materialise a cohort of `size` users with `seed`.
    pub fn sample_cohort(&self, size: usize, seed: u64) -> Vec<MaterializedUser> {
        self.materializer().sample_cohort(size, seed)
    }

    /// Total simulated population.
    pub fn population(&self) -> u64 {
        self.config.population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_test_world() {
        let world = World::generate(WorldConfig::test_scale(1)).unwrap();
        assert_eq!(world.population(), 10_000_000);
        assert_eq!(world.catalog().len(), 2_000);
        assert!(world.calibration().median_rel_error < 0.15);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = WorldConfig::test_scale(1);
        cfg.panel_size = 0;
        let err = World::generate(cfg).unwrap_err();
        assert!(err.to_string().contains("panel"));
    }

    #[test]
    fn engine_and_materializer_share_calibrated_scores() {
        let world = World::generate(WorldConfig::test_scale(2)).unwrap();
        let engine = world.reach_engine();
        // Single-interest reach should be close to the target audience after
        // calibration, for a few spot checks across the range.
        for id in [0u32, 100, 1000, 1999] {
            let interest = world.catalog().interest(crate::catalog::InterestId(id));
            let reach = engine.single_reach(interest.id);
            let rel = (reach - interest.target_audience).abs() / interest.target_audience;
            assert!(
                rel < 0.5,
                "interest {id}: reach {reach} vs target {}",
                interest.target_audience
            );
        }
    }

    #[test]
    fn generation_bumps_on_mutation_and_changes_reach() {
        let mut world = World::generate(WorldConfig::test_scale(4)).unwrap();
        let gen0 = world.generation();
        let before = world.reach_engine().single_reach(crate::catalog::InterestId(7));
        world.scale_budget_factor(1.25);
        assert!(world.generation() > gen0, "mutation must advance the generation");
        let after = world.reach_engine().single_reach(crate::catalog::InterestId(7));
        assert!(after > before, "larger budget factor must grow reach: {before} -> {after}");
    }

    #[test]
    fn generation_stable_without_mutation() {
        let world = World::generate(WorldConfig::test_scale(5)).unwrap();
        let g = world.generation();
        let _ = world.reach_engine().conjunction_reach(&[crate::catalog::InterestId(1)]);
        assert_eq!(world.generation(), g, "queries must not advance the generation");
    }
}
