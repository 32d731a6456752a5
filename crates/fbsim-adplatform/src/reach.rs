//! The *Potential Reach* endpoint.
//!
//! Section 2.1: the FB Ads Campaign Manager reports the number of monthly
//! active users matching an audience, but never below a privacy floor — 20
//! when the paper's dataset was collected (January 2017), 1,000 since 2018,
//! and effectively 100 for researchers using the workaround of Gendronneau
//! et al. The floor is exactly the censoring the paper's `N_P` estimator has
//! to extrapolate through, so it is a first-class concept here.

use fbsim_population::reach::CountryFilter;
use fbsim_population::World;

use crate::targeting::{Gender, TargetingSpec};

/// Which reporting regime the endpoint emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportingEra {
    /// January 2017 (the paper's dataset): floor of 20 users.
    Early2017,
    /// Post-2018 with the minimum-reach workaround of Gendronneau et al.:
    /// effective floor of 100 users.
    Workaround100,
    /// Post-2018 standard behaviour: floor of 1,000 users.
    Post2018,
}

impl ReportingEra {
    /// The minimum audience size the endpoint will report.
    pub fn floor(self) -> u64 {
        match self {
            ReportingEra::Early2017 => 20,
            ReportingEra::Workaround100 => 100,
            ReportingEra::Post2018 => 1_000,
        }
    }
}

/// A reported potential reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialReach {
    /// The reported number of matching monthly active users (never below
    /// the era's floor).
    pub reported: u64,
    /// Whether the floor masked a smaller true value.
    pub floored: bool,
    /// Whether the dashboard would show the "your audience is too narrow"
    /// advisory (shown near the floor; the paper saw it once across its 21
    /// campaign audiences).
    pub too_narrow_warning: bool,
}

/// Fraction of users matching a gender refinement. The world model does not
/// carry gender on latent panel users, so the endpoint applies FB-wide
/// population shares under an independence assumption (documented
/// substitution — the paper's own campaigns never refined by gender).
pub(crate) fn gender_fraction(gender: Option<Gender>) -> f64 {
    match gender {
        None => 1.0,
        Some(Gender::Male) => 0.56,
        Some(Gender::Female) => 0.44,
    }
}

/// Fraction of users matching an age-range refinement, from a coarse FB-wide
/// age pyramid over the 13–65 span (independence assumption, as for gender).
pub(crate) fn age_fraction(range: Option<(u8, u8)>) -> f64 {
    let Some((lo, hi)) = range else { return 1.0 };
    // Piecewise-uniform shares per band: 13-19 : 11%, 20-39 : 54%,
    // 40-64 : 30%, 65 : 5% (matching the adult-skewed FB pyramid).
    let bands = [(13u8, 19u8, 0.11), (20, 39, 0.54), (40, 64, 0.30), (65, 65, 0.05)];
    let mut fraction = 0.0;
    for (blo, bhi, share) in bands {
        let overlap_lo = lo.max(blo);
        let overlap_hi = hi.min(bhi);
        if overlap_lo <= overlap_hi {
            let band_width = (bhi - blo + 1) as f64;
            fraction += share * (overlap_hi - overlap_lo + 1) as f64 / band_width;
        }
    }
    fraction
}

/// A targeting spec carried a country index outside the 50-country
/// universe — the wire-safe alternative to the panic in
/// [`CountryFilter::of`], so a malformed spec arriving over the reach
/// protocol degrades to an error response instead of killing the
/// connection thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfUniverseCountry(pub u16);

impl std::fmt::Display for OutOfUniverseCountry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "country index {} outside the 50-country universe", self.0)
    }
}

impl std::error::Error for OutOfUniverseCountry {}

/// The Ads Manager potential-reach API over a world.
#[derive(Debug, Clone, Copy)]
pub struct AdsManagerApi<'w> {
    world: &'w World,
    era: ReportingEra,
}

/// The spec's location filter, or the first out-of-universe index.
fn spec_filter(spec: &TargetingSpec) -> Result<CountryFilter, OutOfUniverseCountry> {
    CountryFilter::checked_of(&spec.location_indices()).map_err(OutOfUniverseCountry)
}

impl<'w> AdsManagerApi<'w> {
    /// Creates the endpoint for a world and reporting era.
    pub fn new(world: &'w World, era: ReportingEra) -> Self {
        Self { world, era }
    }

    /// The active reporting era.
    pub fn era(&self) -> ReportingEra {
        self.era
    }

    /// The world behind the endpoint.
    pub fn world(&self) -> &'w World {
        self.world
    }

    /// The *true* expected audience of a spec — the simulator's backdoor,
    /// used by delivery and by policy evaluation (which FB could do
    /// internally but an external advertiser cannot).
    ///
    /// # Panics
    ///
    /// Panics if the spec carries a country index outside the 50-country
    /// universe — specs built through [`TargetingSpec::builder`] cannot;
    /// wire-adjacent callers should use [`Self::try_true_reach`].
    pub fn true_reach(&self, spec: &TargetingSpec) -> f64 {
        match self.try_true_reach(spec) {
            Ok(reach) => reach,
            Err(err) => {
                // `try_true_reach` only errors on an out-of-universe index,
                // so the assert always fires with the documented message.
                assert!(err.0 < 50, "{err}");
                f64::NAN
            }
        }
    }

    /// Non-panicking [`Self::true_reach`] for wire-adjacent callers: a spec
    /// carrying an out-of-universe country index becomes an error value
    /// instead of a panic on the serving thread.
    ///
    /// # Errors
    ///
    /// The first country index outside the 50-country universe.
    pub fn try_true_reach(&self, spec: &TargetingSpec) -> Result<f64, OutOfUniverseCountry> {
        let filter = spec_filter(spec)?;
        let engine = self.world.reach_engine();
        let raw = engine.conjunction_reach_in(spec.interests(), filter);
        Ok(raw * gender_fraction(spec.gender()) * age_fraction(spec.age_range()))
    }

    /// Applies the era's reporting policy to an already-computed true
    /// reach — the single place floor/advisory logic lives, shared by the
    /// scalar and nested endpoints and by callers (the reach server's query
    /// cache) that memoize the expensive `true_reach` separately from the
    /// cheap reporting step.
    pub fn report_potential(&self, true_reach: f64) -> PotentialReach {
        let floor = self.era.floor();
        let rounded = true_reach.round().max(0.0) as u64;
        PotentialReach {
            reported: rounded.max(floor),
            floored: rounded < floor,
            // The advisory appears when the true audience sits under ~2× the
            // floor — narrow enough that FB nudges the advertiser to widen.
            too_narrow_warning: rounded < floor * 2,
        }
    }

    /// The reported *Potential Reach* for a spec, floor applied.
    pub fn potential_reach(&self, spec: &TargetingSpec) -> PotentialReach {
        self.report_potential(self.true_reach(spec))
    }

    /// Reach of every prefix of an interest sequence under a spec's
    /// locations — the bulk query the uniqueness pipeline uses (reported
    /// values, floor applied).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-universe country index, like
    /// [`Self::true_reach`]; wire-adjacent callers should use
    /// [`Self::try_nested_potential_reach`].
    pub fn nested_potential_reach(
        &self,
        spec_locations: &TargetingSpec,
        interests: &[fbsim_population::InterestId],
    ) -> Vec<PotentialReach> {
        match self.try_nested_potential_reach(spec_locations, interests) {
            Ok(reaches) => reaches,
            Err(err) => {
                assert!(err.0 < 50, "{err}");
                Vec::new()
            }
        }
    }

    /// Non-panicking [`Self::nested_potential_reach`] for wire-adjacent
    /// callers.
    ///
    /// # Errors
    ///
    /// The first country index outside the 50-country universe.
    pub fn try_nested_potential_reach(
        &self,
        spec_locations: &TargetingSpec,
        interests: &[fbsim_population::InterestId],
    ) -> Result<Vec<PotentialReach>, OutOfUniverseCountry> {
        let filter = spec_filter(spec_locations)?;
        let engine = self.world.reach_engine();
        let demographic =
            gender_fraction(spec_locations.gender()) * age_fraction(spec_locations.age_range());
        Ok(engine
            .nested_reaches_in(interests, filter)
            .into_iter()
            .map(|raw| self.report_potential(raw * demographic))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{InterestId, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(91)).unwrap())
    }

    fn worldwide_with(interests: Vec<InterestId>) -> TargetingSpec {
        TargetingSpec::builder().worldwide().interests(interests).build().unwrap()
    }

    #[test]
    fn era_floors() {
        assert_eq!(ReportingEra::Early2017.floor(), 20);
        assert_eq!(ReportingEra::Workaround100.floor(), 100);
        assert_eq!(ReportingEra::Post2018.floor(), 1_000);
    }

    #[test]
    fn single_interest_reach_is_reported_unfloored() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        let spec = worldwide_with(vec![InterestId(0)]);
        let reach = api.potential_reach(&spec);
        assert!(!reach.floored);
        assert!(reach.reported > 1_000, "single interests are popular: {reach:?}");
    }

    #[test]
    fn deep_conjunction_hits_floor() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        // 25 arbitrary interests across topics: true reach ≈ 0.
        let spec = worldwide_with((0..25).map(|i| InterestId(i * 37)).collect());
        let reach = api.potential_reach(&spec);
        assert!(reach.floored);
        assert_eq!(reach.reported, 20);
        assert!(reach.too_narrow_warning);
    }

    #[test]
    fn floors_differ_across_eras() {
        let spec = worldwide_with((0..25).map(|i| InterestId(i * 41)).collect());
        for (era, floor) in [
            (ReportingEra::Early2017, 20),
            (ReportingEra::Workaround100, 100),
            (ReportingEra::Post2018, 1_000),
        ] {
            let api = AdsManagerApi::new(world(), era);
            assert_eq!(api.potential_reach(&spec).reported, floor);
        }
    }

    #[test]
    fn gender_refinement_scales_reach() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        let all = api.true_reach(&worldwide_with(vec![InterestId(3)]));
        let male = api.true_reach(
            &TargetingSpec::builder()
                .worldwide()
                .interest(InterestId(3))
                .gender(Gender::Male)
                .build()
                .unwrap(),
        );
        assert!((male / all - 0.56).abs() < 1e-9);
    }

    #[test]
    fn age_fraction_bands() {
        assert_eq!(age_fraction(None), 1.0);
        assert!((age_fraction(Some((13, 65))) - 1.0).abs() < 1e-9);
        assert!((age_fraction(Some((20, 39))) - 0.54).abs() < 1e-9);
        // Half of the 20-39 band.
        assert!((age_fraction(Some((20, 29))) - 0.27).abs() < 1e-9);
    }

    #[test]
    fn location_restriction_reduces_reach() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        let worldwide = api.true_reach(&worldwide_with(vec![InterestId(5)]));
        let spain_only = api.true_reach(
            &TargetingSpec::builder()
                .location(fbsim_population::CountryCode::new("ES"))
                .interest(InterestId(5))
                .build()
                .unwrap(),
        );
        assert!(spain_only < worldwide);
        assert!(spain_only > 0.0);
    }

    #[test]
    fn report_potential_floor_boundaries() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        // Below the floor: masked and flagged.
        let low = api.report_potential(3.2);
        assert_eq!((low.reported, low.floored, low.too_narrow_warning), (20, true, true));
        // Between floor and 2×floor: reported truthfully but still narrow.
        let narrow = api.report_potential(25.0);
        assert_eq!((narrow.reported, narrow.floored, narrow.too_narrow_warning), (25, false, true));
        // Comfortably wide.
        let wide = api.report_potential(1_000.4);
        assert_eq!((wide.reported, wide.floored, wide.too_narrow_warning), (1_000, false, false));
        // Negative/NaN-safe rounding clamps at zero before the floor.
        assert_eq!(api.report_potential(-5.0).reported, 20);
    }

    #[test]
    fn nested_reach_monotone_and_floored() {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        let spec = TargetingSpec::builder().worldwide().build().unwrap();
        let interests: Vec<InterestId> = (0..15).map(|i| InterestId(i * 53)).collect();
        let nested = api.nested_potential_reach(&spec, &interests);
        assert_eq!(nested.len(), 15);
        for w in nested.windows(2) {
            assert!(w[1].reported <= w[0].reported);
        }
        assert!(nested.last().unwrap().floored);
        assert_eq!(nested.last().unwrap().reported, 20);
    }
}
