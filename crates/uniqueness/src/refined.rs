//! §9 future work: uniqueness when interests are **combined with
//! socio-demographic attributes**.
//!
//! The paper closes by noting that an attacker need not rely on interests
//! alone: home location, gender, age and similar Ads-Manager attributes
//! "rapidly narrow down the audience size", so the number of interests
//! needed to nanotarget is *lower* than the interest-only `N_P`. This
//! module implements that analysis: the same `V_AS(Q)` pipeline, but with
//! each user's audience restricted to their own country / gender / age band
//! before interests are added.

use fbsim_adplatform::reach::AdsManagerApi;
use fbsim_adplatform::targeting::{Gender, TargetingSpec};
use fbsim_fdvt::{AgeBand, FdvtUser, GenderDecl};
use fbsim_population::countries::country_index;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::np::{estimate_np, NpError, NpEstimate};
use crate::selection::{select_sequence, SelectionStrategy};
use crate::vectors::AudienceVectors;

/// Which demographic attributes the attacker combines with interests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refinement {
    /// Restrict the audience to the target's country.
    pub use_country: bool,
    /// Restrict to the target's declared gender (skipped when undisclosed).
    pub use_gender: bool,
    /// Restrict to the target's age band (skipped when undisclosed).
    pub use_age_band: bool,
}

impl Refinement {
    /// Interests only — the paper's main analysis.
    pub const NONE: Refinement =
        Refinement { use_country: false, use_gender: false, use_age_band: false };
    /// All three attributes — the paper's §9 scenario.
    pub const FULL: Refinement =
        Refinement { use_country: true, use_gender: true, use_age_band: true };

    /// Short label for reports.
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.use_country {
            parts.push("country");
        }
        if self.use_gender {
            parts.push("gender");
        }
        if self.use_age_band {
            parts.push("age");
        }
        if parts.is_empty() {
            "interests-only".to_string()
        } else {
            format!("interests+{}", parts.join("+"))
        }
    }
}

/// Builds the demographic part of a user's refined targeting spec.
///
/// Returns `None` when the user's country is outside the 50-country
/// targeting universe (such users cannot be geo-refined by the attacker
/// within the paper's query constraints) — they are skipped, mirroring how
/// the paper's universe covers 81% of FB.
fn refined_spec(user: &FdvtUser, refinement: Refinement) -> Option<TargetingSpec> {
    let mut builder = TargetingSpec::builder();
    if refinement.use_country {
        country_index(user.country)?;
        builder = builder.location(user.country);
    } else {
        builder = builder.worldwide();
    }
    if refinement.use_gender {
        builder = match user.gender {
            GenderDecl::Man => builder.gender(Gender::Male),
            GenderDecl::Woman => builder.gender(Gender::Female),
            GenderDecl::Undisclosed => builder,
        };
    }
    if refinement.use_age_band {
        builder = match user.age_band {
            AgeBand::Adolescence => builder.age_range(13, 19),
            AgeBand::EarlyAdulthood => builder.age_range(20, 39),
            AgeBand::Adulthood => builder.age_range(40, 64),
            AgeBand::Maturity => builder.age_range(65, 65),
            AgeBand::Undisclosed => builder,
        };
    }
    builder.build().ok()
}

/// Collects audience vectors where each user's sequence is evaluated inside
/// their own demographic slice.
pub fn collect_refined_vectors(
    api: &AdsManagerApi<'_>,
    users: &[&FdvtUser],
    strategy: SelectionStrategy,
    refinement: Refinement,
    seed: u64,
) -> AudienceVectors {
    let catalog = api.world().catalog();
    let rows: Vec<Vec<f64>> = users
        .iter()
        .enumerate()
        .filter_map(|(i, user)| {
            if user.profile.interests.is_empty() {
                return None;
            }
            let spec = refined_spec(user, refinement)?;
            let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let sequence = select_sequence(&user.profile, catalog, strategy, &mut rng);
            let reaches = api.nested_potential_reach(&spec, &sequence);
            Some(reaches.into_iter().map(|r| r.reported as f64).collect())
        })
        .collect();
    AudienceVectors::from_rows(strategy, api.era().floor(), rows)
}

/// One row of the refinement comparison.
#[derive(Debug, Clone)]
pub struct RefinedEstimate {
    /// The refinement used.
    pub refinement: Refinement,
    /// Users that could be refined (in-universe countries).
    pub users: usize,
    /// `N(R)_P` under the refinement.
    pub np: NpEstimate,
}

/// Computes `N(R)_P` for a ladder of refinements, demonstrating the §9
/// claim that each added attribute lowers the interests needed.
pub fn refinement_ladder(
    api: &AdsManagerApi<'_>,
    users: &[&FdvtUser],
    p: f64,
    seed: u64,
) -> Result<Vec<RefinedEstimate>, NpError> {
    let ladder = [
        Refinement::NONE,
        Refinement { use_country: true, ..Refinement::NONE },
        Refinement { use_country: true, use_gender: true, use_age_band: false },
        Refinement::FULL,
    ];
    ladder
        .into_iter()
        .map(|refinement| {
            let vectors =
                collect_refined_vectors(api, users, SelectionStrategy::Random, refinement, seed);
            let np = estimate_np(&vectors, p, 0, seed)?;
            Ok(RefinedEstimate { refinement, users: vectors.len(), np })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_adplatform::reach::ReportingEra;
    use fbsim_fdvt::dataset::CohortConfig;
    use fbsim_fdvt::FdvtDataset;
    use fbsim_population::{World, WorldConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, FdvtDataset) {
        static FIX: OnceLock<(World, FdvtDataset)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(44)).unwrap();
            let cohort = FdvtDataset::generate(
                &world,
                CohortConfig { size: 250, seed: 4, demographic_effects: false },
            );
            (world, cohort)
        })
    }

    #[test]
    fn refinement_labels() {
        assert_eq!(Refinement::NONE.label(), "interests-only");
        assert_eq!(Refinement::FULL.label(), "interests+country+gender+age");
    }

    #[test]
    fn refined_vectors_dominate_unrefined() {
        // Restricting the audience can only shrink it: every refined row is
        // pointwise ≤ the unrefined one (same user, same sequence, same
        // floor).
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        let users: Vec<&FdvtUser> = cohort.users.iter().take(40).collect();
        let base =
            collect_refined_vectors(&api, &users, SelectionStrategy::Random, Refinement::NONE, 9);
        let full =
            collect_refined_vectors(&api, &users, SelectionStrategy::Random, Refinement::FULL, 9);
        // FULL drops out-of-universe countries, so align by counting only
        // as many rows as FULL has; rows are generated in cohort order for
        // the retained users, so compare medians instead of rows.
        let base_med = base.v_as(50.0);
        let full_med = full.v_as(50.0);
        for (b, f) in base_med.iter().zip(&full_med) {
            assert!(f <= b, "refined median {f} exceeds unrefined {b}");
        }
    }

    #[test]
    fn ladder_is_monotone_decreasing_in_np() {
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        let users: Vec<&FdvtUser> = cohort.users.iter().collect();
        let ladder = refinement_ladder(&api, &users, 0.9, 3).unwrap();
        assert_eq!(ladder.len(), 4);
        for pair in ladder.windows(2) {
            assert!(
                pair[1].np.value <= pair[0].np.value + 0.75,
                "{} ({:.2}) should need no more interests than {} ({:.2})",
                pair[1].refinement.label(),
                pair[1].np.value,
                pair[0].refinement.label(),
                pair[0].np.value
            );
        }
        // The full refinement saves a meaningful number of interests.
        let saved = ladder[0].np.value - ladder[3].np.value;
        assert!(saved > 0.5, "full refinement saved only {saved:.2} interests");
    }

    #[test]
    fn out_of_universe_countries_are_skipped() {
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        let users: Vec<&FdvtUser> = cohort.users.iter().collect();
        let unrefined =
            collect_refined_vectors(&api, &users, SelectionStrategy::Random, Refinement::NONE, 1);
        let refined =
            collect_refined_vectors(&api, &users, SelectionStrategy::Random, Refinement::FULL, 1);
        // The cohort includes Table-4 countries outside the 50-country
        // universe (UY, CH, SV, …): those rows drop under FULL.
        assert!(refined.len() < unrefined.len());
        assert!(refined.len() > unrefined.len() / 2);
    }
}
