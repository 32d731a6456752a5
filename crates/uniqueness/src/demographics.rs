//! Appendix-C demographic analyses: `N(LP)_0.9` and `N(R)_0.9` by gender,
//! age band and country (Figures 8–10).

use fbsim_adplatform::reach::AdsManagerApi;
use fbsim_fdvt::{AgeBand, FdvtDataset, FdvtUser, GenderDecl};
use fbsim_population::countries::CountryCode;
use fbsim_population::MaterializedUser;

use crate::np::{estimate_np, NpError, NpEstimate};
use crate::selection::SelectionStrategy;
use crate::vectors::AudienceVectors;

/// Minimum users a country needs to be analysed (the paper uses >100).
pub const MIN_COUNTRY_USERS: usize = 100;

/// One demographic group's `N_0.9` pair.
#[derive(Debug, Clone)]
pub struct GroupEstimate {
    /// Group label ("men", "women", "adolescence", "ES", …).
    pub group: String,
    /// Users in the group.
    pub users: usize,
    /// `N(LP)_0.9` for the group.
    pub lp: NpEstimate,
    /// `N(R)_0.9` for the group.
    pub random: NpEstimate,
}

/// Computes the `N_0.9` pair for one set of users.
fn group_estimate(
    api: &AdsManagerApi<'_>,
    label: &str,
    users: &[&FdvtUser],
    replicates: usize,
    seed: u64,
) -> Result<GroupEstimate, NpError> {
    let profiles: Vec<&MaterializedUser> = users.iter().map(|u| &u.profile).collect();
    let lp_vectors =
        AudienceVectors::collect(api, &profiles, SelectionStrategy::LeastPopular, seed);
    let r_vectors = AudienceVectors::collect(api, &profiles, SelectionStrategy::Random, seed);
    Ok(GroupEstimate {
        group: label.to_string(),
        users: users.len(),
        lp: estimate_np(&lp_vectors, 0.9, replicates, seed)?,
        random: estimate_np(&r_vectors, 0.9, replicates, seed ^ 0xA1)?,
    })
}

/// Figure 8: gender analysis (men vs women; undisclosed users excluded as
/// in the paper).
pub fn gender_analysis(
    api: &AdsManagerApi<'_>,
    cohort: &FdvtDataset,
    replicates: usize,
    seed: u64,
) -> Result<Vec<GroupEstimate>, NpError> {
    [("men", GenderDecl::Man), ("women", GenderDecl::Woman)]
        .into_iter()
        .map(|(label, g)| group_estimate(api, label, &cohort.by_gender(g), replicates, seed))
        .collect()
}

/// Figure 9: age analysis. The Maturity band (19 users in the paper) is
/// excluded for its low sample size, as the paper does.
pub fn age_analysis(
    api: &AdsManagerApi<'_>,
    cohort: &FdvtDataset,
    replicates: usize,
    seed: u64,
) -> Result<Vec<GroupEstimate>, NpError> {
    [
        ("adolescence", AgeBand::Adolescence),
        ("early-adulthood", AgeBand::EarlyAdulthood),
        ("adulthood", AgeBand::Adulthood),
    ]
    .into_iter()
    .map(|(label, b)| group_estimate(api, label, &cohort.by_age_band(b), replicates, seed))
    .collect()
}

/// Figure 10: country analysis over countries with more than
/// [`MIN_COUNTRY_USERS`] cohort users (ES, FR, MX, AR at full scale).
pub fn country_analysis(
    api: &AdsManagerApi<'_>,
    cohort: &FdvtDataset,
    replicates: usize,
    seed: u64,
) -> Result<Vec<GroupEstimate>, NpError> {
    country_analysis_with_min(api, cohort, replicates, seed, MIN_COUNTRY_USERS)
}

/// [`country_analysis`] with a custom minimum group size (test-scale cohorts
/// are smaller than 2,390).
pub fn country_analysis_with_min(
    api: &AdsManagerApi<'_>,
    cohort: &FdvtDataset,
    replicates: usize,
    seed: u64,
    min_users: usize,
) -> Result<Vec<GroupEstimate>, NpError> {
    let mut codes: Vec<CountryCode> = cohort.users.iter().map(|u| u.country).collect();
    codes.sort();
    codes.dedup();
    codes
        .into_iter()
        .filter_map(|code| {
            let users = cohort.by_country(code);
            (users.len() > min_users)
                .then(|| group_estimate(api, code.as_str(), &users, replicates, seed))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_adplatform::reach::ReportingEra;
    use fbsim_fdvt::dataset::CohortConfig;
    use fbsim_population::{World, WorldConfig};
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, FdvtDataset) {
        static FIX: OnceLock<(World, FdvtDataset)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(97)).unwrap();
            let cohort = FdvtDataset::generate(
                &world,
                CohortConfig { size: 400, seed: 13, demographic_effects: true },
            );
            (world, cohort)
        })
    }

    #[test]
    fn gender_analysis_produces_both_groups() {
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        let groups = gender_analysis(&api, cohort, 0, 3).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].group, "men");
        assert_eq!(groups[1].group, "women");
        for g in &groups {
            assert!(g.users > 10);
            assert!(g.lp.value > 0.0 && g.lp.value < 25.0, "LP {:?}", g.lp.value);
            assert!(g.random.value > g.lp.value, "R should exceed LP");
        }
    }

    #[test]
    fn age_analysis_excludes_maturity() {
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        let groups = age_analysis(&api, cohort, 0, 3).unwrap();
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.group != "maturity"));
    }

    #[test]
    fn country_analysis_respects_minimum() {
        let (world, cohort) = fixture();
        let api = AdsManagerApi::new(world, ReportingEra::Early2017);
        // At 400 users, Spain (~47%) passes a 100-user minimum; France
        // (~14%) needs a lower one.
        let strict = country_analysis(&api, cohort, 0, 3).unwrap();
        assert!(strict.iter().any(|g| g.group == "ES"));
        let loose = country_analysis_with_min(&api, cohort, 0, 3, 40).unwrap();
        assert!(loose.len() >= strict.len());
        assert!(loose.iter().any(|g| g.group == "FR"));
    }
}
