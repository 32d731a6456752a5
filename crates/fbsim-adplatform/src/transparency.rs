//! "Why am I seeing this ad?" transparency records.
//!
//! Section 5.1, validation signal (3): for every received ad, FB shows the
//! user the targeting parameters of the campaign behind it. The paper's
//! authors snapshotted these and verified they matched the configured
//! audience exactly. The simulator produces the same record per impression,
//! and the experiment harness performs the same exact-match check.

use fbsim_population::InterestCatalog;

use crate::campaign::{CampaignId, CampaignSpec};

/// The transparency record attached to one ad impression.
#[derive(Debug, Clone, PartialEq)]
pub struct WhyAmISeeingThis {
    /// Campaign that delivered the impression.
    pub campaign_id: CampaignId,
    /// Advertiser display name.
    pub advertiser: String,
    /// Interest names used in the audience definition, as shown to the user.
    pub interests: Vec<String>,
    /// Location summary.
    pub locations: String,
}

impl WhyAmISeeingThis {
    /// Builds the record for a campaign, resolving interest names through
    /// the catalog.
    pub fn for_campaign(id: CampaignId, spec: &CampaignSpec, catalog: &InterestCatalog) -> Self {
        let interests =
            spec.targeting.interests().iter().map(|&i| catalog.interest(i).name.clone()).collect();
        let locations = if spec.targeting.is_worldwide() {
            "Worldwide".to_string()
        } else {
            spec.targeting
                .locations()
                .iter()
                .map(|c| c.as_str().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        Self { campaign_id: id, advertiser: spec.name.clone(), interests, locations }
    }

    /// The paper's validation check: the shown parameters must match the
    /// configured audience exactly.
    pub fn matches_spec(&self, spec: &CampaignSpec, catalog: &InterestCatalog) -> bool {
        let expected: Vec<String> =
            spec.targeting.interests().iter().map(|&i| catalog.interest(i).name.clone()).collect();
        self.interests == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Creativity, Schedule};
    use crate::targeting::TargetingSpec;
    use fbsim_population::{InterestId, WorldConfig};

    fn fixture() -> (InterestCatalog, CampaignSpec) {
        let catalog = InterestCatalog::generate(&WorldConfig::test_scale(2));
        let spec = CampaignSpec {
            name: "FDVT promo".into(),
            targeting: TargetingSpec::builder()
                .worldwide()
                .interests((0..5).map(InterestId))
                .build()
                .unwrap(),
            creativity: Creativity {
                title: "User 3 — 12 interests".into(),
                landing_url: "u".into(),
            },
            daily_budget_eur: 10.0,
            schedule: Schedule::paper_experiment(),
        };
        (catalog, spec)
    }

    #[test]
    fn record_lists_interest_names() {
        let (catalog, spec) = fixture();
        let record = WhyAmISeeingThis::for_campaign(CampaignId(3), &spec, &catalog);
        assert_eq!(record.interests.len(), 5);
        assert_eq!(record.interests[0], catalog.interest(InterestId(0)).name);
        assert_eq!(record.locations, "Worldwide");
        assert!(record.matches_spec(&spec, &catalog));
    }

    #[test]
    fn mismatch_detected() {
        let (catalog, spec) = fixture();
        let mut record = WhyAmISeeingThis::for_campaign(CampaignId(3), &spec, &catalog);
        record.interests.pop();
        assert!(!record.matches_spec(&spec, &catalog));
    }

    #[test]
    fn single_country_location_string() {
        let catalog = InterestCatalog::generate(&WorldConfig::test_scale(2));
        let spec = CampaignSpec {
            name: "x".into(),
            targeting: TargetingSpec::builder()
                .location(fbsim_population::CountryCode::new("ES"))
                .build()
                .unwrap(),
            creativity: Creativity { title: "t".into(), landing_url: "u".into() },
            daily_budget_eur: 1.0,
            schedule: Schedule::paper_experiment(),
        };
        let record = WhyAmISeeingThis::for_campaign(CampaignId(0), &spec, &catalog);
        assert_eq!(record.locations, "ES");
    }
}
