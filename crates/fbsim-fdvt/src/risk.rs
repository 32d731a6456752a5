//! The §6 defence: interest risk bands and one-click removal.
//!
//! The extension sorts the user's interests by audience size and colour-codes
//! them: **High** risk for worldwide audiences ≤ 10k, **Medium** ≤ 100k,
//! **Low** ≤ 1M, **None** above 1M. The user can delete any interest (or all
//! highly risky ones) with a click; deleted interests stop being usable to
//! target them. Fig. 7 shows the interface this module models.

use fbsim_adplatform::analyze::{NanotargetingRisk, NpThresholds};
use fbsim_population::{InterestCatalog, InterestId, MaterializedUser};

/// Risk bands of the §6 colour code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RiskLevel {
    /// Audience ≤ 10k (red).
    High,
    /// Audience in (10k, 100k] (orange).
    Medium,
    /// Audience in (100k, 1M] (yellow).
    Low,
    /// Audience > 1M (green).
    None,
}

impl RiskLevel {
    /// Classifies an audience size using the paper's default thresholds.
    pub fn classify(audience: f64) -> Self {
        Self::classify_with(audience, &RiskThresholds::default())
    }

    /// Classifies with custom thresholds ("the threshold for each risk
    /// category can be easily modified", §6).
    pub fn classify_with(audience: f64, thresholds: &RiskThresholds) -> Self {
        if audience <= thresholds.high_max {
            RiskLevel::High
        } else if audience <= thresholds.medium_max {
            RiskLevel::Medium
        } else if audience <= thresholds.low_max {
            RiskLevel::Low
        } else {
            RiskLevel::None
        }
    }

    /// Display label matching the Fig.-7 interface.
    pub fn label(self) -> &'static str {
        match self {
            RiskLevel::High => "High Risk",
            RiskLevel::Medium => "Medium Risk",
            RiskLevel::Low => "Low Risk",
            RiskLevel::None => "No Risk",
        }
    }
}

/// Configurable band thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RiskThresholds {
    /// Upper bound of the High band.
    pub high_max: f64,
    /// Upper bound of the Medium band.
    pub medium_max: f64,
    /// Upper bound of the Low band.
    pub low_max: f64,
}

impl Default for RiskThresholds {
    fn default() -> Self {
        Self { high_max: 10_000.0, medium_max: 100_000.0, low_max: 1_000_000.0 }
    }
}

/// Status of an interest row in the interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterestStatus {
    /// Currently in the user's ad-preference set.
    Active,
    /// Removed by the user through the interface.
    Removed,
}

/// One row of the risk report (one interest).
#[derive(Debug, Clone, PartialEq)]
pub struct RiskRow {
    /// The interest.
    pub interest: InterestId,
    /// Display name.
    pub name: String,
    /// Risk band.
    pub risk: RiskLevel,
    /// Worldwide audience size.
    pub audience_size: f64,
    /// Row status.
    pub status: InterestStatus,
}

/// The "Identification of Risks from my Facebook Interests" report —
/// the Fig.-7 interface state for one user.
#[derive(Debug, Clone)]
pub struct RiskReport {
    rows: Vec<RiskRow>,
}

impl RiskReport {
    /// Builds the report for a user: interests sorted ascending by audience
    /// size (riskiest first), all initially active.
    pub fn build(user: &MaterializedUser, catalog: &InterestCatalog) -> Self {
        Self::build_with(user, catalog, &RiskThresholds::default())
    }

    /// [`Self::build`] with custom thresholds.
    pub fn build_with(
        user: &MaterializedUser,
        catalog: &InterestCatalog,
        thresholds: &RiskThresholds,
    ) -> Self {
        let rows = user
            .interests_by_audience(catalog)
            .into_iter()
            .map(|id| {
                let interest = catalog.interest(id);
                RiskRow {
                    interest: id,
                    name: interest.name.clone(),
                    risk: RiskLevel::classify_with(interest.target_audience, thresholds),
                    audience_size: interest.target_audience,
                    status: InterestStatus::Active,
                }
            })
            .collect();
        Self { rows }
    }

    /// All rows, riskiest (smallest audience) first.
    pub fn rows(&self) -> &[RiskRow] {
        &self.rows
    }

    /// Active interests only.
    pub fn active_interests(&self) -> Vec<InterestId> {
        self.rows
            .iter()
            .filter(|r| r.status == InterestStatus::Active)
            .map(|r| r.interest)
            .collect()
    }

    /// Count of active rows at a given risk level.
    pub fn count_at(&self, risk: RiskLevel) -> usize {
        self.rows.iter().filter(|r| r.status == InterestStatus::Active && r.risk == risk).count()
    }

    /// "Delete Interest": removes one interest. Returns whether the row
    /// existed and was active.
    pub fn remove(&mut self, interest: InterestId) -> bool {
        for row in &mut self.rows {
            if row.interest == interest && row.status == InterestStatus::Active {
                row.status = InterestStatus::Removed;
                return true;
            }
        }
        false
    }

    /// "DELETE ALL HIGHLY RISKY INTERESTS": removes every active High-risk
    /// interest; returns how many were removed.
    pub fn remove_all_high_risk(&mut self) -> usize {
        let mut removed = 0;
        for row in &mut self.rows {
            if row.status == InterestStatus::Active && row.risk == RiskLevel::High {
                row.status = InterestStatus::Removed;
                removed += 1;
            }
        }
        removed
    }

    /// "DELETE ALL INTERESTS".
    pub fn remove_all(&mut self) -> usize {
        let mut removed = 0;
        for row in &mut self.rows {
            if row.status == InterestStatus::Active {
                row.status = InterestStatus::Removed;
                removed += 1;
            }
        }
        removed
    }

    /// The §8 nanotargeting exposure of the *current* (post-removal)
    /// interest set: the verdict the static analyzer would return for an
    /// attacker who combines every remaining active interest, with the
    /// audience upper bound taken from the rarest active interest (the
    /// conjunction can reach at most that marginal).
    pub fn nanotargeting_exposure(&self) -> NanotargetingRisk {
        self.nanotargeting_exposure_with(&NpThresholds::paper())
    }

    /// [`Self::nanotargeting_exposure`] with custom thresholds.
    pub fn nanotargeting_exposure_with(&self, thresholds: &NpThresholds) -> NanotargetingRisk {
        let active: Vec<&RiskRow> =
            self.rows.iter().filter(|r| r.status == InterestStatus::Active).collect();
        // Rows are sorted ascending by audience, so the first active row is
        // the rarest; an empty set has nothing an attacker can combine.
        let upper = active.first().map_or(f64::INFINITY, |r| r.audience_size);
        NanotargetingRisk::assess(active.len(), upper, thresholds)
    }

    /// One-line advisory for the Fig.-7 interface summarising
    /// [`Self::nanotargeting_exposure`].
    pub fn exposure_advisory(&self) -> String {
        let exposure = self.nanotargeting_exposure();
        let active = self.active_interests().len();
        format!("Nanotargeting exposure: {} ({} active interests)", exposure.label(), active)
    }

    /// Renders the interface as text (the Fig.-7 table).
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::from("Interest name | Risk level | Audience size | Status\n");
        for row in self.rows.iter().take(limit) {
            out.push_str(&format!(
                "{} | {} | {:.0} | {}\n",
                row.name,
                row.risk.label(),
                row.audience_size,
                match row.status {
                    InterestStatus::Active => "ACTIVE",
                    InterestStatus::Removed => "REMOVED",
                }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(61)).unwrap())
    }

    fn report() -> RiskReport {
        let user = world().materializer().sample_cohort(1, 77).pop().unwrap();
        RiskReport::build(&user, world().catalog())
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(RiskLevel::classify(4_190.0), RiskLevel::High);
        assert_eq!(RiskLevel::classify(10_000.0), RiskLevel::High);
        assert_eq!(RiskLevel::classify(15_740.0), RiskLevel::Medium);
        assert_eq!(RiskLevel::classify(100_000.0), RiskLevel::Medium);
        assert_eq!(RiskLevel::classify(360_370.0), RiskLevel::Low);
        assert_eq!(RiskLevel::classify(1_000_000.0), RiskLevel::Low);
        assert_eq!(RiskLevel::classify(40_252_260.0), RiskLevel::None);
    }

    #[test]
    fn custom_thresholds() {
        let t = RiskThresholds { high_max: 100.0, medium_max: 200.0, low_max: 300.0 };
        assert_eq!(RiskLevel::classify_with(150.0, &t), RiskLevel::Medium);
        assert_eq!(RiskLevel::classify_with(10_000.0, &t), RiskLevel::None);
    }

    #[test]
    fn rows_sorted_riskiest_first() {
        let r = report();
        for w in r.rows().windows(2) {
            assert!(w[0].audience_size <= w[1].audience_size);
        }
    }

    #[test]
    fn remove_single_interest() {
        let mut r = report();
        let first = r.rows()[0].interest;
        assert!(r.remove(first));
        assert!(!r.remove(first), "second removal is a no-op");
        assert!(!r.active_interests().contains(&first));
    }

    #[test]
    fn remove_unknown_interest_is_noop() {
        let mut r = report();
        assert!(!r.remove(InterestId(u32::MAX)));
    }

    #[test]
    fn remove_all_high_risk_clears_band() {
        let mut r = report();
        let high_before = r.count_at(RiskLevel::High);
        let removed = r.remove_all_high_risk();
        assert_eq!(removed, high_before);
        assert_eq!(r.count_at(RiskLevel::High), 0);
        // Other bands untouched.
        assert_eq!(r.active_interests().len(), r.rows().len() - removed);
    }

    #[test]
    fn remove_all_empties_report() {
        let mut r = report();
        let n = r.rows().len();
        assert_eq!(r.remove_all(), n);
        assert!(r.active_interests().is_empty());
        assert_eq!(r.remove_all(), 0);
    }

    #[test]
    fn exposure_shrinks_as_interests_are_removed() {
        let mut r = report();
        let before = r.nanotargeting_exposure();
        // A freshly materialised user carries tens of interests, several of
        // them rare: full exposure is the worst verdict.
        assert!(before.is_actionable(), "{before:?}");
        r.remove_all();
        let after = r.nanotargeting_exposure();
        assert!(matches!(after, NanotargetingRisk::Low { interests: 0 }), "{after:?}");
        assert!(!after.is_actionable());
    }

    #[test]
    fn exposure_advisory_mentions_the_level() {
        let r = report();
        let line = r.exposure_advisory();
        assert!(line.contains("Nanotargeting exposure:"), "{line}");
        assert!(line.contains(r.nanotargeting_exposure().label()), "{line}");
    }

    #[test]
    fn render_contains_labels() {
        let r = report();
        let text = r.render(5);
        assert!(text.contains("Risk level"));
        assert!(text.contains("ACTIVE"));
        assert!(text.lines().count() <= 6);
    }
}
