//! The three-signal success validation (Section 5.1).
//!
//! A campaign is validated as a successful nanotargeting attack only when
//! all three independent signals agree:
//!
//! 1. the FB dashboard reports exactly **one** user reached;
//! 2. the web server holds a click-log record from the target on the
//!    campaign's unique landing page;
//! 3. the target captured a "Why am I seeing this ad?" snapshot whose
//!    parameters match the configured audience exactly.
//!
//! A campaign that reached the target *along with others* is a failed
//! nanotargeting attempt by definition, however many impressions the target
//! received.

use fbsim_adplatform::campaign::CampaignSpec;
use fbsim_adplatform::delivery::DeliveryReport;
use fbsim_adplatform::transparency::WhyAmISeeingThis;
use fbsim_population::InterestCatalog;

use crate::weblog::ClickLog;

/// The three validation signals for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationSignals {
    /// Dashboard reports exactly one user reached.
    pub dashboard_reached_one: bool,
    /// The click log holds at least one record on the campaign's landing
    /// page.
    pub click_logged: bool,
    /// The transparency snapshot matches the configured audience.
    pub snapshot_matches: bool,
}

/// Verdict for one campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanotargetingVerdict {
    /// All three signals agree: the ad reached the target exclusively.
    Success,
    /// The ad reached the target but also other users.
    ReachedWithOthers,
    /// The target never received the ad.
    NotSeen,
}

/// Validates one campaign from its delivery report, the click log, and the
/// target's snapshot (if the target saw the ad).
pub fn validate_campaign(
    report: &DeliveryReport,
    spec: &CampaignSpec,
    catalog: &InterestCatalog,
    log: &ClickLog,
    snapshot: Option<&WhyAmISeeingThis>,
) -> (NanotargetingVerdict, ValidationSignals) {
    let signals = ValidationSignals {
        dashboard_reached_one: report.reached == 1 && report.target_seen,
        click_logged: log.click_count(&spec.creativity.landing_url) > 0,
        snapshot_matches: snapshot.is_some_and(|s| s.matches_spec(spec, catalog)),
    };
    let verdict = if !report.target_seen {
        NanotargetingVerdict::NotSeen
    } else if signals.dashboard_reached_one && signals.click_logged && signals.snapshot_matches {
        NanotargetingVerdict::Success
    } else if report.reached > 1 {
        NanotargetingVerdict::ReachedWithOthers
    } else {
        // Reached == 1 but a validation signal is missing: the conservative
        // reading is that exclusivity was not *proven*.
        NanotargetingVerdict::ReachedWithOthers
    };
    (verdict, signals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_adplatform::campaign::{CampaignId, Creativity, Schedule};
    use fbsim_adplatform::targeting::TargetingSpec;
    use fbsim_population::{InterestId, WorldConfig};

    fn fixture() -> (InterestCatalog, CampaignSpec) {
        let catalog = InterestCatalog::generate(&WorldConfig::test_scale(1));
        let spec = CampaignSpec {
            name: "t".into(),
            targeting: TargetingSpec::builder()
                .worldwide()
                .interests((0..12).map(InterestId))
                .build()
                .unwrap(),
            creativity: Creativity {
                title: "User 1 — 12 interests".into(),
                landing_url: "https://fdvt.example/landing/u1/n12".into(),
            },
            daily_budget_eur: 10.0,
            schedule: Schedule::paper_experiment(),
        };
        (catalog, spec)
    }

    fn report(seen: bool, reached: u64) -> DeliveryReport {
        DeliveryReport {
            target_seen: seen,
            reached,
            impressions: reached,
            target_impressions: u64::from(seen),
            time_to_first_impression_hours: seen.then_some(2.5),
            cost_eur: 0.01,
            clicks: u64::from(seen),
            unique_click_ips: u64::from(seen),
        }
    }

    #[test]
    fn full_success() {
        let (catalog, spec) = fixture();
        let mut log = ClickLog::new();
        log.record(&spec.creativity.landing_url, 2.5, [10, 0, 0, 1], 7);
        let snapshot = WhyAmISeeingThis::for_campaign(CampaignId(0), &spec, &catalog);
        let (verdict, signals) =
            validate_campaign(&report(true, 1), &spec, &catalog, &log, Some(&snapshot));
        assert_eq!(verdict, NanotargetingVerdict::Success);
        assert!(signals.dashboard_reached_one);
        assert!(signals.click_logged);
        assert!(signals.snapshot_matches);
    }

    #[test]
    fn reached_with_others_is_failure() {
        let (catalog, spec) = fixture();
        let mut log = ClickLog::new();
        log.record(&spec.creativity.landing_url, 1.0, [10, 0, 0, 1], 7);
        let snapshot = WhyAmISeeingThis::for_campaign(CampaignId(0), &spec, &catalog);
        let (verdict, signals) =
            validate_campaign(&report(true, 152), &spec, &catalog, &log, Some(&snapshot));
        assert_eq!(verdict, NanotargetingVerdict::ReachedWithOthers);
        assert!(!signals.dashboard_reached_one);
    }

    #[test]
    fn not_seen() {
        let (catalog, spec) = fixture();
        let log = ClickLog::new();
        let (verdict, signals) =
            validate_campaign(&report(false, 9_824), &spec, &catalog, &log, None);
        assert_eq!(verdict, NanotargetingVerdict::NotSeen);
        assert!(!signals.click_logged);
        assert!(!signals.snapshot_matches);
    }

    #[test]
    fn missing_click_log_blocks_success() {
        let (catalog, spec) = fixture();
        let log = ClickLog::new();
        let snapshot = WhyAmISeeingThis::for_campaign(CampaignId(0), &spec, &catalog);
        let (verdict, _) =
            validate_campaign(&report(true, 1), &spec, &catalog, &log, Some(&snapshot));
        assert_ne!(verdict, NanotargetingVerdict::Success);
    }

    #[test]
    fn mismatched_snapshot_blocks_success() {
        let (catalog, spec) = fixture();
        let mut log = ClickLog::new();
        log.record(&spec.creativity.landing_url, 2.5, [10, 0, 0, 1], 7);
        let mut snapshot = WhyAmISeeingThis::for_campaign(CampaignId(0), &spec, &catalog);
        snapshot.interests.pop();
        let (verdict, signals) =
            validate_campaign(&report(true, 1), &spec, &catalog, &log, Some(&snapshot));
        assert_ne!(verdict, NanotargetingVerdict::Success);
        assert!(!signals.snapshot_matches);
    }
}
