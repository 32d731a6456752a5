//! Ad-preference collection and the revenue estimate.
//!
//! Section 2.2: the FDVT extension parses the user's ad-preferences page on
//! each FB session, collecting the interests FB has assigned, and shows the
//! user a real-time estimate of the ad revenue they generate for FB — the
//! extension's original headline feature, included here so the simulated
//! extension exercises the full flow the paper describes.

use fbsim_population::{InterestCatalog, InterestId, MaterializedUser};

/// One collected ad-preference entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AdPreference {
    /// The interest.
    pub interest: InterestId,
    /// Display name as shown on the ad-preferences page.
    pub name: String,
    /// Worldwide audience size at collection time.
    pub audience_size: f64,
}

/// Parses a user's ad-preference page into collected entries, resolving
/// names and audience sizes through the catalog (the extension queries the
/// Ads Manager API for each interest's audience).
pub fn collect_ad_preferences(
    user: &MaterializedUser,
    catalog: &InterestCatalog,
) -> Vec<AdPreference> {
    user.interests
        .iter()
        .map(|&id| {
            let interest = catalog.interest(id);
            AdPreference {
                interest: id,
                name: interest.name.clone(),
                audience_size: interest.target_audience,
            }
        })
        .collect()
}

/// Per-session revenue estimate, in euros.
///
/// The FDVT methodology prices the impressions and clicks a user receives
/// during a browsing session at market CPM/CPC rates. The simulator uses a
/// single blended rate pair; the estimate's purpose here is flow
/// completeness, not pricing research.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevenueEstimate {
    /// Impressions priced.
    pub impressions: u64,
    /// Clicks priced.
    pub clicks: u64,
    /// Estimated revenue in euros.
    pub revenue_eur: f64,
}

/// Blended display CPM used by the estimate (€ per 1,000 impressions).
pub const ESTIMATE_CPM_EUR: f64 = 2.4;
/// Blended CPC used by the estimate (€ per click).
pub const ESTIMATE_CPC_EUR: f64 = 0.4;

/// Estimates the revenue a session's ad activity generated for FB.
pub fn estimate_session_revenue(impressions: u64, clicks: u64) -> RevenueEstimate {
    let revenue =
        impressions as f64 * ESTIMATE_CPM_EUR / 1_000.0 + clicks as f64 * ESTIMATE_CPC_EUR;
    RevenueEstimate { impressions, clicks, revenue_eur: (revenue * 100.0).round() / 100.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};

    #[test]
    fn collect_resolves_names_and_audiences() {
        let world = World::generate(WorldConfig::test_scale(41)).unwrap();
        let user = world.materializer().sample_cohort(1, 5).pop().unwrap();
        let prefs = collect_ad_preferences(&user, world.catalog());
        assert_eq!(prefs.len(), user.interests.len());
        for p in &prefs {
            assert!(!p.name.is_empty());
            assert!(p.audience_size >= 20.0);
            assert_eq!(p.interest, world.catalog().interest(p.interest).id);
        }
    }

    #[test]
    fn revenue_estimate_math() {
        let r = estimate_session_revenue(10, 1);
        // 10 × 2.4/1000 + 1 × 0.4 = 0.424 → 0.42 after rounding.
        assert_eq!(r.revenue_eur, 0.42);
        assert_eq!(r.impressions, 10);
        assert_eq!(r.clicks, 1);
    }

    #[test]
    fn zero_activity_is_free() {
        assert_eq!(estimate_session_revenue(0, 0).revenue_eur, 0.0);
    }

    #[test]
    fn revenue_monotone_in_activity() {
        let a = estimate_session_revenue(100, 0).revenue_eur;
        let b = estimate_session_revenue(200, 0).revenue_eur;
        let c = estimate_session_revenue(200, 3).revenue_eur;
        assert!(a < b && b < c);
    }
}
