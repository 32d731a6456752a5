//! Campaign lifecycle: creativities, schedules, budgets, launch/stop and
//! dashboard reporting.
//!
//! Mirrors the subset of the FB Ads Campaign Manager the paper used: each
//! campaign has one ad creativity with a unique landing page (Section 5.1),
//! a daily budget, and a schedule of active windows; the dashboard reports
//! impressions, unique users reached, clicks and spend.

use rand::Rng;

use crate::analyze::SpecAnalyzer;
use crate::delivery::{
    simulate_delivery_in, DeliveryModel, DeliveryReport, ImpressionMarket, MatchedAudience,
};
use crate::policy::{PlatformPolicy, PolicyViolation, StaticDecision};
use crate::reach::AdsManagerApi;
use crate::targeting::TargetingSpec;

/// Identifier of a launched campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CampaignId(pub u64);

/// An ad creativity: what the targeted user sees, and where a click lands.
#[derive(Debug, Clone, PartialEq)]
pub struct Creativity {
    /// Headline / identifying text. The paper's creativities identified the
    /// targeted user and interest count (e.g. "User 3 — 12 interests").
    pub title: String,
    /// Unique landing-page URL; clicks on this creativity log there.
    pub landing_url: String,
}

/// A schedule of active windows, in hours relative to campaign launch.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// `(start_hour, end_hour)` pairs, strictly increasing and
    /// non-overlapping.
    windows: Vec<(f64, f64)>,
}

impl Schedule {
    /// Builds a schedule from `(start, end)` hour pairs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed window (end ≤ start,
    /// overlap, or non-finite bound).
    pub fn new(windows: Vec<(f64, f64)>) -> Result<Self, String> {
        if windows.is_empty() {
            return Err("schedule needs at least one window".into());
        }
        for &(s, e) in &windows {
            if !s.is_finite() || !e.is_finite() || s < 0.0 || e <= s {
                return Err(format!("malformed window ({s}, {e})"));
            }
        }
        for pair in windows.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(format!(
                    "windows overlap or are out of order: {:?} then {:?}",
                    pair[0], pair[1]
                ));
            }
        }
        Ok(Self { windows })
    }

    /// The paper's experiment schedule (Section 5.1): Thu 19–21h, Fri 9–21h,
    /// Mon 9–21h, Tue 9–16h CET — 33 active hours over 4 windows spanning
    /// 6 calendar days.
    pub fn paper_experiment() -> Self {
        // Hour 0 = Thu 19:00 CET.
        Self::new(vec![
            (0.0, 2.0),     // Thu 19-21
            (14.0, 26.0),   // Fri 9-21
            (86.0, 98.0),   // Mon 9-21
            (110.0, 117.0), // Tue 9-16
        ])
        // lint:allow(no-unwrap) — static constant: the paper schedule is validated by unit tests
        .expect("static schedule is well-formed")
    }

    /// The active windows.
    pub fn windows(&self) -> &[(f64, f64)] {
        &self.windows
    }

    /// Total active hours (the paper's campaigns ran 33).
    pub fn active_hours(&self) -> f64 {
        self.windows.iter().map(|(s, e)| e - s).sum()
    }

    /// Number of distinct calendar days the schedule touches (budget pacing
    /// allocates per day).
    pub fn calendar_days(&self) -> u64 {
        let mut days: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|&(s, e)| {
                let first = (s / 24.0).floor() as u64;
                // `e` is an exclusive end: a window ending exactly at
                // midnight does not touch the next day.
                let last = ((e - f64::EPSILON) / 24.0).floor() as u64;
                first..=last
            })
            .collect();
        days.sort_unstable();
        days.dedup();
        days.len() as u64
    }

    /// Maps an *active-time* offset (hours of campaign runtime) back to a
    /// wall-clock hour offset from launch.
    pub fn active_to_wall(&self, active_hours: f64) -> Option<f64> {
        let mut remaining = active_hours;
        for &(s, e) in &self.windows {
            let span = e - s;
            if remaining <= span {
                return Some(s + remaining);
            }
            remaining -= span;
        }
        None
    }
}

/// A campaign specification, ready to launch.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Display name.
    pub name: String,
    /// Validated audience definition.
    pub targeting: TargetingSpec,
    /// The single ad creativity.
    pub creativity: Creativity,
    /// Daily budget in euros (the paper allocated 70 €/week ≈ 10 €/day).
    pub daily_budget_eur: f64,
    /// Active windows.
    pub schedule: Schedule,
}

/// Campaign lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignState {
    /// Launched and delivering (or scheduled to deliver).
    Active,
    /// Stopped by the advertiser; the delivery report is final.
    Stopped,
    /// Rejected at launch by a platform policy.
    Rejected(PolicyViolation),
}

/// One launched (or rejected) campaign.
#[derive(Debug, Clone)]
struct CampaignRecord {
    spec: CampaignSpec,
    state: CampaignState,
    report: Option<DeliveryReport>,
}

/// The campaign manager: validates against platform policy, simulates
/// delivery, and serves dashboard stats.
pub struct CampaignManager<'w, P: PlatformPolicy> {
    api: AdsManagerApi<'w>,
    policy: P,
    model: DeliveryModel,
    campaigns: Vec<CampaignRecord>,
    analyzer: SpecAnalyzer,
    static_rejections: usize,
}

impl<'w, P: PlatformPolicy> CampaignManager<'w, P> {
    /// Creates a manager over an Ads Manager API with a platform policy.
    ///
    /// The manager builds a catalog-marginal [`SpecAnalyzer`] for the §8
    /// pre-flight.  Catalog marginals are approximate, so the analysis is
    /// marked advisory (`interval_sound == false`): sound policies only
    /// decide statically on marginal-independent grounds (structural
    /// contradictions, interest caps) and defer every interval-based
    /// accept/reject to the dynamic true-audience check.  Use
    /// [`CampaignManager::with_analyzer`] with
    /// [`SpecAnalyzer::from_engine`] for exact marginals that make the
    /// full pre-flight decisive.
    pub fn new(api: AdsManagerApi<'w>, policy: P, model: DeliveryModel) -> Self {
        let world = api.world();
        let analyzer = SpecAnalyzer::from_catalog(world.catalog(), world.population() as f64);
        Self::with_analyzer(api, policy, model, analyzer)
    }

    /// Creates a manager with an explicit spec analyzer (e.g. one built via
    /// [`SpecAnalyzer::from_engine`] for exact pre-flight bounds).
    pub fn with_analyzer(
        api: AdsManagerApi<'w>,
        policy: P,
        model: DeliveryModel,
        analyzer: SpecAnalyzer,
    ) -> Self {
        Self { api, policy, model, campaigns: Vec::new(), analyzer, static_rejections: 0 }
    }

    /// The underlying reach API.
    pub fn api(&self) -> &AdsManagerApi<'w> {
        &self.api
    }

    /// The pre-flight analyzer.
    pub fn analyzer(&self) -> &SpecAnalyzer {
        &self.analyzer
    }

    /// How many campaigns the static pre-flight rejected without ever
    /// querying the reach engine.
    pub fn static_rejections(&self) -> usize {
        self.static_rejections
    }

    /// Launches a campaign and runs its delivery simulation.
    ///
    /// `target_matches` pins the experiment's target user: `true` when the
    /// audience was built from that user's own interests (so they match by
    /// construction), `false` for audiences with no pinned user.
    ///
    /// Returns the campaign id; a policy rejection stores the campaign in
    /// `Rejected` state and surfaces the violation.
    ///
    /// The policy's static pre-flight
    /// ([`PlatformPolicy::evaluate_static`]) runs first: a provable
    /// rejection never touches the reach engine, a provable acceptance
    /// skips the dynamic policy check, and only an inconclusive pre-flight
    /// falls back to evaluating the true audience.
    pub fn launch<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        spec: CampaignSpec,
        target_matches: bool,
    ) -> Result<CampaignId, (CampaignId, PolicyViolation)> {
        self.launch_in_market(rng, spec, target_matches, None)
    }

    /// Launches a campaign whose impression opportunities are resolved
    /// through a competing-demand marketplace.
    ///
    /// Identical to [`CampaignManager::launch`] except that delivery goes
    /// through [`simulate_delivery_in`] with `market`; passing `None` (or
    /// a market that reports [`crate::delivery::Contention::NONE`]) keeps
    /// the result bit-identical to the isolated launch path — the RNG is
    /// consumed in exactly the same order.
    pub fn launch_in_market<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        spec: CampaignSpec,
        target_matches: bool,
        market: Option<&dyn ImpressionMarket>,
    ) -> Result<CampaignId, (CampaignId, PolicyViolation)> {
        let id = CampaignId(self.campaigns.len() as u64);
        let analysis = self.analyzer.analyze_campaign(&spec);
        let preflight = self.policy.evaluate_static(&spec, &analysis);
        if let StaticDecision::Reject(violation) = preflight {
            self.static_rejections += 1;
            self.campaigns.push(CampaignRecord {
                spec,
                state: CampaignState::Rejected(violation.clone()),
                report: None,
            });
            return Err((id, violation));
        }
        let true_reach = self.api.true_reach(&spec.targeting);
        if preflight != StaticDecision::Accept {
            if let Err(violation) = self.policy.evaluate(&spec, true_reach) {
                self.campaigns.push(CampaignRecord {
                    spec,
                    state: CampaignState::Rejected(violation.clone()),
                    report: None,
                });
                return Err((id, violation));
            }
        }
        let audience = MatchedAudience::realize(rng, true_reach, target_matches);
        let report = simulate_delivery_in(
            &self.model,
            audience,
            &spec.schedule,
            spec.daily_budget_eur,
            rng.gen(),
            market,
        );
        self.campaigns.push(CampaignRecord {
            spec,
            state: CampaignState::Active,
            report: Some(report),
        });
        Ok(id)
    }

    /// Stops a running campaign.
    pub fn stop(&mut self, id: CampaignId) {
        if let Some(record) = self.campaigns.get_mut(id.0 as usize) {
            if record.state == CampaignState::Active {
                record.state = CampaignState::Stopped;
            }
        }
    }

    /// Campaign state.
    pub fn state(&self, id: CampaignId) -> Option<&CampaignState> {
        self.campaigns.get(id.0 as usize).map(|r| &r.state)
    }

    /// Dashboard stats: the campaign's delivery report (None while
    /// rejected).
    pub fn dashboard(&self, id: CampaignId) -> Option<&DeliveryReport> {
        self.campaigns.get(id.0 as usize).and_then(|r| r.report.as_ref())
    }

    /// The launched spec.
    pub fn spec(&self, id: CampaignId) -> Option<&CampaignSpec> {
        self.campaigns.get(id.0 as usize).map(|r| &r.spec)
    }

    /// Number of campaigns (any state).
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// Whether no campaign has been launched.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CurrentFbPolicy;
    use crate::reach::ReportingEra;
    use fbsim_population::{InterestId, World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(17)).unwrap())
    }

    fn spec(interests: Vec<InterestId>) -> CampaignSpec {
        CampaignSpec {
            name: "test".into(),
            targeting: TargetingSpec::builder().worldwide().interests(interests).build().unwrap(),
            creativity: Creativity {
                title: "User 1 — test".into(),
                landing_url: "https://fdvt.example/landing/1".into(),
            },
            daily_budget_eur: 10.0,
            schedule: Schedule::paper_experiment(),
        }
    }

    #[test]
    fn paper_schedule_is_33_hours_4_windows() {
        let s = Schedule::paper_experiment();
        assert_eq!(s.windows().len(), 4);
        assert!((s.active_hours() - 33.0).abs() < 1e-9);
        assert_eq!(s.calendar_days(), 4);
    }

    #[test]
    fn schedule_validation() {
        assert!(Schedule::new(vec![]).is_err());
        assert!(Schedule::new(vec![(0.0, 0.0)]).is_err());
        assert!(Schedule::new(vec![(2.0, 1.0)]).is_err());
        assert!(Schedule::new(vec![(0.0, 5.0), (4.0, 6.0)]).is_err());
        assert!(Schedule::new(vec![(0.0, 5.0), (5.0, 6.0)]).is_ok());
        assert!(Schedule::new(vec![(f64::NAN, 5.0)]).is_err());
    }

    #[test]
    fn active_to_wall_maps_through_gaps() {
        let s = Schedule::paper_experiment();
        // 1 active hour -> wall hour 1 (inside first window).
        assert!((s.active_to_wall(1.0).unwrap() - 1.0).abs() < 1e-9);
        // 3 active hours -> 1 hour into the second window (starts at 14).
        assert!((s.active_to_wall(3.0).unwrap() - 15.0).abs() < 1e-9);
        // Beyond 33 active hours: None.
        assert!(s.active_to_wall(34.0).is_none());
    }

    #[test]
    fn launch_and_dashboard() {
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut mgr = CampaignManager::new(api, CurrentFbPolicy, DeliveryModel::default());
        let mut rng = StdRng::seed_from_u64(5);
        let id = mgr.launch(&mut rng, spec(vec![InterestId(1)]), false).unwrap();
        assert_eq!(mgr.state(id), Some(&CampaignState::Active));
        let report = mgr.dashboard(id).unwrap();
        assert!(report.impressions > 0);
        mgr.stop(id);
        assert_eq!(mgr.state(id), Some(&CampaignState::Stopped));
    }

    #[test]
    fn rejected_campaign_has_no_report() {
        use crate::policy::InterestCapPolicy;
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut mgr = CampaignManager::new(
            api,
            InterestCapPolicy::paper_proposal(),
            DeliveryModel::default(),
        );
        let mut rng = StdRng::seed_from_u64(6);
        let result = mgr.launch(&mut rng, spec((0..12).map(InterestId).collect()), true);
        let (id, violation) = result.unwrap_err();
        assert!(matches!(violation, PolicyViolation::TooManyInterests { .. }));
        assert!(mgr.dashboard(id).is_none());
        assert!(matches!(mgr.state(id), Some(CampaignState::Rejected(_))));
    }

    #[test]
    fn preflight_rejects_provably_small_campaign_without_reach_engine() {
        use crate::policy::MinActiveAudiencePolicy;
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut mgr = CampaignManager::new(
            api,
            MinActiveAudiencePolicy::paper_proposal(),
            DeliveryModel::default(),
        );
        // An interest id far outside the catalog: the reach engine would
        // panic on it (`InterestCatalog::interest` indexes unchecked), so a
        // clean rejection is proof the engine was never consulted.
        let bogus = InterestId(world().catalog().len() as u32 + 1_000_000);
        let doomed = CampaignSpec {
            targeting: TargetingSpec::builder().worldwide().interest(bogus).build().unwrap(),
            ..spec(vec![])
        };
        let mut rng = StdRng::seed_from_u64(11);
        let (id, violation) = mgr.launch(&mut rng, doomed, false).unwrap_err();
        assert!(matches!(violation, PolicyViolation::AudienceTooSmall { active: 0, .. }));
        assert!(matches!(mgr.state(id), Some(CampaignState::Rejected(_))));
        assert_eq!(mgr.static_rejections(), 1);
    }

    #[test]
    fn catalog_preflight_defers_interval_decisions_to_dynamic_check() {
        use crate::policy::MinActiveAudiencePolicy;
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        // A minimum no audience can meet: the catalog-marginal interval
        // alone would "prove" a rejection, but those marginals are
        // advisory, so the verdict must come from the dynamic true-reach
        // path instead of the static pre-flight.
        let mut mgr = CampaignManager::new(
            api,
            MinActiveAudiencePolicy { min_active: 1_000_000_000 },
            DeliveryModel::default(),
        );
        let mut rng = StdRng::seed_from_u64(14);
        let (id, violation) = mgr.launch(&mut rng, spec(vec![InterestId(1)]), false).unwrap_err();
        assert!(matches!(violation, PolicyViolation::AudienceTooSmall { .. }));
        assert!(matches!(mgr.state(id), Some(CampaignState::Rejected(_))));
        assert_eq!(mgr.static_rejections(), 0);
    }

    #[test]
    fn preflight_counts_only_static_rejections() {
        use crate::policy::InterestCapPolicy;
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut mgr = CampaignManager::new(
            api,
            InterestCapPolicy::paper_proposal(),
            DeliveryModel::default(),
        );
        let mut rng = StdRng::seed_from_u64(12);
        // Cap violations are fully static.
        assert!(mgr.launch(&mut rng, spec((0..12).map(InterestId).collect()), false).is_err());
        assert_eq!(mgr.static_rejections(), 1);
        // A compliant campaign launches and does not bump the counter.
        assert!(mgr.launch(&mut rng, spec(vec![InterestId(1)]), false).is_ok());
        assert_eq!(mgr.static_rejections(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut mgr = CampaignManager::new(api, CurrentFbPolicy, DeliveryModel::default());
        let mut rng = StdRng::seed_from_u64(7);
        let a = mgr.launch(&mut rng, spec(vec![InterestId(1)]), false).unwrap();
        let b = mgr.launch(&mut rng, spec(vec![InterestId(2)]), false).unwrap();
        assert_eq!(a, CampaignId(0));
        assert_eq!(b, CampaignId(1));
        assert_eq!(mgr.len(), 2);
    }
}
