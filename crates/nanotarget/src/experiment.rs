//! Running the 21-campaign experiment — Table 2.

use fbsim_adplatform::campaign::{CampaignId, CampaignManager};
use fbsim_adplatform::delivery::{DeliveryModel, ImpressionMarket};
use fbsim_adplatform::policy::CurrentFbPolicy;
use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_adplatform::transparency::WhyAmISeeingThis;
use fbsim_population::{MaterializedUser, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::plan::{CampaignPlan, ExperimentPlan, PlanError};
use crate::validate::{validate_campaign, NanotargetingVerdict, ValidationSignals};
use crate::weblog::ClickLog;

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed (plan randomisation, delivery, click IPs).
    pub seed: u64,
    /// Secret key for IP pseudonymisation in the click log.
    pub ip_secret_key: u64,
    /// Delivery-model constants.
    pub delivery: DeliveryModel,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self { seed: 20_201_029, ip_secret_key: 0x5EC2E7, delivery: DeliveryModel::default() }
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Target user (0-based).
    pub user_index: usize,
    /// Interests in the campaign.
    pub interest_count: usize,
    /// "Seen": the target received the ad.
    pub seen: bool,
    /// "Reached": unique users reached.
    pub reached: u64,
    /// "Impressions": total impressions delivered.
    pub impressions: u64,
    /// "TFI": time to the target's first impression, active hours.
    pub tfi_hours: Option<f64>,
    /// "Cost": euros billed (0.0 renders as "Free").
    pub cost_eur: f64,
    /// "Clicks": total clicks.
    pub clicks: u64,
    /// Unique pseudonymised IPs among the clicks (parenthesised in the
    /// paper's table).
    pub unique_click_ips: u64,
    /// The three validation signals.
    pub signals: ValidationSignals,
    /// Final verdict.
    pub verdict: NanotargetingVerdict,
}

impl Table2Row {
    /// Formats the TFI like the paper ("2h 11'", "47'", or "-").
    pub fn tfi_display(&self) -> String {
        match self.tfi_hours {
            None => "-".to_string(),
            Some(t) => {
                let hours = t.floor() as u64;
                let minutes = ((t - hours as f64) * 60.0).round() as u64;
                if hours == 0 {
                    format!("{minutes}'")
                } else {
                    format!("{hours}h {minutes}'")
                }
            }
        }
    }

    /// Formats the cost ("Free" below one cent, like FB's billing).
    pub fn cost_display(&self) -> String {
        if self.cost_eur < 0.005 {
            "Free".to_string()
        } else {
            format!("\u{20ac}{:.2}", self.cost_eur)
        }
    }
}

/// The full experiment outcome.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The plan that was executed.
    pub plan: ExperimentPlan,
    /// One row per campaign, in plan order.
    pub rows: Vec<Table2Row>,
    /// The shared click log across all landing pages.
    pub click_log: ClickLog,
}

impl ExperimentResult {
    /// Campaigns that successfully nanotargeted their user.
    pub fn successes(&self) -> Vec<&Table2Row> {
        self.rows.iter().filter(|r| r.verdict == NanotargetingVerdict::Success).collect()
    }

    /// Total experiment cost in euros.
    pub fn total_cost(&self) -> f64 {
        self.rows.iter().map(|r| r.cost_eur).sum()
    }

    /// Cost of the successful campaigns only (the paper: €0.12 overall).
    pub fn success_cost(&self) -> f64 {
        self.successes().iter().map(|r| r.cost_eur).sum()
    }

    /// Renders the paper's Table 2 layout, one block per user.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let users: Vec<usize> = {
            let mut u: Vec<usize> = self.rows.iter().map(|r| r.user_index).collect();
            u.sort_unstable();
            u.dedup();
            u
        };
        for user in users {
            out.push_str(&format!("User {}\n", user + 1));
            out.push_str("interests | Seen | Reached | Impressions | TFI | Cost | Clicks\n");
            for row in self.rows.iter().filter(|r| r.user_index == user) {
                let star = if row.verdict == NanotargetingVerdict::Success { " *" } else { "" };
                out.push_str(&format!(
                    "{:>9} | {:>4} | {:>7} | {:>11} | {:>8} | {:>7} | {} ({}){star}\n",
                    row.interest_count,
                    if row.seen { "Yes" } else { "No" },
                    row.reached,
                    row.impressions,
                    row.tfi_display(),
                    row.cost_display(),
                    row.clicks,
                    row.unique_click_ips,
                ));
            }
            out.push('\n');
        }
        out.push_str("* = successful nanotargeting (ad delivered exclusively to the target)\n");
        out
    }
}

/// Runs the full experiment against a world with isolated (market-free)
/// pricing, exactly as the paper's campaigns were priced in the original
/// model.
///
/// # Errors
///
/// Fails if a target has fewer than 22 interests.
pub fn run_experiment(
    world: &World,
    targets: &[&MaterializedUser],
    config: &ExperimentConfig,
) -> Result<ExperimentResult, PlanError> {
    run_experiment_in(world, targets, config, None)
}

/// Runs the full experiment with impressions resolved through a marketplace
/// (`None` reproduces [`run_experiment`] bit-for-bit — the zero-competition
/// contract).
///
/// # Errors
///
/// Fails if a target has fewer than 22 interests.
pub fn run_experiment_in(
    world: &World,
    targets: &[&MaterializedUser],
    config: &ExperimentConfig,
    market: Option<&dyn ImpressionMarket>,
) -> Result<ExperimentResult, PlanError> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7A26E7);
    let plan = {
        let _span = uof_telemetry::span!("nanotarget.plan", targets = targets.len());
        ExperimentPlan::build(targets, &mut rng)?
    };
    // The experiment ran in late 2020: the Post2018 reporting era (the floor
    // does not matter for delivery, only for what the advertiser sees).
    let api = AdsManagerApi::new(world, ReportingEra::Post2018);
    let mut manager = CampaignManager::new(api, CurrentFbPolicy, config.delivery.clone());
    let mut click_log = ClickLog::new();
    let mut rows = Vec::with_capacity(plan.campaigns.len());

    for campaign in &plan.campaigns {
        let _campaign_span = uof_telemetry::span!(
            "nanotarget.campaign",
            user = campaign.user_index,
            interests = campaign.interest_count,
        );
        let (id, report) = {
            let _span = uof_telemetry::span!("nanotarget.launch");
            let id = manager
                .launch_in_market(&mut rng, campaign.spec.clone(), true, market)
                // lint:allow(no-unwrap) — invariant: CurrentFbPolicy accepts every spec by definition
                .expect("CurrentFbPolicy never rejects");
            // lint:allow(no-unwrap) — invariant: the campaign was launched two lines above
            let report = manager.dashboard(id).expect("active campaign has a report").clone();
            (id, report)
        };
        {
            let _span = uof_telemetry::span!("nanotarget.simulate_clicks");
            simulate_clicks(&mut click_log, campaign, &report, config, &mut rng);
        }
        let _span = uof_telemetry::span!("nanotarget.validate");
        let snapshot = report
            .target_seen
            .then(|| WhyAmISeeingThis::for_campaign(id, &campaign.spec, world.catalog()));
        let (verdict, signals) = validate_campaign(
            &report,
            &campaign.spec,
            world.catalog(),
            &click_log,
            snapshot.as_ref(),
        );
        manager.stop(id);
        drop(_span);
        rows.push(Table2Row {
            user_index: campaign.user_index,
            interest_count: campaign.interest_count,
            seen: report.target_seen,
            reached: report.reached,
            impressions: report.impressions,
            tfi_hours: report.time_to_first_impression_hours,
            cost_eur: report.cost_eur,
            clicks: report.clicks,
            unique_click_ips: report.unique_click_ips,
            signals,
            verdict,
        });
    }
    // Stop ids exist implicitly; keep the manager's final state out of the
    // result (the rows carry everything Table 2 needs).
    let _ = CampaignId(0);
    Ok(ExperimentResult { plan, rows, click_log })
}

/// Materialises the click log entries implied by a delivery report: the
/// target clicks every impression they received (experiment protocol, from
/// their own IPs), background clickers hit the landing page once each.
fn simulate_clicks(
    log: &mut ClickLog,
    campaign: &CampaignPlan,
    report: &fbsim_adplatform::delivery::DeliveryReport,
    config: &ExperimentConfig,
    rng: &mut StdRng,
) {
    let url = &campaign.spec.creativity.landing_url;
    // Target clicks: first at the TFI, later ones spread over the campaign.
    if report.target_seen {
        let tfi = report.time_to_first_impression_hours.unwrap_or(0.0);
        let target_ip = [10, 0, campaign.user_index as u8 + 1, 1];
        for k in 0..report.target_impressions {
            let t = if k == 0 { tfi } else { tfi + rng.gen::<f64>() * (33.0 - tfi).max(0.1) };
            log.record(url, t, target_ip, config.ip_secret_key);
        }
    }
    // Background clicks from distinct random IPs.
    let background = report.clicks.saturating_sub(report.target_impressions);
    for _ in 0..background {
        let ip = [rng.gen::<u8>() | 1, rng.gen(), rng.gen(), rng.gen()];
        log.record(url, rng.gen::<f64>() * 33.0, ip, config.ip_secret_key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::WorldConfig;
    use std::sync::OnceLock;

    fn result() -> &'static ExperimentResult {
        static RESULT: OnceLock<ExperimentResult> = OnceLock::new();
        RESULT.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(13)).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let targets: Vec<MaterializedUser> = (0..3)
                .map(|_| world.materializer().sample_user_with_count(&mut rng, 120))
                .collect();
            let refs: Vec<&MaterializedUser> = targets.iter().collect();
            run_experiment(&world, &refs, &ExperimentConfig::default()).unwrap()
        })
    }

    #[test]
    fn twenty_one_rows() {
        assert_eq!(result().rows.len(), 21);
    }

    #[test]
    fn reached_decreases_with_interest_count() {
        // Within each user, more interests → (weakly) fewer users reached,
        // comparing the extremes which are orders of magnitude apart.
        for user in 0..3 {
            let rows: Vec<&Table2Row> =
                result().rows.iter().filter(|r| r.user_index == user).collect();
            let at5 = rows.iter().find(|r| r.interest_count == 5).unwrap().reached;
            let at22 = rows.iter().find(|r| r.interest_count == 22).unwrap().reached;
            assert!(at22 <= at5, "user {user}: reached(22)={at22} > reached(5)={at5}");
        }
    }

    #[test]
    fn success_group_dominates_successes() {
        let successes = result().successes();
        assert!(!successes.is_empty(), "expected some successful nanotargeting");
        // Scale-independent shape: success requires many interests (the
        // paper's cutoff of 12+ holds at paper scale; the 100× smaller test
        // world shifts it slightly lower) and the Success Group out-succeeds
        // the Failure Group.
        for s in &successes {
            assert!(s.interest_count >= 9, "success at {} interests", s.interest_count);
        }
        let in_success_group = successes.iter().filter(|s| s.interest_count >= 12).count();
        assert!(in_success_group * 2 >= successes.len());
    }

    #[test]
    fn successes_are_cheap() {
        // Paper: overall cost of the 9 successful campaigns was €0.12.
        let cost = result().success_cost();
        let n = result().successes().len() as f64;
        assert!(cost <= 0.2 * n, "successes cost {cost} for {n} campaigns");
    }

    #[test]
    fn successful_rows_have_all_signals() {
        for row in result().successes() {
            assert!(row.signals.dashboard_reached_one);
            assert!(row.signals.click_logged);
            assert!(row.signals.snapshot_matches);
            assert_eq!(row.reached, 1);
            assert!(row.seen);
        }
    }

    #[test]
    fn click_log_covers_every_seen_campaign() {
        let r = result();
        for (campaign, row) in r.plan.campaigns.iter().zip(&r.rows) {
            if row.seen {
                assert!(
                    r.click_log.click_count(&campaign.spec.creativity.landing_url) > 0,
                    "seen campaign without click log entry"
                );
            }
        }
    }

    #[test]
    fn render_contains_all_users_and_marker() {
        let text = result().render();
        assert!(text.contains("User 1"));
        assert!(text.contains("User 3"));
        assert!(text.contains("successful nanotargeting"));
    }

    #[test]
    fn tfi_and_cost_formatting() {
        let row = Table2Row {
            user_index: 0,
            interest_count: 20,
            seen: true,
            reached: 1,
            impressions: 1,
            tfi_hours: Some(2.1833),
            cost_eur: 0.0,
            clicks: 1,
            unique_click_ips: 1,
            signals: ValidationSignals {
                dashboard_reached_one: true,
                click_logged: true,
                snapshot_matches: true,
            },
            verdict: NanotargetingVerdict::Success,
        };
        assert_eq!(row.tfi_display(), "2h 11'");
        assert_eq!(row.cost_display(), "Free");
        let row2 = Table2Row { tfi_hours: Some(0.7833), cost_eur: 0.01, ..row };
        assert_eq!(row2.tfi_display(), "47'");
        assert_eq!(row2.cost_display(), "€0.01");
        let row3 = Table2Row { tfi_hours: None, cost_eur: 28.58, ..row2 };
        assert_eq!(row3.tfi_display(), "-");
        assert_eq!(row3.cost_display(), "€28.58");
    }

    #[test]
    fn deterministic_for_seed() {
        let world = World::generate(WorldConfig::test_scale(13)).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let targets: Vec<MaterializedUser> =
            (0..3).map(|_| world.materializer().sample_user_with_count(&mut rng, 120)).collect();
        let refs: Vec<&MaterializedUser> = targets.iter().collect();
        let a = run_experiment(&world, &refs, &ExperimentConfig::default()).unwrap();
        let b = run_experiment(&world, &refs, &ExperimentConfig::default()).unwrap();
        assert_eq!(a.rows, b.rows);
    }
}
