//! Discrete-event ad delivery.
//!
//! The simulator generates, per campaign, exactly the observables the
//! paper's Table 2 reports: whether the pinned target saw the ad, unique
//! users reached, total impressions, time-to-first-impression (TFI, in
//! *active* campaign hours, as the paper measures it), billed cost, and
//! clicks with unique pseudonymised IPs.
//!
//! ## Model
//!
//! * The **matched audience** is a realisation of the targeting spec's true
//!   expected reach: the pinned target (if their interest list matches) plus
//!   `Poisson(max(reach − 1, 0))` other users.
//! * **Supply**: every matched user browses FB as a Poisson session process
//!   (default 0.2 sessions per active hour); the campaign wins a session's
//!   ad slot with the auction win rate, and frequency caps bound impressions
//!   per user.
//! * **Demand**: total impressions are additionally capped by budget /
//!   cost-per-impression with a pacing-utilisation factor.
//! * **Cost**: the CPM follows the power law fitted to Table 2,
//!   `CPM(€) ≈ 850 / audience^0.78`, clamped to `[0.1, 10]` and jittered
//!   log-normally — which reproduces both the €0.115–0.68 CPMs of the broad
//!   campaigns and the cents-or-free bills of the 1-impression nanotargeting
//!   campaigns. Billing rounds to cents; a sub-cent total shows as free.
//! * **Clicks**: the pinned target clicks every impression they receive
//!   (the experiment protocol); other users click at the empirical ~0.095%
//!   CTR of the paper's broad campaigns. Unique IPs are clicks minus
//!   occasional same-user-multiple-IP and shared-IP collisions.
//!
//! The target user's own impressions are simulated event-by-event (their
//! session times drive Seen and TFI); the rest of the audience is simulated
//! in aggregate.

use fbsim_stats::dist::poisson;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::campaign::Schedule;

/// Tunable constants of the delivery process. Defaults are fitted to the
/// paper's Table 2 as described in the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryModel {
    /// Sessions per active hour per user.
    pub session_rate_per_hour: f64,
    /// Probability the campaign wins a given session's ad slot.
    pub auction_win_rate: f64,
    /// Maximum impressions per user per 24 h of active time.
    pub frequency_cap_per_day: f64,
    /// CPM power-law coefficient: `CPM = cpm_coefficient / audience^cpm_exponent`.
    pub cpm_coefficient: f64,
    /// CPM power-law exponent.
    pub cpm_exponent: f64,
    /// CPM clamp range in euros.
    pub cpm_min: f64,
    /// CPM clamp range in euros.
    pub cpm_max: f64,
    /// log10 standard deviation of the per-campaign CPM jitter.
    pub cpm_jitter_sigma: f64,
    /// Fraction of the nominal budget FB's pacing actually spends.
    pub pacing_utilization: f64,
    /// Click-through rate of non-target users.
    pub background_ctr: f64,
    /// Probability a clicker produces one extra distinct IP (multi-device).
    pub extra_ip_rate: f64,
    /// Probability two clicks collapse onto a shared IP (NAT).
    pub shared_ip_rate: f64,
    /// Probability that delivery *expands* a narrow audience (< 50 matched
    /// users) with non-matching users — the spillover visible in the
    /// paper's Table 2, where one 18-interest campaign reached 92 users.
    pub narrow_expansion_rate: f64,
    /// Mean number of extra users delivered to when expansion happens.
    pub narrow_expansion_mean: f64,
}

impl Default for DeliveryModel {
    fn default() -> Self {
        Self {
            session_rate_per_hour: 0.2,
            auction_win_rate: 0.5,
            frequency_cap_per_day: 6.0,
            cpm_coefficient: 850.0,
            cpm_exponent: 0.78,
            cpm_min: 0.1,
            cpm_max: 10.0,
            cpm_jitter_sigma: 0.15,
            pacing_utilization: 0.75,
            background_ctr: 0.00095,
            extra_ip_rate: 0.05,
            shared_ip_rate: 0.05,
            narrow_expansion_rate: 0.15,
            narrow_expansion_mean: 80.0,
        }
    }
}

/// The matched audience a campaign delivers into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedAudience {
    /// Whether the pinned target user matches the targeting spec.
    pub target_matches: bool,
    /// Number of *other* matched users.
    pub others: u64,
}

impl MatchedAudience {
    /// Realises a matched audience from an expected true reach, pinning the
    /// target (who is known to match when their own interests were used).
    ///
    /// The expected reach of the population model *includes* the probability
    /// mass of target-like users, so the other-user count draws from
    /// `Poisson(max(reach − 1, 0))`.
    pub fn realize<R: Rng + ?Sized>(
        rng: &mut R,
        expected_reach: f64,
        target_matches: bool,
    ) -> Self {
        let others_mean =
            if target_matches { (expected_reach - 1.0).max(0.0) } else { expected_reach.max(0.0) };
        Self { target_matches, others: poisson(rng, others_mean) }
    }

    /// Total matched users.
    pub fn total(&self) -> u64 {
        self.others + u64::from(self.target_matches)
    }
}

/// Per-campaign delivery outcome — one row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryReport {
    /// Whether the pinned target received the ad at least once ("Seen").
    pub target_seen: bool,
    /// Unique users reached (dashboard "Reached").
    pub reached: u64,
    /// Total impressions delivered.
    pub impressions: u64,
    /// Impressions delivered to the pinned target.
    pub target_impressions: u64,
    /// Time to the target's first impression, in **active campaign hours**
    /// (the paper counts only periods when the campaign was running).
    pub time_to_first_impression_hours: Option<f64>,
    /// Billed cost in euros, rounded to cents (0.0 renders as "Free").
    pub cost_eur: f64,
    /// Total ad clicks.
    pub clicks: u64,
    /// Distinct pseudonymised IPs among the clicks (upper bound on distinct
    /// clicking users).
    pub unique_click_ips: u64,
}

impl DeliveryReport {
    /// Whether this campaign *nanotargeted* its user under the paper's
    /// definition: the ad was delivered **exclusively** to the target.
    pub fn nanotargeting_success(&self) -> bool {
        self.target_seen && self.reached == 1
    }
}

/// How competing demand reshapes one campaign's delivery, summarised as two
/// multiplicative factors applied to the isolated-pricing model.
///
/// The factors compose with the legacy model as pure multiplications —
/// `effective_win_rate = auction_win_rate × win_rate_factor` and
/// `effective_price = house_price × price_factor` — so
/// [`Contention::NONE`] (both factors exactly `1.0`) leaves every
/// downstream f64 bit-identical (`x * 1.0 == x` in IEEE-754) and the
/// delivery RNG stream untouched. That is the zero-competition
/// equivalence contract pinned by `tests/marketplace_equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// Fraction of otherwise-won impression opportunities the campaign
    /// still wins under competition (in `[0, 1]`).
    pub win_rate_factor: f64,
    /// Average clearing price over won opportunities relative to the
    /// isolated house price (≥ 1: competition never discounts).
    pub price_factor: f64,
}

impl Contention {
    /// No competing demand: both factors exactly `1.0`.
    pub const NONE: Contention = Contention { win_rate_factor: 1.0, price_factor: 1.0 };

    /// Clamps the factors into their contracts (win rate in `[0, 1]`,
    /// price never discounted, non-finite degrades to neutral). `NONE`
    /// maps to `NONE` bit-identically.
    #[must_use]
    pub fn sanitized(self) -> Contention {
        let win = if self.win_rate_factor.is_finite() {
            self.win_rate_factor.clamp(0.0, 1.0)
        } else {
            1.0
        };
        let price = if self.price_factor.is_finite() { self.price_factor.max(1.0) } else { 1.0 };
        Contention { win_rate_factor: win, price_factor: price }
    }

    /// The IEEE-754 bit pattern of `1.0f64` (pinned by test); comparing
    /// bits rather than values keeps `-0.0`/rounding subtleties out of the
    /// neutrality check.
    const ONE_BITS: u64 = 0x3FF0_0000_0000_0000;

    /// Whether this is exactly the neutral contention (bitwise).
    pub fn is_none(&self) -> bool {
        self.win_rate_factor.to_bits() == Self::ONE_BITS
            && self.price_factor.to_bits() == Self::ONE_BITS
    }
}

/// A source of competing demand for impression opportunities.
///
/// Implemented by `fbsim-marketplace::Marketplace`; the delivery simulator
/// stays decoupled from the marketplace crate through this trait. The
/// `seed` is derived from the campaign's delivery seed (never drawn from
/// the delivery RNG, which would desync the legacy stream), so a market
/// summary is deterministic per `(market, campaign)` pair and independent
/// of thread count.
pub trait ImpressionMarket {
    /// Summarises competition faced by a campaign whose isolated house
    /// price per impression is `base_price_eur` and which is willing to
    /// pay at most `bid_cap_eur` per impression.
    fn contention(&self, base_price_eur: f64, bid_cap_eur: f64, seed: u64) -> Contention;
}

/// Simulates delivery of one campaign priced in isolation (no competing
/// demand). Equivalent to [`simulate_delivery_in`] with no market.
///
/// `audience` is the realised matched audience, `schedule` the campaign's
/// active windows, `daily_budget_eur` the configured daily budget and
/// `calendar_days` how many distinct calendar days the schedule spans
/// (pacing allocates budget per day).
pub fn simulate_delivery(
    model: &DeliveryModel,
    audience: MatchedAudience,
    schedule: &Schedule,
    daily_budget_eur: f64,
    seed: u64,
) -> DeliveryReport {
    simulate_delivery_in(model, audience, schedule, daily_budget_eur, seed, None)
}

/// XOR'd into the delivery seed to derive the marketplace summary seed, so
/// the market's Monte-Carlo stream is independent of (and invisible to)
/// the delivery RNG stream.
const MARKET_SEED_SALT: u64 = 0xA0C7_10B5;

/// Simulates delivery of one campaign, resolving impression opportunities
/// through `market` when one is supplied.
///
/// With `market = None` (or a market that reports [`Contention::NONE`],
/// e.g. a marketplace with zero background campaigns) the result is
/// bit-identical to [`simulate_delivery`]: contention enters only as
/// multiplications by exactly `1.0` and the market summary uses a seed
/// derived by XOR rather than an extra RNG draw.
pub fn simulate_delivery_in(
    model: &DeliveryModel,
    audience: MatchedAudience,
    schedule: &Schedule,
    daily_budget_eur: f64,
    seed: u64,
    market: Option<&dyn ImpressionMarket>,
) -> DeliveryReport {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE11_7E2C);
    let active_hours = schedule.active_hours();
    let calendar_days = schedule.calendar_days() as f64;
    // Delivery-system spillover: narrow audiences are occasionally expanded
    // with non-matching users (observed in the paper's Table 2).
    let mut audience = audience;
    if audience.total() > 0
        && audience.total() < 50
        && rng.gen::<f64>() < model.narrow_expansion_rate
    {
        audience.others += poisson(&mut rng, model.narrow_expansion_mean);
    }
    let matched = audience.total();
    if matched == 0 || active_hours <= 0.0 {
        return DeliveryReport {
            target_seen: false,
            reached: 0,
            impressions: 0,
            target_impressions: 0,
            time_to_first_impression_hours: None,
            cost_eur: 0.0,
            clicks: 0,
            unique_click_ips: 0,
        };
    }

    // Per-campaign CPM with jitter.
    let cpm = {
        let raw = model.cpm_coefficient / (matched as f64).powf(model.cpm_exponent);
        let jitter =
            10f64.powf(model.cpm_jitter_sigma * fbsim_stats::dist::standard_normal(&mut rng));
        (raw * jitter).clamp(model.cpm_min, model.cpm_max)
    };
    // Competing demand: ask the marketplace how often this campaign still
    // wins an opportunity and what it pays when it does. The campaign's
    // willingness cap is the model's CPM ceiling (the house never charges
    // beyond `cpm_max`, so neither does a competed auction).
    let contention = match market {
        None => Contention::NONE,
        Some(market) => market
            .contention(cpm / 1_000.0, model.cpm_max / 1_000.0, seed ^ MARKET_SEED_SALT)
            .sanitized(),
    };
    let win_rate = model.auction_win_rate * contention.win_rate_factor;
    let cost_per_impression = cpm / 1_000.0 * contention.price_factor;

    // Supply: session-driven impression opportunities across the audience,
    // bounded by the frequency cap.
    let per_user_cap = (model.frequency_cap_per_day * active_hours / 24.0).max(1.0);
    let per_user_supply = (model.session_rate_per_hour * active_hours * win_rate).min(per_user_cap);
    let supply = matched as f64 * per_user_supply;
    // Demand: paced budget.
    let budget_cap = daily_budget_eur * calendar_days * model.pacing_utilization;
    let demand = budget_cap / cost_per_impression;
    let expected_impressions = supply.min(demand);
    // With no other matched users, every impression is the target's; the
    // aggregate draw below only models the others.
    let mut impressions =
        if audience.others == 0 { 0 } else { poisson(&mut rng, expected_impressions) };

    // Simulate the pinned target's own sessions event-by-event.
    let mut target_impressions = 0u64;
    let mut tfi: Option<f64> = None;
    if audience.target_matches {
        // The campaign's fill ratio: what fraction of each user's supply was
        // actually served (1.0 when supply-limited, <1 when budget-limited).
        let fill = if supply > 0.0 { (expected_impressions / supply).min(1.0) } else { 0.0 };
        let mut t = 0.0f64;
        let mut served = 0u64;
        loop {
            // Next session (exponential inter-arrival in active hours).
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += -u.ln() / model.session_rate_per_hour;
            if t >= active_hours {
                break;
            }
            if (served as f64) < per_user_cap && rng.gen::<f64>() < win_rate * fill {
                served += 1;
                if tfi.is_none() {
                    tfi = Some(t);
                }
            }
        }
        target_impressions = served;
    }
    impressions = impressions.max(target_impressions);

    // Unique users reached: impressions spread over the audience with a
    // per-user frequency distribution; approximate the occupancy.
    let others_impressions = impressions - target_impressions;
    let avg_freq = per_user_supply.max(1.0);
    let reached_others = if audience.others == 0 {
        0
    } else {
        let expected = (others_impressions as f64 / avg_freq)
            .min(audience.others as f64)
            .max(if others_impressions > 0 { 1.0 } else { 0.0 });
        poisson(&mut rng, expected)
            .min(audience.others)
            .min(others_impressions)
            .max(u64::from(others_impressions > 0))
    };
    let target_seen = target_impressions > 0;
    let reached = reached_others + u64::from(target_seen);

    // Billing.
    let raw_cost = impressions as f64 * cost_per_impression;
    let cost_eur = (raw_cost * 100.0).round() / 100.0;

    // Clicks: target clicks everything (experiment protocol); background
    // users click at the empirical CTR.
    let background_clicks =
        poisson(&mut rng, others_impressions as f64 * model.background_ctr).min(others_impressions);
    let clicks = background_clicks + target_impressions;

    // Unique IPs among clickers.
    let mut ips = 0u64;
    if target_impressions > 0 {
        ips += 1;
        // Target occasionally clicks from extra devices/networks.
        for _ in 1..target_impressions.min(4) {
            if rng.gen::<f64>() < 0.3 {
                ips += 1;
            }
        }
    }
    if background_clicks > 0 {
        // Roughly one clicker per click, adjusted by multi-IP users and
        // shared IPs.
        let mut bg_ips = background_clicks as f64;
        bg_ips += poisson(&mut rng, background_clicks as f64 * model.extra_ip_rate) as f64;
        bg_ips -= poisson(&mut rng, background_clicks as f64 * model.shared_ip_rate) as f64;
        ips += bg_ips.max(1.0) as u64;
    }
    let unique_click_ips = ips.min(clicks.max(u64::from(clicks > 0)));

    DeliveryReport {
        target_seen,
        reached,
        impressions,
        target_impressions,
        time_to_first_impression_hours: tfi,
        cost_eur,
        clicks,
        unique_click_ips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Schedule;

    fn paper_schedule() -> Schedule {
        Schedule::paper_experiment()
    }

    fn run(audience: MatchedAudience, seed: u64) -> DeliveryReport {
        // Most tests pin expansion off to make assertions deterministic in
        // audience size; expansion has its own test below.
        let model = DeliveryModel { narrow_expansion_rate: 0.0, ..DeliveryModel::default() };
        simulate_delivery(&model, audience, &paper_schedule(), 10.0, seed)
    }

    #[test]
    fn narrow_expansion_occasionally_spills() {
        // With expansion forced on, an audience of one is delivered to many
        // users — the paper's 18-interest / 92-reached row.
        let model = DeliveryModel { narrow_expansion_rate: 1.0, ..DeliveryModel::default() };
        let report = simulate_delivery(
            &model,
            MatchedAudience { target_matches: true, others: 0 },
            &paper_schedule(),
            10.0,
            5,
        );
        assert!(report.reached > 1, "expected spillover, reached {}", report.reached);
        assert!(!report.nanotargeting_success());
    }

    #[test]
    fn empty_audience_delivers_nothing() {
        let report = run(MatchedAudience { target_matches: false, others: 0 }, 1);
        assert_eq!(report.impressions, 0);
        assert_eq!(report.reached, 0);
        assert_eq!(report.cost_eur, 0.0);
        assert!(!report.target_seen);
        assert!(report.time_to_first_impression_hours.is_none());
    }

    #[test]
    fn nanotargeted_audience_of_one() {
        let mut successes = 0;
        for seed in 0..40 {
            let report = run(MatchedAudience { target_matches: true, others: 0 }, seed);
            if report.target_seen {
                successes += 1;
                assert_eq!(report.reached, 1);
                assert!(report.nanotargeting_success());
                assert!(report.impressions >= 1 && report.impressions <= 10);
                // Cents or free, like the paper's successful campaigns.
                assert!(report.cost_eur <= 0.2, "cost {}", report.cost_eur);
                let tfi = report.time_to_first_impression_hours.unwrap();
                assert!(tfi > 0.0 && tfi < 33.0);
                // Target clicks every impression.
                assert_eq!(report.clicks, report.target_impressions);
            }
        }
        // With ~6.6 expected sessions and a 50% win rate, the target almost
        // always sees the ad.
        assert!(successes >= 35, "only {successes}/40 seen");
    }

    #[test]
    fn broad_audience_spends_budget_and_reaches_thousands() {
        let report = run(MatchedAudience { target_matches: true, others: 3_000_000 }, 7);
        assert!(report.impressions > 10_000, "impressions {}", report.impressions);
        assert!(report.reached > 1_000, "reached {}", report.reached);
        assert!(report.reached < 3_000_000);
        // Cost should be near the paced budget cap (10 €/day × 4 days × 0.75).
        assert!(report.cost_eur > 15.0 && report.cost_eur <= 31.0, "cost {}", report.cost_eur);
        // Target is a needle in a haystack: reached/matched is small, so the
        // target usually is NOT seen — matches the paper's 5-interest rows.
        // (Probabilistic; just check the campaign didn't nanotarget.)
        assert!(!report.nanotargeting_success());
    }

    #[test]
    fn mid_audience_mostly_reaches_target() {
        // A few hundred matched users: everyone gets impressions, like the
        // paper's 12-interest rows.
        let mut seen = 0;
        for seed in 0..20 {
            let report = run(MatchedAudience { target_matches: true, others: 150 }, seed);
            assert!(report.reached <= 151);
            if report.target_seen {
                seen += 1;
            }
        }
        assert!(seen >= 15, "target seen only {seen}/20");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = run(MatchedAudience { target_matches: true, others: 500 }, 42);
        let b = run(MatchedAudience { target_matches: true, others: 500 }, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_scales_with_cpm_power_law() {
        // Narrow audiences pay a much higher CPM than broad ones.
        let model = DeliveryModel::default();
        let narrow = model.cpm_coefficient / 150f64.powf(model.cpm_exponent);
        let broad = model.cpm_coefficient / 90_000f64.powf(model.cpm_exponent);
        assert!(narrow > 10.0 * broad);
        // Check the fitted law against two Table-2 anchor points.
        assert!((narrow - 17.0).abs() < 6.0, "CPM(150) = {narrow}");
        assert!(
            (broad.clamp(model.cpm_min, model.cpm_max) - 0.12).abs() < 0.1,
            "CPM(90k) = {broad}"
        );
    }

    #[test]
    fn realize_audience_pins_target() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = MatchedAudience::realize(&mut rng, 1.0, true);
        assert!(a.target_matches);
        assert_eq!(a.total(), a.others + 1);
        let b = MatchedAudience::realize(&mut rng, 0.4, false);
        assert!(!b.target_matches);
    }

    #[test]
    fn realize_expected_reach_statistics() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 2_000;
        let total: u64 =
            (0..n).map(|_| MatchedAudience::realize(&mut rng, 101.0, true).others).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "mean others {mean}");
    }

    #[test]
    fn tfi_counted_in_active_hours() {
        for seed in 0..30 {
            let report = run(MatchedAudience { target_matches: true, others: 0 }, seed);
            if let Some(tfi) = report.time_to_first_impression_hours {
                assert!(tfi <= paper_schedule().active_hours());
            }
        }
    }

    #[test]
    fn clicks_never_exceed_impressions() {
        for seed in 0..30 {
            let report = run(MatchedAudience { target_matches: true, others: 5_000 }, seed);
            assert!(report.clicks <= report.impressions);
            assert!(report.unique_click_ips <= report.clicks.max(1));
        }
    }

    /// A market stub returning a fixed contention for every campaign.
    struct FixedMarket(Contention);

    impl ImpressionMarket for FixedMarket {
        fn contention(&self, _base: f64, _cap: f64, _seed: u64) -> Contention {
            self.0
        }
    }

    #[test]
    fn neutral_market_is_bit_identical_to_isolated_path() {
        let model = DeliveryModel::default();
        let market = FixedMarket(Contention::NONE);
        for seed in 0..25 {
            for others in [0u64, 150, 500_000] {
                let audience = MatchedAudience { target_matches: true, others };
                let isolated = simulate_delivery(&model, audience, &paper_schedule(), 10.0, seed);
                let marketed = simulate_delivery_in(
                    &model,
                    audience,
                    &paper_schedule(),
                    10.0,
                    seed,
                    Some(&market),
                );
                assert_eq!(isolated, marketed);
                assert_eq!(
                    isolated.cost_eur.to_bits(),
                    marketed.cost_eur.to_bits(),
                    "cost bits diverged at seed {seed} others {others}"
                );
            }
        }
    }

    #[test]
    fn contention_suppresses_target_wins_and_raises_prices() {
        // With others == 0 the delivery RNG stream is identical across
        // contention levels (the aggregate Poisson draw is skipped), so a
        // lower win rate can only remove target impressions, never add.
        let model = DeliveryModel { narrow_expansion_rate: 0.0, ..DeliveryModel::default() };
        let market = FixedMarket(Contention { win_rate_factor: 0.25, price_factor: 1.0 });
        let mut lost = 0u64;
        for seed in 0..60 {
            let audience = MatchedAudience { target_matches: true, others: 0 };
            let base = simulate_delivery(&model, audience, &paper_schedule(), 10.0, seed);
            let contended = simulate_delivery_in(
                &model,
                audience,
                &paper_schedule(),
                10.0,
                seed,
                Some(&market),
            );
            assert!(contended.target_impressions <= base.target_impressions);
            lost += base.target_impressions - contended.target_impressions;
        }
        assert!(lost > 0, "a 4x win-rate cut should cost some impressions");

        // A broad budget-limited campaign pays the price factor: same
        // budget buys proportionally fewer impressions.
        let market = FixedMarket(Contention { win_rate_factor: 1.0, price_factor: 3.0 });
        let audience = MatchedAudience { target_matches: false, others: 3_000_000 };
        let base = simulate_delivery(&model, audience, &paper_schedule(), 10.0, 9);
        let contended =
            simulate_delivery_in(&model, audience, &paper_schedule(), 10.0, 9, Some(&market));
        assert!(
            (contended.impressions as f64) < 0.5 * base.impressions as f64,
            "3x price should roughly third the impressions: {} vs {}",
            contended.impressions,
            base.impressions
        );
        // Both still spend ~the paced budget.
        assert!((contended.cost_eur - base.cost_eur).abs() < 0.2 * base.cost_eur.max(1.0));
    }

    #[test]
    fn sanitized_clamps_hostile_factors_and_preserves_none() {
        let none = Contention::NONE.sanitized();
        assert!(none.is_none());
        let wild = Contention { win_rate_factor: 7.0, price_factor: 0.2 }.sanitized();
        assert_eq!(wild.win_rate_factor.to_bits(), 1.0f64.to_bits());
        assert_eq!(wild.price_factor.to_bits(), 1.0f64.to_bits());
        let bad = Contention { win_rate_factor: f64::NAN, price_factor: f64::INFINITY };
        assert!(bad.sanitized().is_none());
        let real = Contention { win_rate_factor: 0.4, price_factor: 2.5 }.sanitized();
        assert!(!real.is_none());
        assert_eq!(real, Contention { win_rate_factor: 0.4, price_factor: 2.5 });
    }

    #[test]
    fn one_bits_is_the_bit_pattern_of_one() {
        assert_eq!(Contention::ONE_BITS, 1.0f64.to_bits());
    }
}
