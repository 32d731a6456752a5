//! The assembled marketplace: a paced background population plus the
//! foreground contention summary consumed by `fbsim-adplatform`'s delivery
//! simulator.

use fbsim_adplatform::delivery::{Contention, ImpressionMarket};
use fbsim_population::World;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::campaigns::{mix64, sample_population, BackgroundCampaign};
use crate::config::MarketplaceConfig;
use crate::pacing::{converge, PacingOutcome};

/// Salt for foreground contention streams (kept distinct from campaign
/// sampling and the pacing opportunity set).
const CONTENTION_SALT: u64 = 0xC047_E147;

/// A set-up marketplace: seeded background campaigns with converged pacing
/// multipliers, ready to answer foreground contention queries.
///
/// Setup runs the whole pipeline once — sample the background population
/// from the world's calibrated popularity model, then run the
/// multiplicative pacing loop to its fixed point. After setup the
/// marketplace is immutable; every [`Marketplace::contention_for`] query is
/// an independent seeded Monte-Carlo replay, so queries are deterministic,
/// order-independent, and thread-count invariant.
pub struct Marketplace {
    config: MarketplaceConfig,
    campaigns: Vec<BackgroundCampaign>,
    pacing: PacingOutcome,
}

impl Marketplace {
    /// Samples the background population and converges its pacing.
    ///
    /// # Errors
    ///
    /// Returns the [`MarketplaceConfig::validate`] message for an invalid
    /// config.
    pub fn setup(world: &World, config: MarketplaceConfig) -> Result<Self, String> {
        config.validate()?;
        let _span = uof_telemetry::span!("market.setup", campaigns = config.n_campaigns as u64);
        let campaigns = sample_population(world.catalog(), world.population(), &config);
        let pacing = converge(&campaigns, &config);
        Ok(Self { config, campaigns, pacing })
    }

    /// The marketplace configuration.
    pub fn config(&self) -> &MarketplaceConfig {
        &self.config
    }

    /// The background campaign population.
    pub fn campaigns(&self) -> &[BackgroundCampaign] {
        &self.campaigns
    }

    /// The converged pacing outcome (empty for a zero-campaign market).
    pub fn pacing(&self) -> &PacingOutcome {
        &self.pacing
    }

    /// Summarises the competition a foreground campaign faces, by seeded
    /// Monte-Carlo over `auction_samples` impression opportunities drawn
    /// from the campaign's matched audience.
    ///
    /// Per opportunity, each background campaign is eligible with its
    /// audience-fraction probability (its audience and the foreground
    /// audience are treated as independent) and shows up with its pacing
    /// throttle's probability. A competitor that shows up is willing to pay
    /// its full private value — a truthful bidder stands there, a last-look
    /// bidder can raise there. The foreground campaign wins when its
    /// willingness cap `bid_cap_eur` meets the field's best willingness,
    /// and pays second-price-versus-the-field semantics: the beaten
    /// willingness, floored at its own house price `base_price_eur`.
    ///
    /// **Zero-competition equivalence:** with no background campaigns, or
    /// when no sampled opportunity was contested above the house price,
    /// this returns [`Contention::NONE`] *exactly* — no averaging — so
    /// delivery through the market is bit-identical to the isolated path.
    pub fn contention_for(&self, base_price_eur: f64, bid_cap_eur: f64, seed: u64) -> Contention {
        let priced = base_price_eur > 0.0; // false for NaN too
        if self.campaigns.is_empty() || !priced || !bid_cap_eur.is_finite() {
            return Contention::NONE;
        }
        let _span = uof_telemetry::span!(
            "market.contention",
            campaigns = self.campaigns.len() as u64,
            samples = self.config.auction_samples as u64,
        );
        let mut rng = StdRng::seed_from_u64(mix64(self.config.seed ^ CONTENTION_SALT ^ seed));
        let samples = self.config.auction_samples;
        let mut wins = 0u64;
        let mut contested_wins = 0u64;
        let mut losses = 0u64;
        let mut contested = 0u64;
        let mut price_sum = 0.0f64;
        for _ in 0..samples {
            // Best effective willingness among the eligible field.
            let mut price_to_beat = 0.0f64;
            let mut any = false;
            for (j, c) in self.campaigns.iter().enumerate() {
                if rng.gen::<f64>() < c.audience_fraction
                    && rng.gen::<f64>() < self.pacing.multipliers[j]
                {
                    any = true;
                    // Same idiosyncratic per-impression value jitter as the
                    // background rounds (user-ad match quality).
                    let jitter = 1.0 + 0.1 * (rng.gen::<f64>() - 0.5);
                    price_to_beat = price_to_beat.max(c.value_per_impression_eur * jitter);
                }
            }
            contested += u64::from(any);
            if price_to_beat > bid_cap_eur {
                losses += 1;
            } else {
                wins += 1;
                if price_to_beat > base_price_eur {
                    contested_wins += 1;
                    price_sum += price_to_beat;
                } else {
                    price_sum += base_price_eur;
                }
            }
        }
        let tele = uof_telemetry::global();
        tele.count("market.auctions", samples as u64);
        tele.count("market.auctions.contested", contested);
        tele.count("market.auctions.lost", losses);
        // Exact fast path: competition never actually bit, so the factors
        // are 1.0 by construction — return the constant rather than the
        // arithmetic result to make the bit-identity contract self-evident.
        if losses == 0 && contested_wins == 0 {
            return Contention::NONE;
        }
        let win_rate_factor = wins as f64 / samples as f64;
        let price_factor = if wins == 0 { 1.0 } else { (price_sum / wins as f64) / base_price_eur };
        Contention { win_rate_factor, price_factor }
    }
}

impl ImpressionMarket for Marketplace {
    fn contention(&self, base_price_eur: f64, bid_cap_eur: f64, seed: u64) -> Contention {
        self.contention_for(base_price_eur, bid_cap_eur, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::WorldConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(13)).unwrap())
    }

    #[test]
    fn empty_market_is_exactly_neutral() {
        let market = Marketplace::setup(world(), MarketplaceConfig::seeded(5, 0)).unwrap();
        let c = market.contention_for(0.01, 0.01, 123);
        assert!(c.is_none());
        assert!(market.pacing().converged);
        assert!(market.campaigns().is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = MarketplaceConfig { auction_samples: 0, ..MarketplaceConfig::seeded(5, 4) };
        assert!(Marketplace::setup(world(), bad).is_err());
    }

    #[test]
    fn setup_and_contention_are_deterministic() {
        let a = Marketplace::setup(world(), MarketplaceConfig::seeded(9, 32)).unwrap();
        let b = Marketplace::setup(world(), MarketplaceConfig::seeded(9, 32)).unwrap();
        assert_eq!(a.campaigns(), b.campaigns());
        assert_eq!(a.pacing(), b.pacing());
        for seed in [0u64, 7, 991] {
            assert_eq!(a.contention_for(0.001, 0.01, seed), b.contention_for(0.001, 0.01, seed));
        }
    }

    #[test]
    fn contention_factors_respect_their_contracts() {
        let market = Marketplace::setup(world(), MarketplaceConfig::seeded(9, 64)).unwrap();
        for (base, cap) in [(0.0005, 0.01), (0.001, 0.01), (0.01, 0.01)] {
            let c = market.contention_for(base, cap, 42);
            assert!((0.0..=1.0).contains(&c.win_rate_factor), "win rate {}", c.win_rate_factor);
            assert!(c.price_factor >= 1.0, "price factor {}", c.price_factor);
            assert_eq!(c.sanitized(), c, "already within contracts");
        }
    }

    #[test]
    fn broad_campaigns_pay_more_narrow_campaigns_win_less() {
        // base price far below the field -> price uplift; base price at the
        // cap -> no headroom, contention shows up as lost auctions instead.
        let market = Marketplace::setup(world(), MarketplaceConfig::seeded(9, 64)).unwrap();
        let broad = market.contention_for(0.0002, 0.01, 7);
        assert!(broad.price_factor > 1.2, "broad price factor {}", broad.price_factor);
        let narrow = market.contention_for(0.01, 0.01, 7);
        assert!(narrow.price_factor >= 1.0 && narrow.price_factor < 1.001);
        assert!(narrow.win_rate_factor < 1.0, "narrow should lose some auctions");
    }

    #[test]
    fn more_competitors_means_weakly_worse_terms() {
        // Same master seed: level-n competitors are a prefix of level-m's
        // (nested populations), so contention cannot improve with n.
        let mut last_win = f64::INFINITY;
        for n in [4usize, 32, 128] {
            let market = Marketplace::setup(world(), MarketplaceConfig::seeded(9, n)).unwrap();
            let c = market.contention_for(0.001, 0.01, 5);
            assert!(
                c.win_rate_factor <= last_win + 0.02,
                "win rate rose with competition: {} then {}",
                last_win,
                c.win_rate_factor
            );
            last_win = c.win_rate_factor;
        }
        assert!(last_win < 1.0, "128 campaigns should contest something");
    }

    #[test]
    fn degenerate_prices_degrade_to_neutral() {
        let market = Marketplace::setup(world(), MarketplaceConfig::seeded(9, 8)).unwrap();
        assert!(market.contention_for(0.0, 0.01, 1).is_none());
        assert!(market.contention_for(-1.0, 0.01, 1).is_none());
        assert!(market.contention_for(0.001, f64::NAN, 1).is_none());
    }
}
