//! Seeded background campaign population.
//!
//! Each competing campaign draws its audience spec from the world's
//! *calibrated* interest popularity (score-weighted catalog sampling), its
//! budget and valuation from log-uniform ranges, and its strategy from the
//! configured last-look fraction. Campaign `j` is sampled from a stream
//! derived from `(seed, j)` alone, so the population is **nested**: raising
//! `n_campaigns` appends campaigns without perturbing the existing ones —
//! contention sweeps compare levels against a shared competitor prefix.

use fbsim_population::catalog::InterestCatalog;
use fbsim_population::InterestId;
use fbsim_stats::dist::AliasTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::MarketplaceConfig;

/// One competing background campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundCampaign {
    /// Dense index within the marketplace (also its auction tie-break).
    pub id: usize,
    /// Targeted interests (a union: a user matching *any* is eligible).
    pub interests: Vec<InterestId>,
    /// Probability a uniformly random user matches the targeting — the
    /// per-opportunity eligibility Bernoulli under the population model's
    /// independence approximation.
    pub audience_fraction: f64,
    /// Daily budget in euros.
    pub daily_budget_eur: f64,
    /// Private valuation per impression, in euros (CPM / 1000).
    pub value_per_impression_eur: f64,
    /// Whether this bidder plays the strategic "last look": it lurks below
    /// the reserve and raises up to its full value only to snipe an auction
    /// from the standing winner, paying just the price it had to beat.
    pub last_look: bool,
}

/// SplitMix64 finalizer: decorrelates per-campaign seeds derived from
/// `(master seed, index)` pairs.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Log-uniform draw over `[lo, hi]`.
fn log_uniform<R: Rng + ?Sized>(rng: &mut R, (lo, hi): (f64, f64)) -> f64 {
    lo * (hi / lo).powf(rng.gen::<f64>())
}

/// Samples the background population for `config` against a world's
/// calibrated catalog and total population.
///
/// Deterministic in `(catalog, population, config)`; independent of thread
/// count (purely sequential).
pub fn sample_population(
    catalog: &InterestCatalog,
    population: u64,
    config: &MarketplaceConfig,
) -> Vec<BackgroundCampaign> {
    if config.n_campaigns == 0 || catalog.is_empty() || population == 0 {
        return Vec::new();
    }
    let scores: Vec<f64> = catalog.interests().iter().map(|i| i.score.max(0.0)).collect();
    let popularity = AliasTable::new(&scores);
    let pop = population as f64;
    (0..config.n_campaigns)
        .map(|j| {
            let mut rng =
                StdRng::seed_from_u64(mix64(config.seed ^ (j as u64).wrapping_add(0x51D)));
            let (lo, hi) = config.interests_per_campaign;
            let want = rng.gen_range(lo..=hi);
            let mut interests: Vec<InterestId> = Vec::with_capacity(want);
            // Score-weighted draws; a duplicate re-rolls a few times, then
            // the campaign simply targets fewer interests (harmless: the
            // union is what matters).
            for _ in 0..want {
                for _attempt in 0..16 {
                    let id = InterestId(popularity.sample(&mut rng) as u32);
                    if !interests.contains(&id) {
                        interests.push(id);
                        break;
                    }
                }
            }
            // Union reach under the independence approximation:
            // P(match) = 1 − Π (1 − audience_i / population).
            let mut miss = 1.0f64;
            for id in &interests {
                let a = (catalog.interest(*id).target_audience / pop).clamp(0.0, 1.0);
                miss *= 1.0 - a;
            }
            let audience_fraction = (1.0 - miss).clamp(0.0, 1.0);
            let daily_budget_eur = log_uniform(&mut rng, config.daily_budget_range_eur);
            let value_per_impression_eur =
                log_uniform(&mut rng, config.value_cpm_range_eur) / 1_000.0;
            let last_look = rng.gen::<f64>() < config.last_look_fraction;
            BackgroundCampaign {
                id: j,
                interests,
                audience_fraction,
                daily_budget_eur,
                value_per_impression_eur,
                last_look,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(13)).unwrap())
    }

    #[test]
    fn population_is_deterministic_and_in_range() {
        let config = MarketplaceConfig::seeded(7, 64);
        let w = world();
        let a = sample_population(w.catalog(), w.population(), &config);
        let b = sample_population(w.catalog(), w.population(), &config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for (j, c) in a.iter().enumerate() {
            assert_eq!(c.id, j);
            assert!(!c.interests.is_empty() && c.interests.len() <= 3);
            assert!(c.audience_fraction > 0.0 && c.audience_fraction < 1.0);
            assert!(
                c.daily_budget_eur >= 100.0 && c.daily_budget_eur <= 2_000.0,
                "budget {}",
                c.daily_budget_eur
            );
            assert!(
                c.value_per_impression_eur >= 0.2e-3 && c.value_per_impression_eur <= 20.0e-3,
                "value {}",
                c.value_per_impression_eur
            );
        }
        let last_looks = a.iter().filter(|c| c.last_look).count();
        assert!(last_looks > 0 && last_looks < 32, "last-looks {last_looks}");
    }

    #[test]
    fn populations_are_nested_across_contention_levels() {
        let w = world();
        let small =
            sample_population(w.catalog(), w.population(), &MarketplaceConfig::seeded(7, 8));
        let large =
            sample_population(w.catalog(), w.population(), &MarketplaceConfig::seeded(7, 48));
        assert_eq!(small.as_slice(), &large[..8]);
    }

    #[test]
    fn empty_market_samples_nothing() {
        let w = world();
        assert!(sample_population(w.catalog(), w.population(), &MarketplaceConfig::seeded(7, 0))
            .is_empty());
    }

    #[test]
    fn score_weighted_sampling_prefers_popular_interests() {
        // The score-weighted (size-biased) draw should produce audience
        // fractions well above the catalog's plain mean interest share.
        let w = world();
        let config = MarketplaceConfig::seeded(3, 128);
        let campaigns = sample_population(w.catalog(), w.population(), &config);
        let mean_fraction: f64 =
            campaigns.iter().map(|c| c.audience_fraction).sum::<f64>() / campaigns.len() as f64;
        let catalog_mean: f64 = w
            .catalog()
            .interests()
            .iter()
            .map(|i| i.target_audience / w.population() as f64)
            .sum::<f64>()
            / w.catalog().len() as f64;
        assert!(
            mean_fraction > catalog_mean,
            "size bias missing: campaigns {mean_fraction:.4} vs catalog {catalog_mean:.4}"
        );
    }
}
