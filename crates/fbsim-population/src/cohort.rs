//! Materialised users: concrete interest lists for the FDVT cohort.
//!
//! Panel users stay latent (probabilities only); cohort users are *drawn* —
//! the simulator's equivalent of the 2,390 real people whose ad-preference
//! lists the FDVT browser extension harvested. A materialised user samples
//! `n` concrete interests without replacement, two-stage:
//!
//! 1. topic `t` with probability ∝ `f_u(t) · S_t` (affinity × topic score
//!    mass) — the same weights the latent carriage probabilities use;
//! 2. an interest within `t` proportional to its score.
//!
//! Duplicates are rejected; if a user's interest budget approaches the
//! catalog's supply for their taste the loop falls back to sequentially
//! filling from their taste topics, so generation always terminates.

use fbsim_stats::dist::{AliasTable, Log10Normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::{InterestCatalog, InterestId, TopicId, TopicSampler};
use crate::config::WorldConfig;
use crate::countries::CountryAssigner;
use crate::taste::{Taste, TasteSampler};

/// A user with a concrete, materialised interest list.
#[derive(Debug, Clone)]
pub struct MaterializedUser {
    /// The user's latent taste.
    pub taste: Taste,
    /// Index into [`crate::countries::TARGETING_UNIVERSE`].
    pub country: u16,
    /// The materialised interest list (unordered).
    pub interests: Vec<InterestId>,
}

impl MaterializedUser {
    /// The user's interests sorted ascending by target audience — the order
    /// the paper's Least-Popular selection strategy needs.
    pub fn interests_by_audience(&self, catalog: &InterestCatalog) -> Vec<InterestId> {
        let mut sorted = self.interests.clone();
        sorted.sort_by(|&a, &b| {
            catalog
                .interest(a)
                .target_audience
                .total_cmp(&catalog.interest(b).target_audience)
                .then(a.cmp(&b))
        });
        sorted
    }
}

/// Generates materialised users from the world model.
pub struct Materializer<'a> {
    catalog: &'a InterestCatalog,
    config: &'a WorldConfig,
    taste_sampler: TasteSampler,
    country_assigner: CountryAssigner,
    topic_samplers: Vec<TopicSampler>,
    cohort_count_dist: Log10Normal,
}

impl<'a> Materializer<'a> {
    /// Builds a materialiser over a (calibrated) catalog.
    pub fn new(config: &'a WorldConfig, catalog: &'a InterestCatalog) -> Self {
        Self {
            catalog,
            config,
            taste_sampler: TasteSampler::new(config),
            country_assigner: CountryAssigner::new(),
            topic_samplers: catalog.topic_samplers(),
            cohort_count_dist: Log10Normal::from_median(
                config.interests_per_user_median,
                config.interests_per_user_sigma,
            ),
        }
    }

    /// Materialises one cohort user with the Fig.-1 (cohort) interest-count
    /// distribution.
    pub fn sample_user<R: Rng + ?Sized>(&self, rng: &mut R) -> MaterializedUser {
        let n = self
            .cohort_count_dist
            .sample_clamped(
                rng,
                self.config.interests_per_user_min,
                self.config.interests_per_user_max,
            )
            .round()
            .max(1.0) as usize;
        self.sample_user_with_count(rng, n)
    }

    /// Materialises one user with an explicit interest count.
    pub fn sample_user_with_count<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        n: usize,
    ) -> MaterializedUser {
        let taste = self.taste_sampler.sample(rng);
        let country = self.country_assigner.sample_index(rng);
        let interests = self.sample_interests(rng, &taste, n);
        MaterializedUser { taste, country, interests }
    }

    /// Fully customised materialisation: optional interest count (defaults
    /// to a cohort-distribution draw) and optional taste topic-count range
    /// (defaults to the world config's range). Used by the FDVT cohort
    /// generator, which controls demographics separately.
    pub fn sample_user_customized<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: Option<usize>,
        topics_range: Option<(u32, u32)>,
    ) -> MaterializedUser {
        let taste = match topics_range {
            Some((min, max)) => self.taste_sampler.sample_with_range(rng, min, max),
            None => self.taste_sampler.sample(rng),
        };
        let n = count.unwrap_or_else(|| {
            self.cohort_count_dist
                .sample_clamped(
                    rng,
                    self.config.interests_per_user_min,
                    self.config.interests_per_user_max,
                )
                .round()
                .max(1.0) as usize
        });
        let country = self.country_assigner.sample_index(rng);
        let interests = self.sample_interests(rng, &taste, n);
        MaterializedUser { taste, country, interests }
    }

    /// Draws `n` distinct interests for `taste`.
    fn sample_interests<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        taste: &Taste,
        n: usize,
    ) -> Vec<InterestId> {
        let base = self.config.base_affinity;
        // Budget-share topic weights: f_u(t)·S_t = base·S_t + w_u(t)·S_total.
        let total = self.catalog.total_score();
        let weights: Vec<f64> = (0..self.catalog.n_topics())
            .map(|t| {
                let topic = TopicId(t as u16);
                base * self.catalog.topic_score_total(topic) + taste.weight(topic) as f64 * total
            })
            .collect();
        let n = n.min(self.catalog.len());
        let topic_table = AliasTable::new(&weights);
        let mut chosen: Vec<InterestId> = Vec::with_capacity(n);
        let mut seen = vec![false; self.catalog.len()];
        let max_attempts = n.saturating_mul(30).max(1_000);
        let mut attempts = 0usize;
        while chosen.len() < n && attempts < max_attempts {
            attempts += 1;
            let t = topic_table.sample(rng);
            let Some(id) = self.topic_samplers[t].sample(rng) else {
                continue;
            };
            if !seen[id.0 as usize] {
                seen[id.0 as usize] = true;
                chosen.push(id);
            }
        }
        // Fallback: fill deterministically from the user's taste topics,
        // most-preferred first, then the rest of the catalog.
        if chosen.len() < n {
            let mut topic_order: Vec<usize> = (0..weights.len()).collect();
            topic_order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]));
            'outer: for t in topic_order {
                for &id in self.topic_samplers[t].members() {
                    if !seen[id.0 as usize] {
                        seen[id.0 as usize] = true;
                        chosen.push(id);
                        if chosen.len() == n {
                            break 'outer;
                        }
                    }
                }
            }
        }
        chosen
    }

    /// Materialises a whole cohort deterministically from a seed.
    pub fn sample_cohort(&self, size: usize, seed: u64) -> Vec<MaterializedUser> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_0047);
        (0..size).map(|_| self.sample_user(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (WorldConfig, InterestCatalog) {
        let cfg = WorldConfig::test_scale(55);
        let catalog = InterestCatalog::generate(&cfg);
        (cfg, catalog)
    }

    #[test]
    fn interests_are_distinct_and_counted() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let mut rng = StdRng::seed_from_u64(1);
        let user = m.sample_user_with_count(&mut rng, 200);
        assert_eq!(user.interests.len(), 200);
        let mut ids = user.interests.clone();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 200, "interests must be distinct");
    }

    #[test]
    fn count_clamped_to_catalog_size() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let mut rng = StdRng::seed_from_u64(2);
        let user = m.sample_user_with_count(&mut rng, 10_000_000);
        assert_eq!(user.interests.len(), catalog.len());
    }

    #[test]
    fn taste_topics_dominate_interest_lists() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let mut rng = StdRng::seed_from_u64(3);
        // Keep the demanded count well below the taste topics' supply so
        // the share is not forced down by topic exhaustion.
        let user = m.sample_user_with_count(&mut rng, 60);
        let taste_topics: Vec<u16> = user.taste.entries().iter().map(|&(t, _)| t.0).collect();
        let in_taste = user
            .interests
            .iter()
            .filter(|&&id| taste_topics.contains(&catalog.interest(id).topic.0))
            .count();
        let share = in_taste as f64 / user.interests.len() as f64;
        // Budget-share model: taste mass 1 vs background mass base ≈ 0.15,
        // so the expected taste share is ≈ 1/1.15 ≈ 87%.
        assert!(share > 0.5, "taste share {share}");
    }

    #[test]
    fn interests_by_audience_is_sorted() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let mut rng = StdRng::seed_from_u64(4);
        let user = m.sample_user_with_count(&mut rng, 50);
        let sorted = user.interests_by_audience(&catalog);
        assert_eq!(sorted.len(), 50);
        for w in sorted.windows(2) {
            assert!(
                catalog.interest(w[0]).target_audience <= catalog.interest(w[1]).target_audience
            );
        }
    }

    #[test]
    fn cohort_deterministic_for_seed() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let a = m.sample_cohort(20, 99);
        let b = m.sample_cohort(20, 99);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.interests, y.interests);
            assert_eq!(x.country, y.country);
        }
        let c = m.sample_cohort(20, 100);
        assert!(a.iter().zip(&c).any(|(x, y)| x.interests != y.interests));
    }

    #[test]
    fn cohort_interest_counts_follow_cohort_distribution() {
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let cohort = m.sample_cohort(300, 5);
        let mut counts: Vec<f64> = cohort.iter().map(|u| u.interests.len() as f64).collect();
        counts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = counts[counts.len() / 2];
        // Cohort median configured at 120 for the test scale.
        assert!((60.0..240.0).contains(&median), "median {median}");
    }

    #[test]
    fn fallback_fills_when_budget_is_large() {
        // A count close to the catalog size forces the rejection loop into
        // the deterministic fallback; the result must still be distinct and
        // complete.
        let (cfg, catalog) = fixture();
        let m = Materializer::new(&cfg, &catalog);
        let mut rng = StdRng::seed_from_u64(6);
        let n = catalog.len() - 10;
        let user = m.sample_user_with_count(&mut rng, n);
        assert_eq!(user.interests.len(), n);
        let mut ids = user.interests.clone();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
