//! Interest catalog: the simulated FB interest ecosystem.
//!
//! Each interest carries a latent popularity *score* (the weight used in
//! assignment and reach computations) and a *target audience* drawn from the
//! Fig.-2 log-normal. Scores start proportional to the target audience and
//! are refined by [`crate::calibration`] so the model's single-interest
//! reach reproduces the target.

use fbsim_stats::dist::{zipf_weights, AliasTable, Log10Normal};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::WorldConfig;

/// Identifier of an interest in the catalog (dense, `0..n_interests`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InterestId(pub u32);

/// Identifier of a latent topic (dense, `0..n_topics`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub u16);

/// One interest in the simulated ecosystem.
#[derive(Debug, Clone)]
pub struct Interest {
    /// Dense identifier.
    pub id: InterestId,
    /// Human-readable name (synthetic).
    pub name: String,
    /// Latent topic the interest belongs to.
    pub topic: TopicId,
    /// Target single-interest audience size drawn from the Fig.-2
    /// distribution — what the calibrated model reach should report.
    pub target_audience: f64,
    /// Calibrated popularity score used by assignment and reach. Before
    /// calibration this is proportional to `target_audience`.
    pub score: f64,
}

/// Topic naming pool — broad FB ad-category names, cycled with an index for
/// topics beyond the pool.
const TOPIC_NAMES: [&str; 30] = [
    "Food & Drink",
    "Sports",
    "Music",
    "Travel",
    "Technology",
    "Fashion",
    "Fitness",
    "Movies",
    "Gaming",
    "Books",
    "Cars",
    "Pets",
    "Photography",
    "Cooking",
    "Outdoors",
    "Business",
    "Science",
    "Art",
    "Parenting",
    "Home & Garden",
    "Finance",
    "Health",
    "Education",
    "News & Politics",
    "Comedy",
    "DIY & Crafts",
    "Beauty",
    "Spirituality",
    "Local Events",
    "Collectibles",
];

/// The simulated interest ecosystem.
#[derive(Debug, Clone)]
pub struct InterestCatalog {
    interests: Vec<Interest>,
    topic_names: Vec<String>,
    /// Sum of scores per topic (`S_t`), kept in sync with the scores.
    topic_score_totals: Vec<f64>,
    /// Sum of all scores (`S`).
    total_score: f64,
}

impl InterestCatalog {
    /// Generates the catalog described by `config`.
    ///
    /// Topic sizes are Zipf-skewed (a few big topics, a long tail) and
    /// target audiences are i.i.d. draws from the Fig.-2 log-normal,
    /// independent of topic — the paper's interests span the full
    /// popularity range inside every category.
    pub fn generate(config: &WorldConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xCA7A_1060);
        let n_topics = config.n_topics as usize;
        let topic_table = AliasTable::new(&zipf_weights(n_topics, config.topic_zipf_s));
        let audience_dist = Log10Normal::from_quartiles(config.audience_q25, config.audience_q75);
        // Single-interest audiences cannot exceed the population; cap at 20%
        // of it, the ballpark of FB's largest interests relative to MAU.
        let audience_cap = config.population as f64 * 0.2;

        let topic_names: Vec<String> = (0..n_topics)
            .map(|t| {
                let base = TOPIC_NAMES[t % TOPIC_NAMES.len()];
                if t < TOPIC_NAMES.len() {
                    base.to_string()
                } else {
                    format!("{base} #{}", t / TOPIC_NAMES.len() + 1)
                }
            })
            .collect();

        let interests: Vec<Interest> = (0..config.n_interests)
            .map(|id| {
                let topic = topic_table.sample(&mut rng) as u16;
                let target = audience_dist.sample_clamped(&mut rng, 20.0, audience_cap);
                Interest {
                    id: InterestId(id),
                    name: format!("{} interest {}", topic_names[topic as usize], id),
                    topic: TopicId(topic),
                    // Initial score proportional to the target audience;
                    // calibration rescales it.
                    score: target,
                    target_audience: target,
                }
            })
            .collect();

        let mut catalog = Self {
            interests,
            topic_names,
            topic_score_totals: vec![0.0; n_topics],
            total_score: 0.0,
        };
        catalog.recompute_score_totals();
        catalog
    }

    /// Number of interests.
    pub fn len(&self) -> usize {
        self.interests.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.interests.is_empty()
    }

    /// Number of topics.
    pub fn n_topics(&self) -> usize {
        self.topic_score_totals.len()
    }

    /// Looks up an interest.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range — ids are dense and produced by this
    /// catalog, so an out-of-range id is a logic error.
    pub fn interest(&self, id: InterestId) -> &Interest {
        &self.interests[id.0 as usize]
    }

    /// Checked lookup for ids from untrusted input (e.g. the network API).
    pub fn get(&self, id: InterestId) -> Option<&Interest> {
        self.interests.get(id.0 as usize)
    }

    /// All interests.
    pub fn interests(&self) -> &[Interest] {
        &self.interests
    }

    /// Topic display name.
    pub fn topic_name(&self, topic: TopicId) -> &str {
        &self.topic_names[topic.0 as usize]
    }

    /// Sum of scores of interests in `topic` (`S_t`).
    pub fn topic_score_total(&self, topic: TopicId) -> f64 {
        self.topic_score_totals[topic.0 as usize]
    }

    /// Sum of all scores (`S`).
    pub fn total_score(&self) -> f64 {
        self.total_score
    }

    /// Replaces the score of every interest (used by calibration).
    ///
    /// # Panics
    ///
    /// Panics if `scores` has the wrong length or contains a non-positive or
    /// non-finite value.
    pub fn set_scores(&mut self, scores: &[f64]) {
        assert_eq!(scores.len(), self.interests.len(), "score vector length mismatch");
        for (interest, &s) in self.interests.iter_mut().zip(scores) {
            assert!(s.is_finite() && s > 0.0, "scores must be positive and finite");
            interest.score = s;
        }
        self.recompute_score_totals();
    }

    fn recompute_score_totals(&mut self) {
        self.topic_score_totals.iter_mut().for_each(|t| *t = 0.0);
        let mut total = 0.0;
        for interest in &self.interests {
            self.topic_score_totals[interest.topic.0 as usize] += interest.score;
            total += interest.score;
        }
        self.total_score = total;
    }

    /// Per-topic alias tables over interest scores, for sampling a concrete
    /// interest given a topic. Returned alongside the per-topic member lists
    /// so callers can map sampled indices back to [`InterestId`]s.
    pub fn topic_samplers(&self) -> Vec<TopicSampler> {
        let mut members: Vec<Vec<InterestId>> = vec![Vec::new(); self.n_topics()];
        for interest in &self.interests {
            members[interest.topic.0 as usize].push(interest.id);
        }
        members
            .into_iter()
            .map(|ids| {
                if ids.is_empty() {
                    TopicSampler { members: ids, table: None }
                } else {
                    let weights: Vec<f64> = ids.iter().map(|&id| self.interest(id).score).collect();
                    TopicSampler { table: Some(AliasTable::new(&weights)), members: ids }
                }
            })
            .collect()
    }
}

/// Samples interests within one topic proportionally to their scores.
#[derive(Debug, Clone)]
pub struct TopicSampler {
    members: Vec<InterestId>,
    table: Option<AliasTable>,
}

impl TopicSampler {
    /// Interests in this topic.
    pub fn members(&self) -> &[InterestId] {
        &self.members
    }

    /// Draws one interest, or `None` for an empty topic.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<InterestId> {
        self.table.as_ref().map(|t| self.members[t.sample(rng)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> InterestCatalog {
        InterestCatalog::generate(&WorldConfig::test_scale(7))
    }

    #[test]
    fn generates_requested_count() {
        let c = small_catalog();
        assert_eq!(c.len(), 2_000);
        assert_eq!(c.n_topics(), 40);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = InterestCatalog::generate(&WorldConfig::test_scale(9));
        let b = InterestCatalog::generate(&WorldConfig::test_scale(9));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.interests().iter().zip(b.interests()) {
            assert_eq!(x.topic, y.topic);
            assert_eq!(x.target_audience, y.target_audience);
        }
        let c = InterestCatalog::generate(&WorldConfig::test_scale(10));
        assert!(
            a.interests()
                .iter()
                .zip(c.interests())
                .any(|(x, y)| x.target_audience != y.target_audience),
            "different seeds should differ"
        );
    }

    #[test]
    fn audiences_within_bounds() {
        let cfg = WorldConfig::test_scale(3);
        let c = InterestCatalog::generate(&cfg);
        let cap = cfg.population as f64 * 0.2;
        for i in c.interests() {
            assert!(i.target_audience >= 20.0);
            assert!(i.target_audience <= cap);
        }
    }

    #[test]
    fn topic_sizes_are_skewed() {
        let c = small_catalog();
        let mut counts = vec![0usize; c.n_topics()];
        for i in c.interests() {
            counts[i.topic.0 as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > min * 2, "Zipf topics should be visibly skewed: {max} vs {min}");
    }

    #[test]
    fn score_totals_consistent() {
        let c = small_catalog();
        let manual: f64 = c.interests().iter().map(|i| i.score).sum();
        assert!((c.total_score() - manual).abs() / manual < 1e-12);
        let per_topic: f64 =
            (0..c.n_topics()).map(|t| c.topic_score_total(TopicId(t as u16))).sum();
        assert!((per_topic - manual).abs() / manual < 1e-9);
    }

    #[test]
    fn set_scores_updates_totals() {
        let mut c = small_catalog();
        let scores = vec![2.0; c.len()];
        c.set_scores(&scores);
        assert!((c.total_score() - 2.0 * c.len() as f64).abs() < 1e-9);
        assert_eq!(c.interest(InterestId(0)).score, 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_scores_rejects_wrong_length() {
        let mut c = small_catalog();
        c.set_scores(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn set_scores_rejects_non_positive() {
        let mut c = small_catalog();
        let mut scores = vec![1.0; c.len()];
        scores[5] = 0.0;
        c.set_scores(&scores);
    }

    #[test]
    fn get_checked_lookup() {
        let c = small_catalog();
        assert!(c.get(InterestId(0)).is_some());
        assert!(c.get(InterestId(u32::MAX)).is_none());
    }

    #[test]
    fn topic_samplers_cover_all_interests() {
        let c = small_catalog();
        let samplers = c.topic_samplers();
        let total: usize = samplers.iter().map(|s| s.members().len()).sum();
        assert_eq!(total, c.len());
        // Sampling returns members of the right topic.
        let mut rng = StdRng::seed_from_u64(1);
        for (t, s) in samplers.iter().enumerate() {
            if let Some(id) = s.sample(&mut rng) {
                assert_eq!(c.interest(id).topic, TopicId(t as u16));
            }
        }
    }

    #[test]
    fn names_include_topic() {
        let c = small_catalog();
        let i = c.interest(InterestId(0));
        assert!(i.name.contains(c.topic_name(i.topic).split(" #").next().unwrap()));
    }
}
