//! Latent user tastes.
//!
//! A taste is a sparse distribution over topics: a user genuinely follows a
//! handful of topics (with random weights summing to 1) and has only a small
//! baseline affinity for the rest. The taste weights are **budget shares**:
//! a user with weight `w` on topic `t` devotes fraction `w / (1 + base)` of
//! their interest budget to `t`'s interests (distributed by popularity
//! within the topic) and fraction `base / (1 + base)` to the whole catalog
//! as background noise. In affinity form,
//!
//! ```text
//! f_u(t) = base + w_u(t) · S_total / S_t
//! ```
//!
//! where `S_t` is topic `t`'s score mass — so a taste weight matters equally
//! whether the topic is huge or niche. This coupling is what makes two
//! interests of the same person co-occur far more often than independence
//! would predict — the correlation the paper's slow conjunction-audience
//! decay requires.

use fbsim_stats::dist::{zipf_weights, AliasTable};
use rand::Rng;

use crate::catalog::TopicId;
use crate::config::WorldConfig;

/// Maximum taste topics per user.
pub const MAX_TASTE_TOPICS: usize = 8;

/// A user's sparse taste over topics.
#[derive(Debug, Clone, PartialEq)]
pub struct Taste {
    /// `(topic, weight)` pairs; weights sum to 1. At most
    /// [`MAX_TASTE_TOPICS`] entries, sorted by topic id.
    entries: Vec<(TopicId, f32)>,
}

impl Taste {
    /// Builds a taste from `(topic, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if empty, longer than [`MAX_TASTE_TOPICS`], containing
    /// duplicate topics, non-positive weights, or weights that do not sum to
    /// ~1 — all construction-time logic errors.
    pub fn new(mut entries: Vec<(TopicId, f32)>) -> Self {
        assert!(!entries.is_empty(), "taste must cover at least one topic");
        assert!(entries.len() <= MAX_TASTE_TOPICS, "too many taste topics");
        entries.sort_by_key(|(t, _)| *t);
        assert!(entries.windows(2).all(|w| w[0].0 != w[1].0), "duplicate topic in taste");
        let sum: f32 = entries
            .iter()
            .map(|&(_, w)| {
                assert!(w > 0.0 && w.is_finite(), "taste weights must be positive");
                w
            })
            .sum();
        assert!((sum - 1.0).abs() < 1e-3, "taste weights must sum to 1, got {sum}");
        Self { entries }
    }

    /// The `(topic, weight)` pairs, sorted by topic.
    pub fn entries(&self) -> &[(TopicId, f32)] {
        &self.entries
    }

    /// Weight of `topic` in this taste (0 when outside the taste).
    pub fn weight(&self, topic: TopicId) -> f32 {
        // Tastes hold at most 8 entries: linear scan beats binary search.
        self.entries.iter().find(|&&(t, _)| t == topic).map_or(0.0, |&(_, w)| w)
    }

    /// Number of taste topics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the taste is empty (never true for a constructed taste).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Samples tastes according to a world configuration.
///
/// Topic attractiveness for taste selection follows the same Zipf skew as
/// topic sizes: big topics attract more fans.
#[derive(Debug, Clone)]
pub struct TasteSampler {
    topic_table: AliasTable,
    min_topics: u32,
    max_topics: u32,
}

impl TasteSampler {
    /// Builds a sampler for `config`.
    pub fn new(config: &WorldConfig) -> Self {
        Self {
            topic_table: AliasTable::new(&zipf_weights(
                config.n_topics as usize,
                config.topic_zipf_s,
            )),
            min_topics: config.topics_per_user_min,
            max_topics: config.topics_per_user_max,
        }
    }

    /// Draws one taste: `k ~ U[min, max]` distinct topics, weights from
    /// normalised exponential draws (a flat Dirichlet in disguise).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Taste {
        self.sample_with_range(rng, self.min_topics, self.max_topics)
    }

    /// [`Self::sample`] with an explicit topic-count range — used by the
    /// FDVT cohort generator to inject demographic taste-diversity effects.
    pub fn sample_with_range<R: Rng + ?Sized>(&self, rng: &mut R, min: u32, max: u32) -> Taste {
        let min = min.clamp(1, MAX_TASTE_TOPICS as u32);
        let max = max.clamp(min, MAX_TASTE_TOPICS as u32);
        let k = rng.gen_range(min..=max) as usize;
        let mut topics: Vec<u16> = Vec::with_capacity(k);
        // Rejection sampling for distinct topics; k ≪ n_topics so this
        // terminates quickly.
        while topics.len() < k {
            let t = self.topic_table.sample(rng) as u16;
            if !topics.contains(&t) {
                topics.push(t);
            }
        }
        let raw: Vec<f32> = (0..k)
            .map(|_| {
                // Exponential(1) via inverse CDF; bounded away from 0.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                (-u.ln()) as f32
            })
            .collect();
        let sum: f32 = raw.iter().sum();
        let entries = topics.into_iter().zip(raw).map(|(t, w)| (TopicId(t), w / sum)).collect();
        Taste::new(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_sum_to_one() {
        let sampler = TasteSampler::new(&WorldConfig::test_scale(5));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let taste = sampler.sample(&mut rng);
            let sum: f32 = taste.entries().iter().map(|&(_, w)| w).sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(taste.len() >= 3 && taste.len() <= 6);
        }
    }

    #[test]
    fn topics_are_distinct() {
        let sampler = TasteSampler::new(&WorldConfig::test_scale(5));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let taste = sampler.sample(&mut rng);
            let mut seen: Vec<TopicId> = taste.entries().iter().map(|&(t, _)| t).collect();
            seen.dedup();
            assert_eq!(seen.len(), taste.len());
        }
    }

    #[test]
    fn weight_lookup() {
        let taste = Taste::new(vec![(TopicId(9), 1.0)]);
        assert_eq!(taste.weight(TopicId(9)), 1.0);
        assert_eq!(taste.weight(TopicId(8)), 0.0);
    }

    #[test]
    fn popular_topics_attract_more_fans() {
        let cfg = WorldConfig::test_scale(5);
        let sampler = TasteSampler::new(&cfg);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0usize; cfg.n_topics as usize];
        for _ in 0..5_000 {
            for &(t, _) in sampler.sample(&mut rng).entries() {
                counts[t.0 as usize] += 1;
            }
        }
        // Topic 0 (Zipf rank 1) should clearly beat the last topic.
        assert!(counts[0] > counts[cfg.n_topics as usize - 1] * 2);
    }

    #[test]
    #[should_panic(expected = "at least one topic")]
    fn empty_taste_rejected() {
        Taste::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate topic")]
    fn duplicate_topics_rejected() {
        Taste::new(vec![(TopicId(1), 0.5), (TopicId(1), 0.5)]);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_weight_sum_rejected() {
        Taste::new(vec![(TopicId(1), 0.3), (TopicId(2), 0.3)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_weight_rejected() {
        Taste::new(vec![(TopicId(1), 0.0), (TopicId(2), 1.0)]);
    }
}
