//! The latent Monte-Carlo panel.
//!
//! Reach queries are expectations over the user population. Rather than
//! materialising 1.5B interest lists, the engine keeps a *panel* of latent
//! users — taste, interest-count, country — sampled from the generative
//! model, and evaluates carriage probabilities `p_vi` on the fly:
//!
//! ```text
//! p_vi     = 1 − exp(−s_i · f_v(topic_i) · α_v)
//! f_v(t)   = base + w_v(t) · S_total / S_t        (budget-share affinity)
//! α_v      = n_v / W_v,   W_v = (1 + base) · S_total
//! AS(S)    ≈ (population / panel) · Σ_v Π_{i∈S} p_vi
//! ```
//!
//! # Layout
//!
//! The panel is stored column-major, because every reach path sweeps one
//! interest across a whole chunk of users at a time:
//!
//! * per-user columns `α` (`f32`), `n` (`f32`) and country (`u16`);
//! * per-topic **fan lists** in CSR form — for each topic, the users with
//!   it in their taste, ascending by user index, with the raw taste weight
//!   `w_v(t)` and the effective weight `w_v(t) · S_total / S_t`.
//!
//! A user outside topic `t`'s fan list has affinity exactly `base`, so the
//! carriage exponents of a chunk are one multiply per user plus a patch for
//! the topic's few fans in that chunk (`Panel::carriage_exponents`) — no
//! per-user taste scan.
//!
//! The effective weights and the `α` column depend on the catalog's
//! calibrated scores, so [`Panel::recompute_alphas`] refreshes them in
//! place whenever scores change.

use fbsim_stats::dist::Log10Normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::catalog::{InterestCatalog, TopicId};
use crate::config::WorldConfig;
use crate::countries::CountryAssigner;
use crate::taste::TasteSampler;

/// `p = 1 − exp(−x)`: the carriage probability of a carriage exponent
/// `x = s_i · f_v(t_i) · α_v` (see `Panel::carriage_exponents`).
#[inline]
pub(crate) fn carriage(x: f64) -> f64 {
    1.0 - (-x).exp()
}

/// One topic's fans (users with the topic in their taste), ascending by
/// panel index. The three slices are parallel.
#[derive(Debug, Clone, Copy)]
pub struct Fans<'a> {
    /// Panel indices of the fans, strictly ascending.
    pub users: &'a [u32],
    /// Raw taste weights `w_v(t)`.
    pub weights: &'a [f32],
    /// Effective taste weights `w_v(t) · S_total / S_t` for the current
    /// catalog scores (`0.0` for a topic with zero score mass).
    pub eff: &'a [f32],
}

impl<'a> Fans<'a> {
    /// The fans whose panel index lies in `lo..hi`.
    pub(crate) fn in_range(&self, lo: usize, hi: usize) -> Fans<'a> {
        let start = self.users.partition_point(|&v| (v as usize) < lo);
        let end = self.users.partition_point(|&v| (v as usize) < hi);
        Fans {
            users: &self.users[start..end],
            weights: &self.weights[start..end],
            eff: &self.eff[start..end],
        }
    }

    /// Number of fans.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the topic has no fans in this range.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }
}

/// The Monte-Carlo panel (column-major; see the module docs).
#[derive(Debug, Clone)]
pub struct Panel {
    /// `α_v = n_v / W_v` for the current catalog scores.
    alpha: Vec<f32>,
    /// Interest-count budget `n_v`.
    n_interests: Vec<f32>,
    /// Index into [`crate::countries::TARGETING_UNIVERSE`].
    country: Vec<u16>,
    /// CSR row offsets: topic `t`'s fans are entries
    /// `fan_offsets[t]..fan_offsets[t + 1]` of the fan columns.
    fan_offsets: Vec<u32>,
    fan_users: Vec<u32>,
    fan_weights: Vec<f32>,
    fan_eff: Vec<f32>,
    /// population / panel size.
    scale: f64,
    base_affinity: f32,
    /// Global multiplier on every user's assignment budget. The latent
    /// budget `n` counts assignment *attempts* (with replacement, deduped by
    /// the `1 − exp` saturation), so the realised number of distinct
    /// interests `Σ_i p_vi` falls short of `n`. Calibration raises this
    /// factor until the total realised audience mass matches the Fig.-2
    /// targets.
    budget_factor: f64,
    /// Mutation generation: bumped every time the carriage model changes
    /// (score recalibration, budget rescaling). Serving-layer caches key
    /// their validity on this counter — see `reach-cache`.
    generation: u64,
}

impl Panel {
    /// Samples a panel of `config.panel_size` latent users and computes
    /// their `α` for the given catalog.
    ///
    /// # Panics
    ///
    /// Panics if a sampled taste topic is outside the catalog's topics.
    pub fn generate(config: &WorldConfig, catalog: &InterestCatalog) -> Self {
        let seed = config.seed ^ 0x9A9E_1CAFE;
        let taste_sampler = TasteSampler::new(config);
        let country_assigner = CountryAssigner::new();
        // Panel users follow the *world* interest-count distribution (the
        // cohort's heavier Fig.-1 distribution applies only to FDVT users).
        let count_dist = Log10Normal::from_median(
            config.world_interests_median(),
            config.interests_per_user_sigma,
        );
        let sample_user = |rng: &mut StdRng| {
            let taste = taste_sampler.sample(rng);
            let n = count_dist.sample_clamped(
                rng,
                config.interests_per_user_min,
                config.interests_per_user_max,
            );
            (taste, n as f32, country_assigner.sample_index(rng))
        };
        let n_users = config.panel_size as usize;
        let n_topics = catalog.n_topics();
        // Pass 1: the per-user columns and each topic's fan count.
        let mut n_interests = Vec::with_capacity(n_users);
        let mut country = Vec::with_capacity(n_users);
        let mut fan_offsets = vec![0u32; n_topics + 1];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n_users {
            let (taste, n, c) = sample_user(&mut rng);
            n_interests.push(n);
            country.push(c);
            for &(t, _) in taste.entries() {
                assert!((t.0 as usize) < n_topics, "taste topic {} outside the catalog", t.0);
                fan_offsets[t.0 as usize + 1] += 1;
            }
        }
        for t in 0..n_topics {
            fan_offsets[t + 1] += fan_offsets[t];
        }
        // Pass 2: replay the same stream and place each fan. Users arrive in
        // ascending order, so every fan list comes out sorted by user — and
        // no user-major copy of the tastes is ever held.
        let n_fans = fan_offsets[n_topics] as usize;
        let mut fan_users = vec![0u32; n_fans];
        let mut fan_weights = vec![0f32; n_fans];
        let mut cursor = fan_offsets[..n_topics].to_vec();
        let mut rng = StdRng::seed_from_u64(seed);
        for v in 0..n_users {
            for &(t, w) in sample_user(&mut rng).0.entries() {
                let slot = &mut cursor[t.0 as usize];
                fan_users[*slot as usize] = v as u32;
                fan_weights[*slot as usize] = w;
                *slot += 1;
            }
        }
        let mut panel = Self {
            alpha: vec![0.0; n_users],
            n_interests,
            country,
            fan_offsets,
            fan_users,
            fan_weights,
            fan_eff: vec![0.0; n_fans],
            scale: config.population as f64 / config.panel_size as f64,
            base_affinity: config.base_affinity as f32,
            budget_factor: 1.0,
            generation: 0,
        };
        panel.recompute_alphas(catalog);
        panel
    }

    /// Multiplies the global budget factor by `ratio` and refreshes `α`.
    /// Used by calibration to close the saturation mass deficit.
    pub fn scale_budget_factor(&mut self, ratio: f64, catalog: &InterestCatalog) {
        assert!(ratio.is_finite() && ratio > 0.0, "budget ratio must be positive");
        self.budget_factor *= ratio;
        self.recompute_alphas(catalog);
    }

    /// The current global budget factor.
    pub fn budget_factor(&self) -> f64 {
        self.budget_factor
    }

    /// The mutation generation: incremented by every
    /// [`Panel::recompute_alphas`] (and hence by every score recalibration
    /// or [`Panel::scale_budget_factor`] call). Two reads of the same reach
    /// query are guaranteed identical while the generation is unchanged, so
    /// query caches use it as their invalidation epoch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Recomputes the fans' effective taste weights and the `α = n / W`
    /// column in place against the current catalog scores. Must be called
    /// after every [`InterestCatalog::set_scores`].
    pub fn recompute_alphas(&mut self, catalog: &InterestCatalog) {
        self.generation += 1;
        let base = self.base_affinity as f64;
        let total = catalog.total_score();
        debug_assert!(total > 0.0, "catalog score mass must be positive");
        for (t, bounds) in self.fan_offsets.windows(2).enumerate() {
            let range = bounds[0] as usize..bounds[1] as usize;
            let s_t = catalog.topic_score_total(TopicId(t as u16));
            for (eff, &w) in self.fan_eff[range.clone()].iter_mut().zip(&self.fan_weights[range]) {
                // A topic with zero mass (no interests) contributes nothing;
                // its budget share is effectively re-spread as background.
                *eff = if s_t > 0.0 { (w as f64 * total / s_t) as f32 } else { 0.0 };
            }
        }
        // W_v = base·S_total + Σ_t (w_t·S_total/S_t)·S_t = (base + 1)·S_total
        // — identical for every user in the budget-share model.
        let w_v = (base + 1.0) * total;
        for (alpha, &n) in self.alpha.iter_mut().zip(&self.n_interests) {
            *alpha = (self.budget_factor * n as f64 / w_v) as f32;
        }
    }

    /// Fills `x[j]` with the carriage exponent `s · f_v(t) · α_v` of panel
    /// user `v = lo + j` for an interest with `score` in `topic` — the one
    /// place the reach kernel and the posting-list index build evaluate the
    /// carriage model. Turn an exponent into a probability with
    /// `carriage`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + x.len()` exceeds the panel or `topic` is outside the
    /// catalog the panel was generated for.
    pub(crate) fn carriage_exponents(&self, lo: usize, score: f64, topic: TopicId, x: &mut [f64]) {
        let hi = lo + x.len();
        // Non-fans have affinity exactly `base`.
        let background = score * self.base_affinity as f64;
        for (xv, &alpha) in x.iter_mut().zip(&self.alpha[lo..hi]) {
            *xv = background * alpha as f64;
        }
        let fans = self.fans(topic).in_range(lo, hi);
        for (&v, &eff) in fans.users.iter().zip(fans.eff) {
            let v = v as usize;
            x[v - lo] = score * (self.base_affinity + eff) as f64 * self.alpha[v] as f64;
        }
    }

    /// Affinity `f_v(t) = base + w_v(t) · S_total / S_t` of panel user `v`
    /// for `topic`, looked up row-at-a-time in the topic's fan list.
    pub fn affinity(&self, v: usize, topic: TopicId) -> f32 {
        let fans = self.fans(topic);
        match fans.users.binary_search(&(v as u32)) {
            Ok(k) => self.base_affinity + fans.eff[k],
            Err(_) => self.base_affinity,
        }
    }

    /// Probability that panel user `v` carries an interest with `score` in
    /// `topic`, evaluated row-at-a-time. This is the reference the
    /// posting-list index is cross-checked against
    /// ([`crate::index::boolean_reference_count`]); the reach sweeps use
    /// `Panel::carriage_exponents` instead.
    pub(crate) fn carriage_probability(&self, v: usize, score: f64, topic: TopicId) -> f64 {
        carriage(score * self.affinity(v, topic) as f64 * self.alpha[v] as f64)
    }

    /// The fans of `topic` (see [`Fans`]).
    ///
    /// # Panics
    ///
    /// Panics if `topic` is outside the catalog the panel was generated for.
    pub fn fans(&self, topic: TopicId) -> Fans<'_> {
        let t = topic.0 as usize;
        let range = self.fan_offsets[t] as usize..self.fan_offsets[t + 1] as usize;
        Fans {
            users: &self.fan_users[range.clone()],
            weights: &self.fan_weights[range.clone()],
            eff: &self.fan_eff[range],
        }
    }

    /// Number of topics the fan lists cover (the catalog's topic count).
    pub fn n_topics(&self) -> usize {
        self.fan_offsets.len() - 1
    }

    /// The `α` column.
    pub fn alphas(&self) -> &[f32] {
        &self.alpha
    }

    /// The interest-count budget column `n_v`.
    pub fn interest_counts(&self) -> &[f32] {
        &self.n_interests
    }

    /// The country column (indices into
    /// [`crate::countries::TARGETING_UNIVERSE`]).
    pub fn countries(&self) -> &[u16] {
        &self.country
    }

    /// Number of panel users.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the panel is empty (never true for a generated panel).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// population / panel-size scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Baseline affinity shared by all panel users.
    pub fn base_affinity(&self) -> f32 {
        self.base_affinity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> (WorldConfig, InterestCatalog, Panel) {
        let cfg = WorldConfig::test_scale(11);
        let catalog = InterestCatalog::generate(&cfg);
        let panel = Panel::generate(&cfg, &catalog);
        (cfg, catalog, panel)
    }

    #[test]
    fn panel_has_requested_size_and_scale() {
        let (cfg, _, panel) = small_world();
        assert_eq!(panel.len(), cfg.panel_size as usize);
        let expected = cfg.population as f64 / cfg.panel_size as f64;
        assert!((panel.scale() - expected).abs() < 1e-9);
    }

    #[test]
    fn alphas_positive_after_generation() {
        let (_, _, panel) = small_world();
        assert!(panel.alphas().iter().all(|&a| a > 0.0));
    }

    #[test]
    fn interest_counts_within_clamp() {
        let (cfg, _, panel) = small_world();
        for &n in panel.interest_counts() {
            assert!(n >= cfg.interests_per_user_min as f32);
            assert!(n <= cfg.interests_per_user_max as f32);
        }
    }

    #[test]
    fn fan_lists_are_sorted_tastes() {
        let (cfg, _, panel) = small_world();
        let mut per_user = vec![0usize; panel.len()];
        let mut weight_sum = vec![0f32; panel.len()];
        for t in 0..panel.n_topics() {
            let fans = panel.fans(TopicId(t as u16));
            assert!(fans.users.windows(2).all(|w| w[0] < w[1]), "topic {t} not sorted");
            for (&v, &w) in fans.users.iter().zip(fans.weights) {
                per_user[v as usize] += 1;
                weight_sum[v as usize] += w;
            }
        }
        for (&k, &w) in per_user.iter().zip(&weight_sum) {
            assert!(k >= cfg.topics_per_user_min as usize && k <= cfg.topics_per_user_max as usize);
            assert!((w - 1.0).abs() < 1e-3, "taste weights sum to {w}");
        }
    }

    #[test]
    fn fans_in_range_selects_the_window() {
        let (_, _, panel) = small_world();
        let fans = panel.fans(TopicId(0));
        let window = fans.in_range(1_000, 3_000);
        assert!(window.users.iter().all(|&v| (1_000..3_000).contains(&(v as usize))));
        let expected = fans.users.iter().filter(|&&v| (1_000..3_000).contains(&v)).count();
        assert_eq!(window.len(), expected);
        assert!(fans.in_range(panel.len(), panel.len()).is_empty());
    }

    #[test]
    fn carriage_exponents_match_row_lookup() {
        let (_, catalog, panel) = small_world();
        let mut x = vec![0.0f64; 700];
        for interest in catalog.interests().iter().step_by(37) {
            panel.carriage_exponents(1_234, interest.score, interest.topic, &mut x);
            for (j, &xv) in x.iter().enumerate() {
                let v = 1_234 + j;
                assert_eq!(
                    carriage(xv).to_bits(),
                    panel.carriage_probability(v, interest.score, interest.topic).to_bits(),
                    "user {v}, interest {:?}",
                    interest.id
                );
            }
        }
    }

    #[test]
    fn expected_interest_count_is_close_to_alpha_times_w() {
        // Σ_i p_vi ≈ Σ_i s_i f_v(t_i) α_v = α_v · W_v = n_v in the linear
        // regime — the Poissonisation consistency check.
        let (_, catalog, panel) = small_world();
        let total: f64 = catalog
            .interests()
            .iter()
            .map(|i| panel.carriage_probability(0, i.score, i.topic))
            .sum();
        let n = panel.interest_counts()[0] as f64;
        // Saturation makes the sum smaller than n, but it should be the
        // same order of magnitude.
        assert!(total > 0.3 * n && total <= n * 1.05, "sum {total}, n {n}");
    }

    #[test]
    fn carriage_probability_bounds() {
        let (_, catalog, panel) = small_world();
        for v in 0..50 {
            for i in catalog.interests().iter().take(50) {
                let p = panel.carriage_probability(v, i.score, i.topic);
                assert!((0.0..=1.0).contains(&p), "p={p}");
            }
        }
    }

    #[test]
    fn taste_topics_raise_carriage_probability() {
        let (_, catalog, panel) = small_world();
        let taste_topic = TopicId(0);
        let v = panel.fans(taste_topic).users[0] as usize;
        let other_topic = TopicId(
            (1..catalog.n_topics() as u16)
                .find(|&t| panel.fans(TopicId(t)).users.binary_search(&(v as u32)).is_err())
                .expect("more topics than taste slots"),
        );
        assert!(panel.affinity(v, taste_topic) > panel.base_affinity());
        assert_eq!(panel.affinity(v, other_topic), panel.base_affinity());
        let score = 1_000.0;
        let p_taste = panel.carriage_probability(v, score, taste_topic);
        let p_other = panel.carriage_probability(v, score, other_topic);
        assert!(p_taste > p_other, "{p_taste} vs {p_other}");
    }

    #[test]
    fn recompute_alphas_tracks_score_changes() {
        let (_, mut catalog, mut panel) = small_world();
        let before = panel.alphas().to_vec();
        // Double every score: W doubles, α halves.
        let scores: Vec<f64> = catalog.interests().iter().map(|i| i.score * 2.0).collect();
        catalog.set_scores(&scores);
        panel.recompute_alphas(&catalog);
        for (&a, &b) in panel.alphas().iter().zip(&before) {
            assert!((a - b / 2.0).abs() / b < 1e-4);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let cfg = WorldConfig::test_scale(21);
        let catalog = InterestCatalog::generate(&cfg);
        let a = Panel::generate(&cfg, &catalog);
        let b = Panel::generate(&cfg, &catalog);
        assert_eq!(a.alphas(), b.alphas());
        assert_eq!(a.countries(), b.countries());
        for t in 0..a.n_topics() {
            assert_eq!(a.fans(TopicId(t as u16)).users, b.fans(TopicId(t as u16)).users);
        }
    }

    #[test]
    fn countries_diverse() {
        let (_, _, panel) = small_world();
        let mut seen = panel.countries().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert!(seen.len() > 20, "expected many countries, got {}", seen.len());
    }
}
