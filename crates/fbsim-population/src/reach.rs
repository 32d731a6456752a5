//! The conjunction-reach engine — the simulated *Potential Reach* oracle.
//!
//! `AS(S) = scale · Σ_v Π_{i∈S} p_vi`: the expected number of users carrying
//! every interest in `S`, estimated over the latent panel. This is the
//! number the paper reads from the FB Ads Manager API for each combination
//! of interests (before FB's reporting floor is applied — the floor lives in
//! `fbsim-adplatform`, which wraps this engine).
//!
//! Two access patterns matter:
//!
//! * **single queries** ([`ReachEngine::conjunction_reach`]) for ad-platform
//!   audience sizing;
//! * **nested sweeps** ([`ReachEngine::nested_reaches`]) for the uniqueness
//!   model, which needs the reach of every prefix of a 25-interest sequence.
//!   The sweep keeps one running product per panel user and performs one
//!   multiply per user per added interest — 25× cheaper than 25 independent
//!   queries.
//!
//! The module also exposes the **global-independence baseline**
//! ([`ReachEngine::conjunction_reach_independent`]) used by the ablation
//! bench: `Pop · Π (AS_i / Pop)`, i.e. what the audience would be if
//! interests were uncorrelated. Comparing the two shows why the latent-taste
//! correlation structure is load-bearing for reproducing the paper.
//!
//! # One kernel, one contract (freeze-and-drop)
//!
//! Every entry point — scalar ([`ReachEngine::conjunction_reach_in`]),
//! one-shot sweep ([`ReachEngine::nested_reaches_in`]), resumable sweep
//! ([`ReachEngine::sweep_extend`]) and the two per-chunk partial functions
//! a sharded router folds — runs the same per-chunk kernel over the same
//! [`CHUNK_USERS`] partition. Per interest, the kernel fills the chunk's
//! carriage exponents from the panel's columns
//! (`Panel::carriage_exponents`) and folds them into one running product
//! per user under a single cutoff rule: a user whose product has fallen to
//! `≤ 1e-300` is **frozen** — the product stops updating and the user
//! contributes **nothing** to any deeper prefix (the first interest always
//! contributes, because every in-filter product starts at `1.0 > 1e-300`;
//! filtered-out users start at `0.0` and never contribute). The kernel
//! returns the chunk's sum for every prefix; a scalar query is the last of
//! them, and every path folds chunk sums in ascending chunk order from
//! `0.0`.
//!
//! So `conjunction_reach_in(&ids[..k], f)` is **bit-identical** to
//! `nested_reaches_in(ids, f)[k - 1]` for every prefix length `k` —
//! however the sequence is split across sweep calls, however the chunks
//! are spread over shards, and at any thread count. That equivalence is
//! what lets the serving layer canonicalize a scalar spelling and a nested
//! prefix of the same conjunction onto one cache entry.

use rayon::prelude::*;

use crate::catalog::{InterestCatalog, InterestId, TopicId};
use crate::panel::{carriage, Panel};

/// Filter over the targeting universe: a bitmask of country indices
/// (bit `i` = country `i` of `TARGETING_UNIVERSE`). Bits 50..64 are outside
/// the universe and can never be set: every constructor masks them off, so
/// [`CountryFilter::len`] counts real countries only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountryFilter(u64);

impl CountryFilter {
    /// Bitmask of the 50-country targeting universe.
    const UNIVERSE: u64 = (1 << 50) - 1;

    /// All 50 countries (the paper's "worldwide" query set).
    pub const ALL: CountryFilter = CountryFilter(Self::UNIVERSE);

    /// Filter from a raw bitmask; bits outside the 50-country universe are
    /// dropped.
    pub fn from_bits(bits: u64) -> Self {
        Self(bits & Self::UNIVERSE)
    }

    /// The raw bitmask (bits 50..64 always clear).
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Filter containing exactly the given country indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is ≥ 50 (outside the targeting universe). Wire-
    /// adjacent callers should use [`CountryFilter::checked_of`] instead,
    /// which reports the offending index without unwinding.
    pub fn of(indices: &[u16]) -> Self {
        match Self::checked_of(indices) {
            Ok(filter) => filter,
            Err(i) => {
                // `checked_of` only errors on an out-of-universe index, so
                // this assert always fires with the documented message.
                assert!(i < 50, "country index {i} outside the 50-country universe");
                Self(0)
            }
        }
    }

    /// Non-panicking [`CountryFilter::of`]: builds the filter, or returns
    /// the first out-of-universe index (≥ 50).
    ///
    /// # Errors
    ///
    /// The first index outside the 50-country targeting universe.
    pub fn checked_of(indices: &[u16]) -> Result<Self, u16> {
        let mut mask = 0u64;
        for &i in indices {
            if i >= 50 {
                return Err(i);
            }
            mask |= 1 << i;
        }
        Ok(Self(mask))
    }

    /// Whether country index `i` passes the filter.
    #[inline]
    pub fn contains(&self, i: u16) -> bool {
        i < 50 && (self.0 >> i) & 1 == 1
    }

    /// Number of countries in the filter.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the filter is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// Monte-Carlo reach estimator over a catalog + panel.
#[derive(Debug, Clone, Copy)]
pub struct ReachEngine<'a> {
    catalog: &'a InterestCatalog,
    panel: &'a Panel,
}

/// The per-user running products of a partially evaluated nested sweep —
/// the resumable state behind prefix-memoized [`ReachEngine::nested_reaches`]
/// queries (see [`ReachEngine::sweep_begin`] / [`ReachEngine::sweep_extend`]).
///
/// One `f64` per panel user; filtered-out users sit at `0.0` and users whose
/// product has underflowed the `1e-300` cutoff are frozen — they stop
/// updating and contribute nothing to deeper prefixes (the freeze-and-drop
/// contract in the module docs), exactly as in the one-shot sweep and the
/// scalar path.
///
/// Only the in-filter users' products are stored, in user order: a
/// filtered-out user's product is `0.0` from the start and the kernel never
/// updates it, so it reads back as `0.0`. A memoized sweep over a few
/// countries then costs 8 bytes per in-filter user rather than per panel
/// user, and the slots handed back to the kernel are the same bits.
#[derive(Debug, Clone)]
pub struct SweepState {
    /// Panel size the state was built over.
    len: usize,
    /// The in-filter users' running products, in user order.
    products: Vec<f64>,
    /// `starts[c]` indexes chunk `c`'s first product in `products`.
    starts: Vec<usize>,
    filter: CountryFilter,
    depth: usize,
}

impl SweepState {
    /// The country filter the sweep was started with.
    pub fn filter(&self) -> CountryFilter {
        self.filter
    }

    /// Number of interests folded in so far.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Heap footprint of the state in bytes (for cache capacity accounting).
    pub fn heap_bytes(&self) -> usize {
        self.products.len() * std::mem::size_of::<f64>()
            + self.starts.len() * std::mem::size_of::<usize>()
    }

    /// Appends the next chunk's products: `slots` for users whose
    /// countries are `countries`.
    fn push_chunk(&mut self, countries: &[u16], slots: &[f64]) {
        self.starts.push(self.products.len());
        for (&country, &product) in countries.iter().zip(slots) {
            if self.filter.contains(country) {
                self.products.push(product);
            } else {
                debug_assert_eq!(product.to_bits(), 0, "filtered-out users stay at 0.0");
            }
        }
    }

    /// Chunk `chunk`'s dense products, for users whose countries are
    /// `countries`.
    fn slots(&self, chunk: usize, countries: &[u16]) -> Vec<f64> {
        let mut products = self.products[self.starts[chunk]..].iter();
        countries
            .iter()
            .map(|&c| {
                if self.filter.contains(c) {
                    products.next().copied().unwrap_or(0.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Panel chunk size for rayon sweeps — big enough to amortise task overhead,
/// small enough to parallelise test-scale panels. The chunk partition is
/// independent of the thread count and the engine folds chunk partials in
/// chunk order, so reach values are bit-identical at any `UOF_THREADS`.
///
/// Public because the chunk partition is also the unit of panel
/// **sharding** (see [`crate::shard`]): a shard backend computes the
/// per-chunk partial sums for the chunks it owns, and the router folds
/// them back in ascending chunk index — reproducing the single-node
/// reduction tree exactly. Equals [`crate::index::BLOCK_USERS`], so the
/// posting-list index's block partition lines up with the engine's chunks
/// (pinned by a test).
pub const CHUNK_USERS: usize = 4_096;

/// The reach kernel: folds `params` (score, topic) into the running
/// products `slots` of the panel chunk starting at user `lo`, in place, and
/// returns the chunk's unscaled contribution to each prefix (element `k` →
/// the prefix ending at `params[k]`).
///
/// Per interest it fills the chunk's carriage exponents
/// (`Panel::carriage_exponents`) and applies the freeze-and-drop rule:
/// a slot above `1e-300` is multiplied by its carriage probability and
/// added to the prefix sum; a slot at or below it (frozen, or filtered out
/// at `0.0`) is skipped and never updated again. Every reach path runs
/// this function, so they agree bit for bit by construction.
fn sweep_chunk(panel: &Panel, lo: usize, params: &[(f64, TopicId)], slots: &mut [f64]) -> Vec<f64> {
    let mut x = vec![0.0f64; slots.len()];
    params
        .iter()
        .map(|&(score, topic)| {
            panel.carriage_exponents(lo, score, topic, &mut x);
            let mut step = 0.0f64;
            for (slot, &xv) in slots.iter_mut().zip(&x) {
                if *slot > 1e-300 {
                    *slot *= carriage(xv);
                    step += *slot;
                }
            }
            step
        })
        .collect()
}

/// Sums per-chunk partials element-wise in ascending chunk order from
/// `0.0` — the reduction tree every path (and a sharded router) shares.
fn fold_chunks(partials: impl IntoIterator<Item = Vec<f64>>, len: usize) -> Vec<f64> {
    let mut sums = vec![0.0f64; len];
    for partial in partials {
        for (x, y) in sums.iter_mut().zip(partial) {
            *x += y;
        }
    }
    sums
}

impl<'a> ReachEngine<'a> {
    /// Creates an engine borrowing the world's catalog and panel.
    pub fn new(catalog: &'a InterestCatalog, panel: &'a Panel) -> Self {
        Self { catalog, panel }
    }

    /// The catalog behind this engine.
    pub fn catalog(&self) -> &'a InterestCatalog {
        self.catalog
    }

    /// Expected audience of a single interest, worldwide.
    pub fn single_reach(&self, id: InterestId) -> f64 {
        self.conjunction_reach(std::slice::from_ref(&id))
    }

    /// Expected audience of the conjunction of `ids`, worldwide.
    ///
    /// An empty conjunction matches everyone (returns the population).
    pub fn conjunction_reach(&self, ids: &[InterestId]) -> f64 {
        self.conjunction_reach_in(ids, CountryFilter::ALL)
    }

    /// Expected audience of the conjunction of `ids` restricted to the
    /// countries in `filter`.
    ///
    /// Applies the freeze-and-drop underflow cutoff (see the module docs):
    /// the value returned for `ids[..k]` is bit-identical to element `k - 1`
    /// of [`ReachEngine::nested_reaches_in`] over any extension of `ids`.
    pub fn conjunction_reach_in(&self, ids: &[InterestId], filter: CountryFilter) -> f64 {
        let _span = uof_telemetry::span!(
            "engine.conjunction_reach",
            interests = ids.len(),
            countries = filter.len(),
        );
        let partials = self.scalar_partials(ids, filter, &self.all_chunks());
        partials.iter().fold(0.0, |acc, p| acc + p) * self.panel.scale()
    }

    /// Reach of every prefix of `ids`: element `k` is the audience of the
    /// conjunction of the first `k+1` interests. This is the workhorse of
    /// the uniqueness analysis (Section 4.1 queries combinations of
    /// 1..=25 interests per user).
    pub fn nested_reaches(&self, ids: &[InterestId]) -> Vec<f64> {
        self.nested_reaches_in(ids, CountryFilter::ALL)
    }

    /// [`Self::nested_reaches`] with a country filter.
    ///
    /// Element `k` is bit-identical to
    /// `conjunction_reach_in(&ids[..=k], filter)` — both paths run the same
    /// kernel over the same chunk partition and fold order (see the module
    /// docs).
    pub fn nested_reaches_in(&self, ids: &[InterestId], filter: CountryFilter) -> Vec<f64> {
        if ids.is_empty() {
            return Vec::new();
        }
        let _span = uof_telemetry::span!(
            "engine.nested_reaches",
            interests = ids.len(),
            countries = filter.len(),
        );
        let partials = self.nested_partials(ids, filter, &self.all_chunks());
        self.scaled(fold_chunks(partials, ids.len()))
    }

    /// Starts a resumable nested sweep restricted to `filter`: every
    /// in-filter panel user begins with a running product of `1.0`, every
    /// filtered-out user with `0.0`.
    ///
    /// Folding interests into the state with [`ReachEngine::sweep_extend`]
    /// yields exactly the prefix reaches [`ReachEngine::nested_reaches_in`]
    /// would compute — bit-identically, however the sequence is split
    /// across extend calls — because both run the same kernel on the same
    /// starting products. The state is what a prefix-memoizing cache stores
    /// so a sweep extending an already-seen prefix only pays for the tail.
    pub fn sweep_begin(&self, filter: CountryFilter) -> SweepState {
        let n = self.panel.len();
        let mut state =
            SweepState { len: n, products: Vec::new(), starts: Vec::new(), filter, depth: 0 };
        for c in 0..self.chunk_count() {
            let (lo, hi) = self.chunk_range(c);
            state
                .push_chunk(&self.panel.countries()[lo..hi], &self.filter_products(lo, hi, filter));
        }
        state
    }

    /// Folds `tail` into a sweep, returning the scaled reach of each newly
    /// covered prefix (element `k` = reach of the state's interests plus
    /// `tail[..=k]`) and the advanced state. See [`ReachEngine::sweep_begin`]
    /// for the bit-identity contract.
    ///
    /// # Panics
    ///
    /// Panics if the state was built over a different panel size, or if an
    /// interest id is outside the catalog.
    pub fn sweep_extend(&self, state: &SweepState, tail: &[InterestId]) -> (Vec<f64>, SweepState) {
        let n = self.panel.len();
        assert_eq!(state.len, n, "sweep state does not match this panel");
        if tail.is_empty() {
            return (Vec::new(), state.clone());
        }
        let _span =
            uof_telemetry::span!("engine.sweep_extend", depth = state.depth(), tail = tail.len(),);
        let countries = self.panel.countries();
        let per_chunk = self.sweep_chunks(tail, &self.all_chunks(), |lo, hi| {
            state.slots(lo / CHUNK_USERS, &countries[lo..hi])
        });
        let mut next = SweepState {
            len: n,
            products: Vec::with_capacity(state.products.len()),
            starts: Vec::with_capacity(state.starts.len()),
            filter: state.filter,
            depth: state.depth + tail.len(),
        };
        let mut partials = Vec::with_capacity(per_chunk.len());
        for (c, (acc, slots)) in per_chunk.into_iter().enumerate() {
            let (lo, hi) = self.chunk_range(c);
            next.push_chunk(&countries[lo..hi], &slots);
            partials.push(acc);
        }
        let sums = fold_chunks(partials, tail.len());
        (self.scaled(sums), next)
    }

    /// The global-independence baseline: `Pop · Π (AS_i / Pop)` using the
    /// calibrated single-interest audiences. Ablation only — this is the
    /// model the paper's data refutes.
    pub fn conjunction_reach_independent(&self, ids: &[InterestId]) -> f64 {
        let pop = self.population();
        let mut reach = pop;
        for &id in ids {
            reach *= (self.single_reach(id) / pop).min(1.0);
        }
        reach
    }

    /// Total simulated population (reach of the empty conjunction).
    pub fn population(&self) -> f64 {
        self.panel.scale() * self.panel.len() as f64
    }

    /// Number of [`CHUNK_USERS`]-sized chunks in the panel partition — the
    /// unit of sharding (see [`crate::shard`]).
    pub fn chunk_count(&self) -> usize {
        self.panel.len().div_ceil(CHUNK_USERS)
    }

    /// Per-chunk **unscaled** scalar partials for the given global chunk
    /// indices: element `j` is the freeze-and-drop sum of per-user products
    /// over chunk `chunks[j]` — exactly the partial the one-shot path
    /// computes for that chunk.
    ///
    /// Folding the partials of *all* chunks `0..chunk_count()` into an
    /// `0.0`-initialised accumulator in **ascending chunk order** and
    /// multiplying by the panel scale reproduces
    /// [`ReachEngine::conjunction_reach_in`] bit for bit: that is literally
    /// how the one-shot path computes its answer. This is the sharding
    /// determinism contract the router relies on.
    ///
    /// # Panics
    ///
    /// Panics if a chunk index is out of range or an interest id is outside
    /// the catalog.
    pub fn conjunction_chunk_partials(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        chunks: &[usize],
    ) -> Vec<f64> {
        let _span = uof_telemetry::span!(
            "engine.conjunction_chunk_partials",
            interests = ids.len(),
            chunks = chunks.len(),
        );
        self.scalar_partials(ids, filter, chunks)
    }

    /// Per-chunk **unscaled** nested partials for the given global chunk
    /// indices: element `j` holds, for chunk `chunks[j]`, the chunk's
    /// contribution to every prefix of `ids` (inner element `k` → prefix
    /// `k + 1`). Same fold-in-ascending-chunk-order bit-identity contract
    /// as [`ReachEngine::conjunction_chunk_partials`], element-wise against
    /// [`ReachEngine::nested_reaches_in`].
    ///
    /// Returns one empty inner vector per chunk when `ids` is empty.
    ///
    /// # Panics
    ///
    /// Panics if a chunk index is out of range or an interest id is outside
    /// the catalog.
    pub fn nested_chunk_partials(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        chunks: &[usize],
    ) -> Vec<Vec<f64>> {
        let _span = uof_telemetry::span!(
            "engine.nested_chunk_partials",
            interests = ids.len(),
            chunks = chunks.len(),
        );
        if ids.is_empty() {
            return vec![Vec::new(); chunks.len()];
        }
        self.nested_partials(ids, filter, chunks)
    }

    /// Every chunk index, ascending.
    fn all_chunks(&self) -> Vec<usize> {
        (0..self.chunk_count()).collect()
    }

    /// The users `lo..hi` of chunk `c`.
    fn chunk_range(&self, c: usize) -> (usize, usize) {
        (c * CHUNK_USERS, ((c + 1) * CHUNK_USERS).min(self.panel.len()))
    }

    /// Multiplies unscaled sums by the panel scale.
    fn scaled(&self, sums: Vec<f64>) -> Vec<f64> {
        sums.into_iter().map(|s| s * self.panel.scale()).collect()
    }

    /// Starting products for users `lo..hi`: `1.0` in the filter, else `0.0`.
    fn filter_products(&self, lo: usize, hi: usize, filter: CountryFilter) -> Vec<f64> {
        self.panel.countries()[lo..hi]
            .iter()
            .map(|&c| if filter.contains(c) { 1.0 } else { 0.0 })
            .collect()
    }

    /// Per-chunk nested partials from filter-initialised products.
    fn nested_partials(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        chunks: &[usize],
    ) -> Vec<Vec<f64>> {
        self.sweep_chunks(ids, chunks, |lo, hi| self.filter_products(lo, hi, filter))
            .into_iter()
            .map(|(acc, _)| acc)
            .collect()
    }

    /// Per-chunk scalar partials: the last prefix of the nested partials,
    /// or — for the empty conjunction — the chunk's in-filter head count.
    fn scalar_partials(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        chunks: &[usize],
    ) -> Vec<f64> {
        self.sweep_chunks(ids, chunks, |lo, hi| self.filter_products(lo, hi, filter))
            .into_iter()
            .map(|(acc, slots)| acc.last().copied().unwrap_or_else(|| slots.iter().sum()))
            .collect()
    }

    /// Runs [`sweep_chunk`] over the given global chunks in parallel, each
    /// from the products `start(lo, hi)` returns for its user range.
    /// Returns, per chunk in the order given, the per-prefix partials and
    /// the final products.
    fn sweep_chunks<F>(
        &self,
        ids: &[InterestId],
        chunks: &[usize],
        start: F,
    ) -> Vec<(Vec<f64>, Vec<f64>)>
    where
        F: Fn(usize, usize) -> Vec<f64> + Sync,
    {
        let params: Vec<(f64, TopicId)> = ids
            .iter()
            .map(|&id| {
                let i = self.catalog.interest(id);
                (i.score, i.topic)
            })
            .collect();
        let n = self.panel.len();
        let nchunks = self.chunk_count();
        chunks
            .par_iter()
            .map(|&c| {
                assert!(c < nchunks, "chunk index {c} out of range (panel has {nchunks} chunks)");
                let lo = c * CHUNK_USERS;
                let hi = ((c + 1) * CHUNK_USERS).min(n);
                let mut slots = start(lo, hi);
                let acc = sweep_chunk(self.panel, lo, &params, &mut slots);
                (acc, slots)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::panel::Panel;

    fn engine_fixture() -> (InterestCatalog, Panel) {
        let cfg = WorldConfig::test_scale(31);
        let catalog = InterestCatalog::generate(&cfg);
        let panel = Panel::generate(&cfg, &catalog);
        (catalog, panel)
    }

    #[test]
    fn empty_conjunction_is_population() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let pop = engine.conjunction_reach(&[]);
        assert!((pop - 10_000_000.0).abs() / 1e7 < 1e-9);
        assert_eq!(pop, engine.population());
    }

    #[test]
    fn reach_monotone_in_conjunction_size() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..10).map(InterestId).collect();
        let nested = engine.nested_reaches(&ids);
        for w in nested.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "adding an interest must not grow reach: {w:?}");
        }
    }

    #[test]
    fn nested_matches_individual_queries() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = vec![InterestId(5), InterestId(99), InterestId(500)];
        let nested = engine.nested_reaches(&ids);
        for k in 0..ids.len() {
            let direct = engine.conjunction_reach(&ids[..=k]);
            assert!(
                (nested[k] - direct).abs() / direct.max(1e-12) < 1e-9,
                "prefix {k}: nested {} vs direct {direct}",
                nested[k]
            );
        }
    }

    #[test]
    fn single_reach_positive_and_below_population() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        for id in (0..50).map(InterestId) {
            let r = engine.single_reach(id);
            assert!(r > 0.0);
            assert!(r < engine.population());
        }
    }

    #[test]
    fn country_filter_partitions_population() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let id = [InterestId(3)];
        let all = engine.conjunction_reach_in(&id, CountryFilter::ALL);
        let us = engine.conjunction_reach_in(&id, CountryFilter::of(&[0]));
        let rest = engine
            .conjunction_reach_in(&id, CountryFilter::from_bits(CountryFilter::ALL.bits() & !1));
        assert!(us > 0.0);
        assert!(us < all);
        assert!((us + rest - all).abs() / all < 1e-9, "US + rest should equal worldwide");
    }

    #[test]
    fn empty_filter_gives_zero() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        assert_eq!(engine.conjunction_reach_in(&[InterestId(0)], CountryFilter::from_bits(0)), 0.0);
    }

    #[test]
    fn independence_baseline_decays_faster() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        // Pick interests from one panel user's plausible taste: all from the
        // same topic so the correlated model keeps a sizeable audience.
        let topic = catalog.interest(InterestId(0)).topic;
        let same_topic: Vec<InterestId> =
            catalog.interests().iter().filter(|i| i.topic == topic).take(5).map(|i| i.id).collect();
        assert!(same_topic.len() >= 4, "need a few interests in one topic");
        let correlated = engine.conjunction_reach(&same_topic);
        let independent = engine.conjunction_reach_independent(&same_topic);
        assert!(
            correlated > independent,
            "correlated {correlated} should exceed independent {independent}"
        );
    }

    #[test]
    fn country_filter_helpers() {
        let f = CountryFilter::of(&[0, 3, 49]);
        assert!(f.contains(0));
        assert!(f.contains(3));
        assert!(f.contains(49));
        assert!(!f.contains(1));
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert!(CountryFilter::from_bits(0).is_empty());
        assert_eq!(CountryFilter::ALL.len(), 50);
    }

    #[test]
    fn country_filter_masks_phantom_countries() {
        // Bits 50..64 are outside the 50-country universe: a raw mask with
        // them set must not create phantom countries that `contains` accepts
        // and `len` counts.
        let f = CountryFilter::from_bits(u64::MAX);
        assert_eq!(f.bits(), CountryFilter::ALL.bits());
        assert_eq!(f.len(), 50);
        for i in 50..64 {
            assert!(!f.contains(i), "bit {i} is outside the targeting universe");
        }
        assert!(!CountryFilter::from_bits(1 << 55).contains(55));
        assert!(CountryFilter::from_bits(1 << 55).is_empty());
        assert_eq!(CountryFilter::ALL, CountryFilter::from_bits(CountryFilter::ALL.bits()));
    }

    #[test]
    #[should_panic(expected = "outside the 50-country universe")]
    fn country_filter_rejects_out_of_range() {
        CountryFilter::of(&[50]);
    }

    #[test]
    fn reach_is_bit_identical_across_thread_counts() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..12).map(|i| InterestId(i * 31)).collect();
        let single_seq = rayon::with_thread_count(1, || engine.conjunction_reach(&ids));
        let nested_seq = rayon::with_thread_count(1, || engine.nested_reaches(&ids));
        for threads in [2, 4, 7] {
            let single = rayon::with_thread_count(threads, || engine.conjunction_reach(&ids));
            assert_eq!(single.to_bits(), single_seq.to_bits(), "{threads} threads");
            let nested = rayon::with_thread_count(threads, || engine.nested_reaches(&ids));
            assert_eq!(nested.len(), nested_seq.len());
            for (a, b) in nested.iter().zip(&nested_seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn nested_reaches_empty_input() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        assert!(engine.nested_reaches(&[]).is_empty());
    }

    #[test]
    fn sweep_extend_bit_identical_to_one_shot_sweep() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..14).map(|i| InterestId(i * 29 + 1)).collect();
        for filter in [CountryFilter::ALL, CountryFilter::of(&[0, 3, 17])] {
            let one_shot = engine.nested_reaches_in(&ids, filter);
            // Every split point, including 0 (full extend) and len (no tail).
            for split in 0..=ids.len() {
                let state = engine.sweep_begin(filter);
                let (head, state) = engine.sweep_extend(&state, &ids[..split]);
                let (tail, state) = engine.sweep_extend(&state, &ids[split..]);
                assert_eq!(state.depth(), ids.len());
                let resumed: Vec<f64> = head.into_iter().chain(tail).collect();
                assert_eq!(resumed.len(), one_shot.len());
                for (k, (a, b)) in resumed.iter().zip(&one_shot).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "split {split}, prefix {k}: resumed {a} vs one-shot {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_extend_bit_identical_across_thread_counts() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..10).map(|i| InterestId(i * 101)).collect();
        let seq = rayon::with_thread_count(1, || {
            let state = engine.sweep_begin(CountryFilter::ALL);
            let (head, state) = engine.sweep_extend(&state, &ids[..6]);
            let (tail, _) = engine.sweep_extend(&state, &ids[6..]);
            head.into_iter().chain(tail).collect::<Vec<f64>>()
        });
        for threads in [2, 5] {
            let par = rayon::with_thread_count(threads, || {
                let state = engine.sweep_begin(CountryFilter::ALL);
                let (head, state) = engine.sweep_extend(&state, &ids[..6]);
                let (tail, _) = engine.sweep_extend(&state, &ids[6..]);
                head.into_iter().chain(tail).collect::<Vec<f64>>()
            });
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn sweep_state_stores_only_in_filter_products() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let filter = CountryFilter::of(&[0, 3, 17]);
        let in_filter = panel.countries().iter().filter(|&&c| filter.contains(c)).count();
        assert!(0 < in_filter && in_filter < panel.len() / 2, "fixture filter must be selective");
        let starts = engine.chunk_count() * std::mem::size_of::<usize>();
        let state = engine.sweep_begin(filter);
        assert_eq!(state.heap_bytes(), in_filter * 8 + starts);
        let (_, state) = engine.sweep_extend(&state, &[InterestId(5), InterestId(77)]);
        assert_eq!(state.heap_bytes(), in_filter * 8 + starts);
        // Filtered-out users read back as 0.0, in-filter ones as stored.
        let mut stored = state.products.iter();
        for c in 0..engine.chunk_count() {
            let (lo, hi) = engine.chunk_range(c);
            let countries = &panel.countries()[lo..hi];
            for (&country, slot) in countries.iter().zip(state.slots(c, countries)) {
                match filter.contains(country) {
                    true => assert_eq!(slot.to_bits(), stored.next().unwrap().to_bits()),
                    false => assert_eq!(slot.to_bits(), 0),
                }
            }
        }
        assert!(stored.next().is_none());
    }

    #[test]
    fn sweep_empty_tail_is_identity() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let state = engine.sweep_begin(CountryFilter::ALL);
        let (reaches, next) = engine.sweep_extend(&state, &[]);
        assert!(reaches.is_empty());
        assert_eq!(next.depth(), 0);
        assert_eq!(next.heap_bytes(), state.heap_bytes());
    }

    #[test]
    fn chunk_partials_fold_bit_identical_to_one_shot_scalar() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..8).map(|i| InterestId(i * 53 + 2)).collect();
        let nchunks = engine.chunk_count();
        assert!(nchunks >= 2, "fixture panel must span several chunks");
        for filter in [CountryFilter::ALL, CountryFilter::of(&[0, 7])] {
            let want = engine.conjunction_reach_in(&ids, filter);
            // Any shard partition of the chunk set folds back bit-identically
            // when merged in ascending chunk order.
            for shards in [2usize, 3, 5] {
                let mut merged = vec![f64::NAN; nchunks];
                for s in 0..shards {
                    let owned: Vec<usize> = (0..nchunks).filter(|c| c % shards == s).collect();
                    let partials = engine.conjunction_chunk_partials(&ids, filter, &owned);
                    for (c, p) in owned.iter().zip(partials) {
                        merged[*c] = p;
                    }
                }
                let mut acc = 0.0f64;
                for p in merged {
                    assert!(!p.is_nan(), "a chunk was left unowned");
                    acc += p;
                }
                let got = acc * panel.scale();
                assert_eq!(got.to_bits(), want.to_bits(), "{shards} shards");
            }
        }
    }

    #[test]
    fn chunk_partials_fold_bit_identical_to_one_shot_nested() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..10).map(|i| InterestId(i * 97 + 5)).collect();
        let nchunks = engine.chunk_count();
        let filter = CountryFilter::of(&[0, 3, 17]);
        let want = engine.nested_reaches_in(&ids, filter);
        for shards in [2usize, 4] {
            let mut merged: Vec<Option<Vec<f64>>> = vec![None; nchunks];
            for s in 0..shards {
                let owned: Vec<usize> = (0..nchunks).filter(|c| c % shards == s).collect();
                let partials = engine.nested_chunk_partials(&ids, filter, &owned);
                for (c, p) in owned.iter().zip(partials) {
                    merged[*c] = Some(p);
                }
            }
            let mut acc = vec![0.0f64; ids.len()];
            for p in merged {
                let p = p.expect("a chunk was left unowned");
                for (x, y) in acc.iter_mut().zip(p) {
                    *x += y;
                }
            }
            for (k, (a, b)) in acc.iter().zip(&want).enumerate() {
                let got = a * panel.scale();
                assert_eq!(got.to_bits(), b.to_bits(), "{shards} shards, prefix {k}");
            }
        }
    }

    #[test]
    fn chunk_partials_are_thread_count_invariant() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let ids: Vec<InterestId> = (0..6).map(|i| InterestId(i * 11)).collect();
        let chunks: Vec<usize> = (0..engine.chunk_count()).collect();
        let seq = rayon::with_thread_count(1, || {
            engine.conjunction_chunk_partials(&ids, CountryFilter::ALL, &chunks)
        });
        for threads in [2, 5] {
            let par = rayon::with_thread_count(threads, || {
                engine.conjunction_chunk_partials(&ids, CountryFilter::ALL, &chunks)
            });
            for (a, b) in par.iter().zip(&seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn empty_conjunction_chunk_partials_count_filter_membership() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let chunks: Vec<usize> = (0..engine.chunk_count()).collect();
        let partials = engine.conjunction_chunk_partials(&[], CountryFilter::ALL, &chunks);
        let total: f64 = partials.iter().sum();
        assert_eq!((total * panel.scale()).to_bits(), engine.population().to_bits());
        // Nested partials over an empty sequence are empty per chunk.
        let nested = engine.nested_chunk_partials(&[], CountryFilter::ALL, &chunks);
        assert_eq!(nested.len(), chunks.len());
        assert!(nested.iter().all(Vec::is_empty));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_partials_reject_out_of_range_chunks() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        engine.conjunction_chunk_partials(&[InterestId(0)], CountryFilter::ALL, &[usize::MAX]);
    }

    #[test]
    #[should_panic(expected = "does not match this panel")]
    fn sweep_state_panel_mismatch_panics() {
        let (catalog, panel) = engine_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let state = SweepState {
            len: panel.len() + 1,
            products: Vec::new(),
            starts: Vec::new(),
            filter: CountryFilter::ALL,
            depth: 0,
        };
        engine.sweep_extend(&state, &[InterestId(0)]);
    }
}
