//! The bit-packed posting-list reach index — sampled conjunction counts as
//! AND-chains over `u64` blocks.
//!
//! The float engine in [`crate::reach`] answers a conjunction by walking the
//! whole Monte-Carlo panel and multiplying carriage probabilities — ~25
//! `exp` calls per user per 25-interest query. This module trades the
//! expected-value semantics for a **materialized membership draw**: each
//! (user, interest) pair gets one deterministic Bernoulli draw
//! `member ⇔ u(user, interest) < p_vi`, where `u` is a counter-free hash of
//! the world seed and the pair (independent of thread count and build
//! order), and `p_vi` is exactly the reach engine's carriage probability
//! (`Panel::carriage_exponents`).
//! Per-interest membership is stored bit-packed; a conjunction then costs an
//! AND-chain with `count_ones()` — a handful of words per 4,096 users
//! instead of a float pipeline per user, which is what makes 1M+ panels and
//! a high-traffic reach service feasible (ROADMAP item 1).
//!
//! # Layout
//!
//! The panel is cut into blocks of [`BLOCK_USERS`] users. Each interest's
//! posting list stores one container per block, roaring-style:
//!
//! * **dense** — a 64-word (`BLOCK_USERS / 64`) bitmap, when the block holds
//!   [`SPARSE_MAX`] or more members;
//! * **sparse** — a sorted `Vec<u16>` of in-block user offsets otherwise
//!   (2 bytes per member beats 512 bytes of bitmap below 256 members).
//!
//! Conjunctions materialize the first operand into a panel-wide dense
//! accumulator (8 KiB per 64k users — L1-resident), AND the remaining
//! posting lists into it block by block, and pop-count the survivors. A
//! [`CountryFilter`] is applied first via precomputed per-country bitmaps,
//! and an all-zero accumulator short-circuits the chain.
//!
//! # Determinism and epochs
//!
//! The draw for a pair is a pure function of `(world seed, user, interest)`:
//! rebuilding the index — at any `UOF_THREADS`, in any interest order, for
//! any subset of interests — reproduces identical bits. Because the draws
//! are **common random numbers** across model mutations, a mutation that
//! raises every `p_vi` (e.g. [`crate::world::World::scale_budget_factor`]
//! with ratio > 1) grows each membership set monotonically. An index is
//! stamped with the [`crate::world::World::generation`] it was built under;
//! [`ReachIndex::is_current`] is the staleness probe, and the generation
//! counter is the same epoch the `reach-cache` invalidates on, so one
//! mutation event retires both layers.
//!
//! # When to use which oracle
//!
//! The float engine returns the *expectation* of the audience over the
//! latent model — noise-free, the right oracle for calibration and for the
//! paper's `N_P` fits. The index returns the audience of one *realized*
//! panel draw — exact integer semantics (cross-checked against a boolean
//! reference scan bit-for-bit), statistically consistent with the
//! expectation at `O(1/√count)` relative error, and orders of magnitude
//! faster. Serving layers that need throughput opt in with
//! [`IndexConfig::enabled`].

use rayon::prelude::*;

use crate::catalog::{InterestCatalog, InterestId};
use crate::panel::{carriage, Panel};
use crate::reach::CountryFilter;
use crate::world::World;

/// Users per posting-list block (64 `u64` words).
pub const BLOCK_USERS: usize = 4_096;

/// Words per full block.
const BLOCK_WORDS: usize = BLOCK_USERS / 64;

/// Blocks with fewer members than this store a sorted offset list instead
/// of a bitmap (2 bytes × members < 8 bytes × words).
pub const SPARSE_MAX: usize = 256;

/// Opt-in switch for the sampled-count index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Whether index-backed sampled counts are offered at all.
    pub enabled: bool,
}

impl Default for IndexConfig {
    /// Disabled: the expected-value float engine stays the default oracle.
    fn default() -> Self {
        Self { enabled: false }
    }
}

impl IndexConfig {
    /// An explicitly enabled configuration.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }

    /// An explicitly disabled configuration.
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// One block's membership, dense or sparse (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Container {
    /// Bitmap over the block's users (last block may be short).
    Dense(Vec<u64>),
    /// Sorted in-block user offsets.
    Sparse(Vec<u16>),
}

impl Container {
    fn heap_bytes(&self) -> usize {
        match self {
            Container::Dense(words) => words.len() * std::mem::size_of::<u64>(),
            Container::Sparse(offsets) => offsets.len() * std::mem::size_of::<u16>(),
        }
    }
}

/// Bit-packed panel membership of one interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostingList {
    containers: Vec<Container>,
    members: u64,
}

impl PostingList {
    /// Packs a block-aligned member bitmap into containers.
    fn from_words(words: &[u64], panel_len: usize) -> Self {
        let mut containers = Vec::with_capacity(panel_len.div_ceil(BLOCK_USERS));
        let mut members = 0u64;
        for (b, block) in words.chunks(BLOCK_WORDS).enumerate() {
            let count: u32 = block.iter().map(|w| w.count_ones()).sum();
            members += u64::from(count);
            if (count as usize) < SPARSE_MAX {
                let mut offsets = Vec::with_capacity(count as usize);
                for (w, &word) in block.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let bit = bits.trailing_zeros() as usize;
                        offsets.push((w * 64 + bit) as u16);
                        bits &= bits - 1;
                    }
                }
                containers.push(Container::Sparse(offsets));
            } else {
                containers.push(Container::Dense(block.to_vec()));
            }
            debug_assert!(b * BLOCK_USERS < panel_len);
        }
        Self { containers, members }
    }

    /// Total members across the panel.
    pub fn members(&self) -> u64 {
        self.members
    }

    /// Heap footprint of the containers in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.containers.iter().map(Container::heap_bytes).sum()
    }

    /// `(dense, sparse)` container counts — layout diagnostics for the
    /// bench report.
    pub fn container_mix(&self) -> (usize, usize) {
        let dense = self.containers.iter().filter(|c| matches!(c, Container::Dense(_))).count();
        (dense, self.containers.len() - dense)
    }

    /// ANDs this posting list into a panel-wide word accumulator.
    fn intersect_into(&self, acc: &mut [u64]) {
        for (b, container) in self.containers.iter().enumerate() {
            let lo = b * BLOCK_WORDS;
            match container {
                Container::Dense(words) => {
                    for (slot, &word) in acc[lo..lo + words.len()].iter_mut().zip(words) {
                        *slot &= word;
                    }
                }
                Container::Sparse(offsets) => {
                    let hi = (lo + BLOCK_WORDS).min(acc.len());
                    let block = &mut acc[lo..hi];
                    let mut mask = [0u64; BLOCK_WORDS];
                    for &off in offsets {
                        mask[off as usize / 64] |= 1u64 << (off % 64);
                    }
                    for (slot, word) in block.iter_mut().zip(mask) {
                        *slot &= word;
                    }
                }
            }
        }
    }

    /// Expands into a panel-wide word accumulator (chain head).
    fn expand_into(&self, acc: &mut [u64]) {
        acc.fill(0);
        for (b, container) in self.containers.iter().enumerate() {
            let lo = b * BLOCK_WORDS;
            match container {
                Container::Dense(words) => {
                    acc[lo..lo + words.len()].copy_from_slice(words);
                }
                Container::Sparse(offsets) => {
                    for &off in offsets {
                        acc[lo + off as usize / 64] |= 1u64 << (off % 64);
                    }
                }
            }
        }
    }
}

/// SplitMix64 finalizer — the statistically solid single-round mixer.
/// Crate-visible: the shard-assignment hash (see [`crate::shard`]) reuses
/// it so shard ownership is a pure function of the seeded world config.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The uniform variate in `[0, 1)` for a (user, interest) pair — a pure
/// function of the draw seed and the pair, so rebuilds at any thread count
/// or interest order reproduce it exactly, and mutations of the carriage
/// model reuse the same draw (common random numbers).
#[inline]
fn pair_uniform(draw_seed: u64, user: u32, interest: u32) -> f64 {
    let key = (u64::from(user) << 32) | u64::from(interest);
    let bits = splitmix64(draw_seed ^ splitmix64(key));
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0) // 2^-53
}

/// Domain-separation constant mixed into the world seed for draws.
const DRAW_DOMAIN: u64 = 0xB17_9AC4_0E51;

/// The bit-packed posting-list index over a world's panel.
///
/// Built for all interests ([`ReachIndex::build`]) or a subset
/// ([`ReachIndex::build_for`]); queries over unbuilt interests return
/// `None`. See the module docs for layout and the determinism contract.
#[derive(Debug, Clone)]
pub struct ReachIndex {
    draw_seed: u64,
    generation: u64,
    panel_len: usize,
    scale: f64,
    /// Posting list per catalog interest id; `None` when not built.
    postings: Vec<Option<PostingList>>,
    /// Dense per-country membership bitmaps (country index 0..50).
    countries: Vec<Vec<u64>>,
    built: usize,
}

impl ReachIndex {
    /// Builds posting lists for **every** catalog interest. Parallel over
    /// interests; the result is independent of the thread count.
    pub fn build(world: &World) -> Self {
        let all: Vec<InterestId> = world.catalog().interests().iter().map(|i| i.id).collect();
        Self::build_for(world, &all)
    }

    /// Builds posting lists for `ids` only — the demand-driven mode a
    /// serving layer or bench uses when the query set is known. Duplicate
    /// ids are built once.
    ///
    /// # Panics
    ///
    /// Panics if an id is outside the catalog (same contract as the float
    /// engine's catalog lookup).
    pub fn build_for(world: &World, ids: &[InterestId]) -> Self {
        let catalog = world.catalog();
        let panel = world.panel();
        let draw_seed = world.config().seed ^ DRAW_DOMAIN;
        let _span = uof_telemetry::span!("engine.index_build", interests = ids.len(),);
        let mut postings: Vec<Option<PostingList>> = vec![None; catalog.len()];
        let built_lists: Vec<(u32, PostingList)> = ids
            .par_chunks(1)
            .map(|pair| {
                let id = pair[0];
                (id.0, materialize_interest(catalog, panel, draw_seed, id))
            })
            .collect();
        let mut built = 0;
        for (raw, list) in built_lists {
            let slot = &mut postings[raw as usize];
            if slot.is_none() {
                built += 1;
            }
            *slot = Some(list);
        }
        let word_len = panel.len().div_ceil(64);
        let mut countries = vec![vec![0u64; word_len]; 50];
        for (v, &country) in panel.countries().iter().enumerate() {
            countries[country as usize][v / 64] |= 1u64 << (v % 64);
        }
        Self {
            draw_seed,
            generation: world.generation(),
            panel_len: panel.len(),
            scale: panel.scale(),
            postings,
            countries,
            built,
        }
    }

    /// Materializes posting lists for any of `ids` not yet built — the
    /// demand-driven growth path a serving layer uses so each query only
    /// pays for interests it has never seen. Already-built ids are
    /// untouched, so the incremental result is bit-identical to a fresh
    /// [`ReachIndex::build_for`] over the union (the draws are pure
    /// functions of the pair).
    ///
    /// The caller must pass the **same world** the index was built from
    /// (checked by generation; a stale index must be rebuilt, not
    /// extended).
    ///
    /// # Panics
    ///
    /// Panics if `world` has moved to a different generation, or if an id
    /// is outside the catalog.
    pub fn extend_for(&mut self, world: &World, ids: &[InterestId]) {
        assert!(
            self.is_current(world),
            "cannot extend a stale index (index generation {}, world generation {})",
            self.generation,
            world.generation()
        );
        // The warm case: every id is built, so skip the catalog-sized
        // dedup scratch below.
        if ids.iter().all(|id| self.postings[id.0 as usize].is_some()) {
            return;
        }
        let catalog = world.catalog();
        let panel = world.panel();
        let missing: Vec<InterestId> = {
            let mut seen = vec![false; catalog.len()];
            ids.iter()
                .filter(|id| {
                    let raw = id.0 as usize;
                    let fresh = self.postings[raw].is_none() && !seen[raw];
                    if fresh {
                        seen[raw] = true;
                    }
                    fresh
                })
                .copied()
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let _span = uof_telemetry::span!("engine.index_extend", interests = missing.len(),);
        let draw_seed = self.draw_seed;
        let built: Vec<(u32, PostingList)> = missing
            .par_chunks(1)
            .map(|pair| {
                let id = pair[0];
                (id.0, materialize_interest(catalog, panel, draw_seed, id))
            })
            .collect();
        for (raw, list) in built {
            self.postings[raw as usize] = Some(list);
            self.built += 1;
        }
    }

    /// The [`World::generation`] this index was materialized under.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The seed all membership draws derive from (world seed ⊕ domain tag).
    pub fn draw_seed(&self) -> u64 {
        self.draw_seed
    }

    /// Whether the index still reflects the world's carriage model — the
    /// same epoch probe the reach-cache invalidates on.
    pub fn is_current(&self, world: &World) -> bool {
        self.generation == world.generation()
    }

    /// Number of interests with a materialized posting list.
    pub fn built_interests(&self) -> usize {
        self.built
    }

    /// Panel size the index covers.
    pub fn panel_len(&self) -> usize {
        self.panel_len
    }

    /// population / panel scale factor (for sampled-reach estimates).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The posting list of `id`, if built.
    pub fn posting(&self, id: InterestId) -> Option<&PostingList> {
        self.postings.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Heap footprint of all posting lists plus country bitmaps, in bytes.
    pub fn heap_bytes(&self) -> usize {
        let posting: usize = self.postings.iter().flatten().map(PostingList::heap_bytes).sum();
        let country: usize =
            self.countries.iter().map(|w| w.len() * std::mem::size_of::<u64>()).sum();
        posting + country
    }

    /// Exact number of panel members carrying **every** interest in `ids`
    /// within `filter`, or `None` if any interest lacks a posting list (or
    /// is outside the catalog). The empty conjunction counts the filter's
    /// panel membership. Bit-exact: equal to [`boolean_reference_count`]
    /// over the same world, at any thread count.
    pub fn conjunction_count(&self, ids: &[InterestId], filter: CountryFilter) -> Option<u64> {
        let _span = uof_telemetry::span!(
            "engine.index_count",
            interests = ids.len(),
            countries = filter.len(),
        );
        let acc = self.conjunction_words(ids, filter)?;
        Some(acc.iter().map(|w| u64::from(w.count_ones())).sum())
    }

    /// The panel-wide survivor bitmap of a conjunction under `filter`, or
    /// `None` if any interest lacks a posting list. An all-zero accumulator
    /// short-circuits the AND-chain but still returns the (zeroed) words so
    /// per-block callers see a complete bitmap.
    fn conjunction_words(&self, ids: &[InterestId], filter: CountryFilter) -> Option<Vec<u64>> {
        let word_len = self.panel_len.div_ceil(64);
        let mut acc = vec![0u64; word_len];
        match ids.split_first() {
            None => self.filter_words_into(filter, &mut acc),
            Some((&head, tail)) => {
                self.posting(head)?.expand_into(&mut acc);
                mask_panel_tail(&mut acc, self.panel_len);
                if !self.apply_filter(filter, &mut acc) {
                    acc.fill(0);
                    return Some(acc);
                }
                for &id in tail {
                    let list = self.posting(id)?;
                    list.intersect_into(&mut acc);
                    if acc.iter().all(|&w| w == 0) {
                        return Some(acc);
                    }
                }
            }
        }
        Some(acc)
    }

    /// Per-block conjunction counts for the [`BLOCK_USERS`]-sized blocks in
    /// `blocks` (global block indices), or `None` if any interest lacks a
    /// posting list. `result[k]` counts survivors inside block `blocks[k]`;
    /// summing the counts of **all** blocks equals
    /// [`ReachIndex::conjunction_count`] exactly — the sharding contract
    /// (index blocks coincide with the float engine's
    /// [`crate::reach::CHUNK_USERS`] chunks, so a shard owning a chunk set
    /// serves the same rows under either oracle).
    ///
    /// # Panics
    ///
    /// Panics if a block index is out of range.
    pub fn conjunction_count_in_blocks(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        blocks: &[usize],
    ) -> Option<Vec<u64>> {
        let _span = uof_telemetry::span!(
            "engine.index_count_blocks",
            interests = ids.len(),
            blocks = blocks.len(),
        );
        let nblocks = self.panel_len.div_ceil(BLOCK_USERS);
        let acc = self.conjunction_words(ids, filter)?;
        Some(
            blocks
                .iter()
                .map(|&b| {
                    assert!(
                        b < nblocks,
                        "block index {b} out of range (panel has {nblocks} blocks)"
                    );
                    let lo = b * BLOCK_WORDS;
                    let hi = (lo + BLOCK_WORDS).min(acc.len());
                    acc[lo..hi].iter().map(|w| u64::from(w.count_ones())).sum()
                })
                .collect(),
        )
    }

    /// The sampled-count reach estimate: `conjunction_count × scale`, the
    /// index's answer to the float engine's
    /// [`crate::reach::ReachEngine::conjunction_reach_in`].
    pub fn sampled_reach(&self, ids: &[InterestId], filter: CountryFilter) -> Option<f64> {
        self.conjunction_count(ids, filter).map(|n| n as f64 * self.scale)
    }

    /// Fills `acc` with the filter's membership bitmap.
    fn filter_words_into(&self, filter: CountryFilter, acc: &mut [u64]) {
        acc.fill(0);
        if filter == CountryFilter::ALL {
            acc.fill(u64::MAX);
            mask_panel_tail(acc, self.panel_len);
            return;
        }
        for (c, words) in self.countries.iter().enumerate() {
            if filter.contains(c as u16) {
                for (slot, &word) in acc.iter_mut().zip(words) {
                    *slot |= word;
                }
            }
        }
    }

    /// ANDs the filter into `acc`; returns `false` when the result is
    /// already empty (worldwide filters are a no-op).
    fn apply_filter(&self, filter: CountryFilter, acc: &mut [u64]) -> bool {
        if filter == CountryFilter::ALL {
            return true;
        }
        let mut union = vec![0u64; acc.len()];
        self.filter_words_into(filter, &mut union);
        for (slot, word) in acc.iter_mut().zip(union) {
            *slot &= word;
        }
        acc.iter().any(|&w| w != 0)
    }
}

/// Zeroes the bits past the panel length in the last word.
fn mask_panel_tail(acc: &mut [u64], panel_len: usize) {
    let tail = panel_len % 64;
    if tail != 0 {
        if let Some(last) = acc.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Materializes one interest's membership draws into a posting list.
fn materialize_interest(
    catalog: &InterestCatalog,
    panel: &Panel,
    draw_seed: u64,
    id: InterestId,
) -> PostingList {
    let interest = catalog.interest(id);
    let panel_len = panel.len();
    let mut words = vec![0u64; panel_len.div_ceil(64)];
    let mut x = vec![0.0f64; BLOCK_USERS];
    for lo in (0..panel_len).step_by(BLOCK_USERS) {
        let x = &mut x[..BLOCK_USERS.min(panel_len - lo)];
        panel.carriage_exponents(lo, interest.score, interest.topic, x);
        for (v, &xv) in (lo..).zip(x.iter()) {
            if pair_uniform(draw_seed, v as u32, id.0) < carriage(xv) {
                words[v / 64] |= 1u64 << (v % 64);
            }
        }
    }
    PostingList::from_words(&words, panel_len)
}

/// The boolean reference scan the index is cross-checked against: walks the
/// panel user by user, evaluating the **same** membership draws the index
/// materializes, and counts users carrying every interest within `filter`.
/// `ReachIndex::conjunction_count` must equal this exactly, for any subset
/// of interests, any filter, and any thread count.
///
/// # Panics
///
/// Panics if an id is outside the catalog.
pub fn boolean_reference_count(world: &World, ids: &[InterestId], filter: CountryFilter) -> u64 {
    let catalog = world.catalog();
    let panel = world.panel();
    let draw_seed = world.config().seed ^ DRAW_DOMAIN;
    let params: Vec<(u32, f64, crate::catalog::TopicId)> = ids
        .iter()
        .map(|&id| {
            let i = catalog.interest(id);
            (id.0, i.score, i.topic)
        })
        .collect();
    let mut count = 0u64;
    for (v, &country) in panel.countries().iter().enumerate() {
        if !filter.contains(country) {
            continue;
        }
        let carries_all = params.iter().all(|&(raw, score, topic)| {
            let p = panel.carriage_probability(v, score, topic);
            pair_uniform(draw_seed, v as u32, raw) < p
        });
        if carries_all {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| {
            let mut cfg = WorldConfig::test_scale(77);
            cfg.n_interests = 600;
            cfg.panel_size = 9_000; // not a multiple of 64 or 4096: tail coverage
            World::generate(cfg).unwrap()
        })
    }

    fn index() -> &'static ReachIndex {
        static INDEX: OnceLock<ReachIndex> = OnceLock::new();
        INDEX.get_or_init(|| ReachIndex::build(world()))
    }

    #[test]
    fn index_counts_match_boolean_reference_scan() {
        let idx = index();
        let cases: Vec<Vec<InterestId>> = vec![
            vec![],
            vec![InterestId(0)],
            vec![InterestId(3), InterestId(17)],
            (0..8).map(|i| InterestId(i * 71 % 600)).collect(),
            (0..25).map(|i| InterestId(i * 23 % 600)).collect(),
        ];
        for filter in [CountryFilter::ALL, CountryFilter::of(&[0]), CountryFilter::of(&[1, 7, 31])]
        {
            for ids in &cases {
                let got = idx.conjunction_count(ids, filter).expect("all interests built");
                let want = boolean_reference_count(world(), ids, filter);
                assert_eq!(got, want, "ids {ids:?} filter {:#x}", filter.bits());
            }
        }
    }

    #[test]
    fn index_counts_identical_across_thread_counts() {
        let ids: Vec<InterestId> = (0..12).map(|i| InterestId(i * 31 % 600)).collect();
        let base_count = index().conjunction_count(&ids, CountryFilter::ALL);
        for threads in [1, 2, 5] {
            let rebuilt =
                rayon::with_thread_count(threads, || ReachIndex::build_for(world(), &ids));
            assert_eq!(rebuilt.conjunction_count(&ids, CountryFilter::ALL), base_count);
            // The materialized bits themselves are identical, not just the
            // final count.
            for &id in &ids {
                assert_eq!(rebuilt.posting(id), index().posting(id), "interest {id:?}");
            }
        }
    }

    #[test]
    fn empty_conjunction_counts_filter_membership() {
        let idx = index();
        assert_eq!(idx.conjunction_count(&[], CountryFilter::ALL), Some(idx.panel_len() as u64));
        let us = idx.conjunction_count(&[], CountryFilter::of(&[0])).expect("built");
        let panel_us = world().panel().countries().iter().filter(|&&c| c == 0).count() as u64;
        assert_eq!(us, panel_us);
        assert_eq!(idx.conjunction_count(&[], CountryFilter::from_bits(0)), Some(0));
    }

    #[test]
    fn block_counts_sum_to_conjunction_count() {
        let idx = index();
        let nblocks = idx.panel_len().div_ceil(BLOCK_USERS);
        let all_blocks: Vec<usize> = (0..nblocks).collect();
        let cases: Vec<Vec<InterestId>> = vec![
            vec![],
            vec![InterestId(3), InterestId(17)],
            (0..8).map(|i| InterestId(i * 71 % 600)).collect(),
        ];
        for filter in [CountryFilter::ALL, CountryFilter::of(&[0]), CountryFilter::of(&[1, 7, 31])]
        {
            for ids in &cases {
                let per_block =
                    idx.conjunction_count_in_blocks(ids, filter, &all_blocks).expect("built");
                assert_eq!(per_block.len(), nblocks);
                let total: u64 = per_block.iter().sum();
                assert_eq!(
                    Some(total),
                    idx.conjunction_count(ids, filter),
                    "ids {ids:?} filter {:#x}",
                    filter.bits()
                );
                // A subset query returns the same per-block values.
                let subset = [nblocks - 1, 0];
                let got = idx.conjunction_count_in_blocks(ids, filter, &subset).expect("built");
                assert_eq!(got, vec![per_block[nblocks - 1], per_block[0]]);
            }
        }
    }

    #[test]
    fn block_counts_report_missing_postings() {
        let idx = ReachIndex::build_for(world(), &[InterestId(1)]);
        assert_eq!(
            idx.conjunction_count_in_blocks(
                &[InterestId(1), InterestId(2)],
                CountryFilter::ALL,
                &[0]
            ),
            None
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_counts_reject_out_of_range_blocks() {
        let idx = index();
        let nblocks = idx.panel_len().div_ceil(BLOCK_USERS);
        let _ = idx.conjunction_count_in_blocks(&[], CountryFilter::ALL, &[nblocks]);
    }

    #[test]
    fn country_filters_partition_counts() {
        let idx = index();
        let ids = [InterestId(5)];
        let all = idx.conjunction_count(&ids, CountryFilter::ALL).expect("built");
        let us = idx.conjunction_count(&ids, CountryFilter::of(&[0])).expect("built");
        let rest = idx
            .conjunction_count(&ids, CountryFilter::from_bits(CountryFilter::ALL.bits() & !1))
            .expect("built");
        assert_eq!(us + rest, all);
    }

    #[test]
    fn sampled_reach_statistically_consistent_with_float_engine() {
        // The index realizes one Bernoulli draw per pair, so a count with
        // expectation E has ~√E noise; compare within 6σ (plus a small
        // absolute guard for near-floor audiences).
        let idx = index();
        let engine = world().reach_engine();
        let scale = idx.scale();
        for raw in [0u32, 9, 50, 200, 599] {
            let ids = [InterestId(raw)];
            let expectation = engine.conjunction_reach_in(&ids, CountryFilter::ALL) / scale;
            let count = idx.conjunction_count(&ids, CountryFilter::ALL).expect("built") as f64;
            let sigma = expectation.sqrt().max(1.0);
            assert!(
                (count - expectation).abs() <= 6.0 * sigma + 3.0,
                "interest {raw}: count {count} vs expectation {expectation}"
            );
        }
        // A correlated 2-interest conjunction keeps a sizeable audience.
        let topic = world().catalog().interest(InterestId(0)).topic;
        let same_topic: Vec<InterestId> = world()
            .catalog()
            .interests()
            .iter()
            .filter(|i| i.topic == topic)
            .take(2)
            .map(|i| i.id)
            .collect();
        let expectation = engine.conjunction_reach_in(&same_topic, CountryFilter::ALL) / scale;
        let count = idx.conjunction_count(&same_topic, CountryFilter::ALL).expect("built") as f64;
        let sigma = expectation.sqrt().max(1.0);
        assert!(
            (count - expectation).abs() <= 6.0 * sigma + 3.0,
            "conjunction: count {count} vs expectation {expectation}"
        );
    }

    #[test]
    fn partial_build_answers_built_and_declines_missing() {
        let built = [InterestId(1), InterestId(2)];
        let idx = ReachIndex::build_for(world(), &built);
        assert_eq!(idx.built_interests(), 2);
        assert!(idx.conjunction_count(&built, CountryFilter::ALL).is_some());
        assert_eq!(idx.conjunction_count(&[InterestId(3)], CountryFilter::ALL), None);
        assert_eq!(
            idx.conjunction_count(&[InterestId(1), InterestId(3)], CountryFilter::ALL),
            None
        );
        assert!(idx.posting(InterestId(3)).is_none());
        // Out-of-catalog ids decline rather than panic.
        assert_eq!(idx.conjunction_count(&[InterestId(60_000)], CountryFilter::ALL), None);
    }

    #[test]
    fn incremental_extension_is_bit_identical_to_fresh_build() {
        let a = [InterestId(10), InterestId(20)];
        let b = [InterestId(20), InterestId(30), InterestId(30)];
        let mut grown = ReachIndex::build_for(world(), &a);
        grown.extend_for(world(), &b);
        assert_eq!(grown.built_interests(), 3);
        let union = [InterestId(10), InterestId(20), InterestId(30)];
        let fresh = ReachIndex::build_for(world(), &union);
        for &id in &union {
            assert_eq!(grown.posting(id), fresh.posting(id), "interest {id:?}");
        }
        assert_eq!(
            grown.conjunction_count(&union, CountryFilter::ALL),
            fresh.conjunction_count(&union, CountryFilter::ALL)
        );
        // Extending with already-built ids is a no-op.
        grown.extend_for(world(), &a);
        assert_eq!(grown.built_interests(), 3);
    }

    #[test]
    fn extending_with_only_built_ids_changes_nothing() {
        let built = [InterestId(5), InterestId(15), InterestId(25)];
        let before = ReachIndex::build_for(world(), &built);
        let mut after = before.clone();
        after.extend_for(world(), &[InterestId(25), InterestId(5), InterestId(5)]);
        after.extend_for(world(), &[]);
        assert_eq!(after.built_interests(), before.built_interests());
        assert_eq!(after.heap_bytes(), before.heap_bytes());
        for raw in 0..world().catalog().len() as u32 {
            let id = InterestId(raw);
            assert_eq!(after.posting(id), before.posting(id), "interest {raw}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot extend a stale index")]
    fn extending_a_stale_index_panics() {
        let mut w = World::generate(WorldConfig::test_scale(47)).unwrap();
        let mut idx = ReachIndex::build_for(&w, &[InterestId(0)]);
        w.scale_budget_factor(2.0);
        idx.extend_for(&w, &[InterestId(1)]);
    }

    #[test]
    fn duplicate_ids_in_build_and_query_are_harmless() {
        let ids = [InterestId(4), InterestId(4), InterestId(4)];
        let idx = ReachIndex::build_for(world(), &ids);
        assert_eq!(idx.built_interests(), 1);
        let single = idx.conjunction_count(&[InterestId(4)], CountryFilter::ALL);
        assert_eq!(idx.conjunction_count(&ids, CountryFilter::ALL), single);
    }

    #[test]
    fn container_mix_matches_popularity() {
        // A popular interest (large audience) should have dense blocks; the
        // panel-wide member count always reconciles with the containers.
        let idx = index();
        let mut saw_dense = false;
        let mut saw_sparse = false;
        for interest in world().catalog().interests() {
            let list = idx.posting(interest.id).expect("full build");
            let (dense, sparse) = list.container_mix();
            assert_eq!(dense + sparse, idx.panel_len().div_ceil(BLOCK_USERS));
            saw_dense |= dense > 0;
            saw_sparse |= sparse > 0;
            let via_count =
                idx.conjunction_count(&[interest.id], CountryFilter::ALL).expect("built");
            assert_eq!(via_count, list.members());
        }
        assert!(saw_dense, "some popular interest should pack dense blocks");
        assert!(saw_sparse, "some rare interest should pack sparse blocks");
    }

    #[test]
    fn generation_stamps_and_mutation_monotonicity() {
        let mut w = World::generate(WorldConfig::test_scale(31)).unwrap();
        let ids: Vec<InterestId> = (0..6).map(|i| InterestId(i * 101)).collect();
        let before = ReachIndex::build_for(&w, &ids);
        assert!(before.is_current(&w));
        let count_before = before.conjunction_count(&ids[..2], CountryFilter::ALL);
        w.scale_budget_factor(1.5);
        assert!(!before.is_current(&w), "mutation must stale the index");
        let after = ReachIndex::build_for(&w, &ids);
        assert!(after.is_current(&w));
        assert!(after.generation() > before.generation());
        // Common random numbers: raising every carriage probability grows
        // each membership set monotonically.
        let count_after = after.conjunction_count(&ids[..2], CountryFilter::ALL);
        assert!(count_after >= count_before, "{count_after:?} vs {count_before:?}");
        for &id in &ids {
            let (b, a) = (before.posting(id), after.posting(id));
            let (b, a) = (b.expect("built"), a.expect("built"));
            assert!(a.members() >= b.members(), "interest {id:?} shrank under growth");
        }
        assert_eq!(
            after.conjunction_count(&ids, CountryFilter::ALL),
            Some(boolean_reference_count(&w, &ids, CountryFilter::ALL)),
            "rebuilt index still matches the reference scan"
        );
    }

    #[test]
    fn heap_accounting_is_positive_and_bounded() {
        let idx = index();
        let bytes = idx.heap_bytes();
        assert!(bytes > 0);
        // Posting lists can never exceed one dense bitmap per interest plus
        // the country bitmaps.
        let word_len = idx.panel_len().div_ceil(64);
        let dense_cap = (idx.built_interests() + 50) * (word_len + BLOCK_WORDS) * 8;
        assert!(bytes <= dense_cap, "{bytes} > {dense_cap}");
    }

    #[test]
    fn index_config_env_contract() {
        assert!(!IndexConfig::default().enabled);
        assert!(IndexConfig::enabled().enabled);
        assert!(!IndexConfig::disabled().enabled);
    }

    #[test]
    fn pair_uniform_is_in_unit_interval_and_spread() {
        let mut sum = 0.0;
        for v in 0..1_000u32 {
            let u = pair_uniform(42, v, 7);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 1_000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }
}
