//! # reach-cache
//!
//! Sharded, single-flight, epoch-invalidated query cache for the *Potential
//! Reach* service of the *Unique on Facebook* (IMC 2021) reproduction.
//!
//! The paper's data collection hammers the Ads Manager reach endpoint with
//! highly repetitive queries: the same audiences re-checked across sessions,
//! and — in the uniqueness pipeline — 25-interest *nested* sweeps whose
//! prefixes overlap heavily (Section 4.1 queries every prefix of each
//! user's interest list). The real endpoint sits behind Facebook's own
//! result caches; this crate gives the simulated endpoint the same layer,
//! with three properties the reproduction cares about:
//!
//! 1. **Bit-identical transparency.** A cached answer is the same `f64`,
//!    bit for bit, as an uncached recomputation — at any thread count.
//!    Conjunction answers are memoized verbatim; nested sweeps are resumed
//!    via [`fbsim_population::ReachEngine::sweep_extend`], whose chunk
//!    partition and reduction order reproduce the one-shot sweep exactly.
//! 2. **Deduplication under concurrency.** Identical in-flight queries from
//!    different connections run the engine once (single-flight leaders);
//!    followers block and share the result.
//! 3. **Correctness across mutation.** The world's
//!    [`generation`](fbsim_population::World::generation) counter stamps
//!    every entry; [`ReachCache::sync_generation`] bumps the cache epoch
//!    when the world changes, and stale entries are discarded lazily on
//!    their next touch.
//!
//! Layering: `reach-api` connection threads → [`ReachCache`] →
//! [`fbsim_population::ReachEngine`] or the posting-list index. The facade
//! exposes three namespaces — [`ReachCache::reach`] for scalar conjunction
//! queries, [`ReachCache::nested_reaches_in`] for prefix sweeps with
//! **prefix memoization** (a 25-interest sweep whose 20-interest prefix is
//! resident only pays for the 5-interest tail), and
//! [`ReachCache::sampled_blocks`] for sampled counts, memoized per panel
//! block so one entry answers a single node (its sum) and every shard (its
//! own blocks).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod flight;
pub mod key;
pub mod lru;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ReachEngine, SweepState};

pub use cache::{CacheCounters, ShardedCache};
pub use config::{CacheConfig, CacheStats};
pub use key::{ConjunctionKey, PrefixKey};

/// A memoized nested sweep: the prefix reaches computed so far plus the
/// resumable per-user state that lets a longer sweep pay only for its tail.
#[derive(Debug)]
pub struct PrefixEntry {
    reaches: Vec<f64>,
    state: SweepState,
}

impl PrefixEntry {
    /// The reach of every prefix of the memoized sequence.
    pub fn reaches(&self) -> &[f64] {
        &self.reaches
    }

    /// Heap footprint in bytes (sweep state dominates).
    pub fn heap_bytes(&self) -> usize {
        self.state.heap_bytes() + self.reaches.len() * std::mem::size_of::<f64>()
    }
}

/// The query cache between the reach server and the reach engine.
#[derive(Debug)]
pub struct ReachCache {
    config: CacheConfig,
    conjunctions: ShardedCache<ConjunctionKey, f64>,
    prefixes: ShardedCache<PrefixKey, Arc<PrefixEntry>>,
    /// Sampled conjunctions' member counts, one per panel block.
    sampled: ShardedCache<ConjunctionKey, Arc<[u64]>>,
    /// Last world generation observed by [`ReachCache::sync_generation`].
    /// Starts at a sentinel no world can report, so the first sync always
    /// establishes a clean epoch.
    last_generation: AtomicU64,
    prefix_extensions: AtomicU64,
}

impl ReachCache {
    /// Builds a cache with the given knobs (capacities and shard counts are
    /// clamped to ≥ 1; call [`CacheConfig::validate`] first to reject rather
    /// than clamp).
    pub fn new(config: CacheConfig) -> Self {
        Self {
            conjunctions: ShardedCache::new(config.capacity, config.shards),
            prefixes: ShardedCache::new(config.prefix_capacity, config.shards),
            sampled: ShardedCache::new(config.capacity, config.shards),
            last_generation: AtomicU64::new(u64::MAX),
            prefix_extensions: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Whether lookups consult the cache at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Reconciles the cache with the world's mutation generation: if it
    /// differs from the last observed value, the epoch advances and every
    /// resident entry becomes stale. Cheap when nothing changed (one atomic
    /// swap), so callers invoke it on every request.
    pub fn sync_generation(&self, generation: u64) {
        if self.last_generation.swap(generation, Ordering::SeqCst) != generation {
            self.bump_epoch();
        }
    }

    /// Unconditionally invalidates all three namespaces.
    pub fn bump_epoch(&self) {
        self.conjunctions.bump_epoch();
        self.prefixes.bump_epoch();
        self.sampled.bump_epoch();
    }

    /// The conjunction-reach of `interests` under `filter` and an optional
    /// demographic `age` window, memoized. `compute` must be the pure
    /// uncached evaluation; it runs at most once per (key, epoch) across
    /// all threads, and its result is returned bit-identically thereafter.
    ///
    /// The cache key canonicalizes the interest set (sorted, deduped), so
    /// permuted or duplicated spellings of one audience share an entry —
    /// callers must canonicalize the same way before computing, which the
    /// reach server does.
    pub fn reach(
        &self,
        interests: &[InterestId],
        filter: CountryFilter,
        age: Option<(u8, u8)>,
        compute: impl Fn() -> f64,
    ) -> f64 {
        if !self.config.enabled {
            return compute();
        }
        let key = ConjunctionKey::new(interests, filter, age);
        self.conjunctions.get_or_compute(&key, compute)
    }

    /// The reach of every prefix of `ids` under `filter`, with prefix
    /// memoization: if a proper prefix of `ids` is resident, its sweep
    /// state is resumed and only the tail is evaluated. Answers are
    /// bit-identical to [`ReachEngine::nested_reaches_in`] — the resumable
    /// sweep reproduces the one-shot chunk partition and reduction order
    /// exactly (see [`ReachEngine::sweep_begin`]).
    pub fn nested_reaches_in(
        &self,
        engine: &ReachEngine<'_>,
        ids: &[InterestId],
        filter: CountryFilter,
    ) -> Vec<f64> {
        if ids.is_empty() {
            return Vec::new();
        }
        if !self.config.enabled {
            return engine.nested_reaches_in(ids, filter);
        }
        let key = PrefixKey::new(ids, filter);
        let entry = self.prefixes.get_or_compute(&key, || {
            // Longest resident proper prefix, probed leader-side (the shard
            // lock is not held here, so same-shard probes are fine).
            for len in (1..ids.len()).rev() {
                let prefix = PrefixKey::prefix(ids, len, filter);
                if let Some(resident) = self.prefixes.peek(&prefix) {
                    self.prefix_extensions.fetch_add(1, Ordering::Relaxed);
                    let (tail, state) = engine.sweep_extend(&resident.state, &ids[len..]);
                    let mut reaches = resident.reaches.clone();
                    reaches.extend(tail);
                    return Arc::new(PrefixEntry { reaches, state });
                }
            }
            let begin = engine.sweep_begin(filter);
            let (reaches, state) = engine.sweep_extend(&begin, ids);
            Arc::new(PrefixEntry { reaches, state })
        });
        entry.reaches.clone()
    }

    /// The member count of the sampled conjunction `interests` under
    /// `filter` in every panel block, memoized under the same canonical
    /// [`ConjunctionKey`] as [`ReachCache::reach`] (no age window). A
    /// single node sums the blocks; a shard backend reads its own.
    ///
    /// `compute` must return the counts of **all** blocks, in block order,
    /// or `None` when the index cannot answer; `None` is returned and not
    /// cached. With the cache disabled `compute` runs every time.
    pub fn sampled_blocks(
        &self,
        interests: &[InterestId],
        filter: CountryFilter,
        compute: impl Fn() -> Option<Arc<[u64]>>,
    ) -> Option<Arc<[u64]>> {
        if !self.config.enabled {
            return compute();
        }
        let key = ConjunctionKey::new(interests, filter, None);
        self.sampled.get_or_try_compute(&key, || compute().ok_or(())).ok()
    }

    /// Event counters of the sampled namespace. They stay out of
    /// [`CacheStats`], whose fields are the `stats` wire payload.
    pub fn sampled_counters(&self) -> CacheCounters {
        self.sampled.counters()
    }

    /// Resident sampled-namespace entries.
    pub fn sampled_entries(&self) -> usize {
        self.sampled.len()
    }

    /// A point-in-time stats snapshot.
    ///
    /// The counters are per-shard relaxed atomics read non-atomically as a
    /// group: while writers are active the snapshot may lag in-flight
    /// operations and mix per-field progress (e.g. a miss counted whose
    /// insertion is not yet visible). Each field is individually monotone,
    /// and after quiescence the snapshot is exact — see the tear-tolerance
    /// contract on `ShardedCache::counters` and the
    /// `counters_exact_after_quiescence` test. Observability only: never
    /// branch on these values for correctness.
    pub fn stats(&self) -> CacheStats {
        let conj = self.conjunctions.counters();
        let pref = self.prefixes.counters();
        CacheStats {
            enabled: self.config.enabled,
            epoch: self.conjunctions.epoch(),
            shards: self.conjunctions.shard_count(),
            capacity: self.config.capacity,
            entries: self.conjunctions.len(),
            hits: conj.hits,
            misses: conj.misses,
            single_flight_waits: conj.waits + pref.waits,
            insertions: conj.insertions,
            evictions: conj.evictions,
            invalidations: conj.invalidations + pref.invalidations,
            prefix_entries: self.prefixes.len(),
            prefix_hits: pref.hits,
            prefix_misses: pref.misses,
            prefix_extensions: self.prefix_extensions.load(Ordering::Relaxed),
        }
    }

    /// Per-shard conjunction-namespace counters, in shard order (stats
    /// endpoint detail view and tests).
    pub fn per_shard_counters(&self) -> Vec<CacheCounters> {
        self.conjunctions.per_shard_counters()
    }
}
