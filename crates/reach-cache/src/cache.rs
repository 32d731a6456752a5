//! The sharded, single-flight, epoch-invalidated cache.
//!
//! [`ShardedCache`] splits its key space across `N` independent shards
//! (key-hash modulo `N`, with the deterministic [`crate::key::Fnv1a`]
//! routing hash), each behind its own mutex, so concurrent connection
//! threads rarely contend on the same lock. Within a shard:
//!
//! * a [`LruMap`] bounds residency, with entries stamped by the **epoch**
//!   they were computed under — a bump of the cache-wide epoch counter
//!   lazily invalidates every older entry the next time it is touched;
//! * a flight table deduplicates concurrent misses: the first thread to
//!   miss becomes the *leader* and computes **without holding the shard
//!   lock** (so a computation may itself probe the cache, as the prefix
//!   memoizer does); followers block on the [`Flight`] and receive the
//!   leader's value.
//!
//! Per-shard hit / miss / wait / insertion / eviction / invalidation
//! counters are plain relaxed atomics — observability only, never control
//! flow.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{BuildHasherDefault, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::flight::Flight;
use crate::key::{stable_hash, Fnv1a};
use crate::lru::LruMap;

/// Snapshot of one shard's (or the whole cache's) event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from a resident, current-epoch entry.
    pub hits: u64,
    /// Lookups that ran the computation (single-flight leaders).
    pub misses: u64,
    /// Lookups that blocked on another thread's in-flight computation.
    pub waits: u64,
    /// Entries written into the LRU.
    pub insertions: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Stale-epoch entries discarded on access.
    pub invalidations: u64,
}

impl CacheCounters {
    fn absorb(&mut self, other: CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.waits += other.waits;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }
}

/// A value stamped with the epoch it was computed under.
#[derive(Debug)]
struct Stamped<V> {
    epoch: u64,
    value: V,
}

/// Mutex-protected shard state: resident entries + in-flight computations.
#[derive(Debug)]
struct ShardInner<K, V> {
    entries: LruMap<K, Stamped<V>>,
    flights: HashMap<K, Arc<Flight<V>>, BuildHasherDefault<Fnv1a>>,
}

/// One shard: its state plus lock-free event counters.
#[derive(Debug)]
struct Shard<K, V> {
    inner: Mutex<ShardInner<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(ShardInner {
                entries: LruMap::new(capacity),
                flights: HashMap::default(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Reads the shard's six counters as a group of independent relaxed
    /// loads — **not** an atomic snapshot. See
    /// [`ShardedCache::counters`] for the tear-tolerance contract.
    fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Outcome of probing a shard's LRU under the lock.
enum Probe<V> {
    Fresh(V),
    Stale,
    Missing,
}

/// What a thread found on a miss path.
enum Role<V> {
    Hit(V),
    Lead(Arc<Flight<V>>),
    Wait(Arc<Flight<V>>),
}

/// Unwinding insurance for a single-flight leader: if the computation
/// panics or fails, the guard removes the flight from the shard table and
/// abandons it so blocked followers retry instead of hanging forever.
struct LeaderGuard<'a, K: Hash + Eq + Clone, V> {
    shard: &'a Shard<K, V>,
    key: &'a K,
    flight: &'a Arc<Flight<V>>,
    armed: bool,
}

impl<K: Hash + Eq + Clone, V> Drop for LeaderGuard<'_, K, V> {
    fn drop(&mut self) {
        if self.armed {
            self.shard.inner.lock().flights.remove(self.key);
            self.flight.abandon();
        }
    }
}

/// A sharded, bounded, epoch-invalidated map with single-flight misses.
#[derive(Debug)]
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    epoch: AtomicU64,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedCache<K, V> {
    /// A cache of at most `capacity` entries spread over `shards` shards
    /// (both clamped to ≥ 1). Each shard holds `⌈capacity / shards⌉`
    /// entries, so total residency never exceeds `capacity + shards - 1`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.max(1);
        let per_shard = capacity.div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Shard::new(per_shard)).collect(),
            epoch: AtomicU64::new(0),
            capacity,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Configured total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The current invalidation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the epoch, lazily invalidating every resident entry:
    /// stale-stamped entries are discarded the next time they are touched.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Total resident entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().entries.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated counters across all shards.
    ///
    /// # Tear tolerance
    ///
    /// The per-shard counters are independent relaxed atomics read one by
    /// one, not under any lock, so a snapshot taken **while writers are
    /// active** is not a consistent cut: it can capture an operation's
    /// `misses` increment but not yet its `insertions` increment, or
    /// different shards at different moments. What IS guaranteed:
    ///
    /// * each individual counter is monotone — two snapshots `a` then `b`
    ///   satisfy `a.field <= b.field` for every field;
    /// * after quiescence (all worker threads joined, happens-before
    ///   established), a snapshot is exact: every field equals the true
    ///   operation count (see the `counters_exact_after_quiescence` test);
    /// * torn reads can never panic, wrap, or invent events — only lag.
    ///
    /// These counters are observability data; nothing in the cache (or in
    /// callers) may branch on them for correctness.
    pub fn counters(&self) -> CacheCounters {
        let mut total = CacheCounters::default();
        for shard in &self.shards {
            total.absorb(shard.counters());
        }
        total
    }

    /// Per-shard counter snapshots, in shard-index order. Tear-tolerant
    /// like [`ShardedCache::counters`].
    pub fn per_shard_counters(&self) -> Vec<CacheCounters> {
        self.shards.iter().map(Shard::counters).collect()
    }

    fn shard_for(&self, key: &K) -> &Shard<K, V> {
        let index = (stable_hash(key) % self.shards.len() as u64) as usize;
        &self.shards[index]
    }

    /// Probes the LRU under the shard lock, discarding a stale entry.
    fn probe(inner: &mut ShardInner<K, V>, key: &K, epoch: u64) -> Probe<V> {
        let found = match inner.entries.get(key) {
            Some(stamped) if stamped.epoch == epoch => Probe::Fresh(stamped.value.clone()),
            Some(_) => Probe::Stale,
            None => Probe::Missing,
        };
        if matches!(found, Probe::Stale) {
            inner.entries.remove(key);
        }
        found
    }

    /// Looks `key` up without joining or starting a flight. Refreshes the
    /// entry's recency on a hit (a probed entry is a useful entry); counts
    /// an invalidation — but **not** a hit or miss — so callers layering
    /// their own bookkeeping (the prefix memoizer) don't skew the stats.
    pub fn peek(&self, key: &K) -> Option<V> {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let shard = self.shard_for(key);
        let mut inner = shard.inner.lock();
        match Self::probe(&mut inner, key, epoch) {
            Probe::Fresh(value) => Some(value),
            Probe::Stale => {
                shard.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            Probe::Missing => None,
        }
    }

    /// Returns the cached value for `key`, computing it at most once across
    /// concurrent callers.
    ///
    /// The leader runs `compute` **without holding the shard lock**, so the
    /// closure may freely re-enter the cache (even the same shard). If the
    /// leader panics, followers wake, retry, and one of them becomes the
    /// next leader — which is why `compute` is `Fn`, not `FnOnce`. A value
    /// computed while the epoch moved is returned but not inserted; the
    /// follower path re-checks the epoch after waking for the same reason.
    pub fn get_or_compute(&self, key: &K, compute: impl Fn() -> V) -> V {
        let Ok(value) = self.get_or_try_compute(key, || Ok::<V, Infallible>(compute()));
        value
    }

    /// [`ShardedCache::get_or_compute`] for a computation that can fail. An
    /// `Err` is handed to the leader's caller and never cached: the flight
    /// is abandoned as if the leader had panicked, so each waiting follower
    /// retries, and the next leader computes again.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returned on this caller's leader turn.
    pub fn get_or_try_compute<E>(
        &self,
        key: &K,
        compute: impl Fn() -> Result<V, E>,
    ) -> Result<V, E> {
        loop {
            let epoch = self.epoch.load(Ordering::SeqCst);
            let shard = self.shard_for(key);
            let role = {
                let mut inner = shard.inner.lock();
                match Self::probe(&mut inner, key, epoch) {
                    Probe::Fresh(value) => Role::Hit(value),
                    stale_or_missing => {
                        if matches!(stale_or_missing, Probe::Stale) {
                            shard.invalidations.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(flight) = inner.flights.get(key) {
                            Role::Wait(Arc::clone(flight))
                        } else {
                            let flight = Arc::new(Flight::new());
                            inner.flights.insert(key.clone(), Arc::clone(&flight));
                            Role::Lead(flight)
                        }
                    }
                }
            };
            match role {
                Role::Hit(value) => {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(value);
                }
                Role::Wait(flight) => {
                    shard.waits.fetch_add(1, Ordering::Relaxed);
                    match flight.wait() {
                        // The leader may have computed under an epoch that
                        // has since moved; only a same-epoch value is safe
                        // to hand out without a fresh look.
                        Some(value) if self.epoch.load(Ordering::SeqCst) == epoch => {
                            return Ok(value);
                        }
                        _ => continue,
                    }
                }
                Role::Lead(flight) => {
                    shard.misses.fetch_add(1, Ordering::Relaxed);
                    let mut guard = LeaderGuard { shard, key, flight: &flight, armed: true };
                    // On `Err` the armed guard retires the flight.
                    let value = compute()?;
                    {
                        let mut inner = shard.inner.lock();
                        inner.flights.remove(key);
                        // Skip insertion if the epoch moved mid-compute:
                        // the value would be stamped stale-on-arrival.
                        if self.epoch.load(Ordering::SeqCst) == epoch {
                            shard.insertions.fetch_add(1, Ordering::Relaxed);
                            let stamped = Stamped { epoch, value: value.clone() };
                            if inner.entries.insert(key.clone(), stamped).is_some() {
                                shard.evictions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    guard.armed = false;
                    flight.complete(value.clone());
                    return Ok(value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn hit_after_miss() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 4);
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::SeqCst);
            99
        };
        assert_eq!(cache.get_or_compute(&7, compute), 99);
        assert_eq!(cache.get_or_compute(&7, compute), 99);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_bump_invalidates_lazily() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 2);
        let calls = AtomicUsize::new(0);
        let compute = || calls.fetch_add(1, Ordering::SeqCst) as u64;
        assert_eq!(cache.get_or_compute(&1, compute), 0);
        cache.bump_epoch();
        assert_eq!(cache.epoch(), 1);
        // Entry is still resident (lazy) but must not be served.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek(&1), None, "stale entry must not be peekable");
        assert_eq!(cache.get_or_compute(&1, compute), 1, "stale entry recomputed");
        let c = cache.counters();
        assert!(c.invalidations >= 1, "stale discard must be counted: {c:?}");
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn capacity_pressure_counts_evictions() {
        // One shard so all keys compete for the same LRU.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(4, 1);
        for k in 0..10u64 {
            cache.get_or_compute(&k, || k * 2);
        }
        assert_eq!(cache.len(), 4);
        let c = cache.counters();
        assert_eq!(c.insertions, 10);
        assert_eq!(c.evictions, 6);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(256, 8);
        for k in 0..64u64 {
            cache.get_or_compute(&k, || k);
        }
        let per_shard = cache.per_shard_counters();
        assert_eq!(per_shard.len(), 8);
        let populated = per_shard.iter().filter(|c| c.misses > 0).count();
        assert!(populated >= 4, "fnv routing should spread 64 keys: {populated} shards hit");
        let total: u64 = per_shard.iter().map(|c| c.misses).sum();
        assert_eq!(total, 64, "per-shard counters must sum to the aggregate");
    }

    #[test]
    fn peek_does_not_count_hits_or_misses() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(8, 2);
        assert_eq!(cache.peek(&5), None);
        cache.get_or_compute(&5, || 50);
        assert_eq!(cache.peek(&5), Some(50));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (0, 1));
    }

    #[test]
    fn single_flight_dedupes_concurrent_misses() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(16, 4));
        let calls = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(8));
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let calls = Arc::clone(&calls);
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || {
                    gate.wait();
                    cache.get_or_compute(&42, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough that the other
                        // threads arrive while it is pending.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        4242
                    })
                })
            })
            .collect();
        for worker in workers {
            assert_eq!(worker.join().unwrap(), 4242);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one computation");
        let c = cache.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hits + c.waits, 7, "everyone else was deduplicated: {c:?}");
    }

    #[test]
    fn leader_panic_releases_followers() {
        let cache: Arc<ShardedCache<u64, u64>> = Arc::new(ShardedCache::new(16, 1));
        let entered = Arc::new(Barrier::new(2));
        let leader = {
            let cache = Arc::clone(&cache);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let entered = &entered;
                cache.get_or_compute(&9, move || {
                    entered.wait();
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("leader dies mid-flight");
                })
            })
        };
        entered.wait(); // follower starts only once the leader is computing
        let follower = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || cache.get_or_compute(&9, || 7))
        };
        assert!(leader.join().is_err(), "leader panic propagates to its thread");
        assert_eq!(follower.join().unwrap(), 7, "follower retried and became leader");
        assert_eq!(cache.peek(&9), Some(7));
    }

    #[test]
    fn failed_computation_is_returned_not_cached() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 2);
        assert_eq!(
            cache.get_or_try_compute(&4, || Err::<u64, &str>("no answer")),
            Err("no answer")
        );
        assert_eq!(cache.len(), 0, "a failure leaves nothing resident");
        assert_eq!(cache.get_or_try_compute(&4, || Ok::<u64, &str>(44)), Ok(44));
        assert_eq!(cache.get_or_try_compute(&4, || Err::<u64, &str>("unused")), Ok(44));
        let c = cache.counters();
        assert_eq!((c.misses, c.hits, c.insertions), (2, 1, 1));
    }

    #[test]
    fn compute_may_reenter_same_shard() {
        // The prefix memoizer probes shorter keys from inside a leader's
        // closure; with a held shard lock this would deadlock.
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 1);
        cache.get_or_compute(&1, || 10);
        let value = cache.get_or_compute(&2, || cache.peek(&1).map_or(0, |v| v + 1));
        assert_eq!(value, 11);
    }

    #[test]
    fn leader_does_not_insert_across_epoch_bump() {
        let cache: ShardedCache<u64, u64> = ShardedCache::new(16, 1);
        let value = cache.get_or_compute(&3, || {
            cache.bump_epoch();
            33
        });
        assert_eq!(value, 33, "caller still gets the computed value");
        assert_eq!(cache.len(), 0, "value stamped for a dead epoch is not inserted");
        assert_eq!(cache.counters().insertions, 0);
    }
}
