//! End-to-end cache behaviour against a real generated world: bit-identical
//! transparency, prefix memoization, and epoch invalidation through the
//! world's mutation generation.

use std::sync::atomic::{AtomicUsize, Ordering};

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, World, WorldConfig};
use reach_cache::{CacheConfig, ReachCache};

fn test_world(seed: u64) -> World {
    World::generate(WorldConfig::test_scale(seed)).unwrap()
}

fn cache() -> ReachCache {
    ReachCache::new(CacheConfig::default())
}

#[test]
fn cached_conjunction_is_bit_identical_to_uncached() {
    let world = test_world(601);
    let engine = world.reach_engine();
    let cache = cache();
    cache.sync_generation(world.generation());
    let ids: Vec<InterestId> = (0..8).map(|i| InterestId(i * 97)).collect();
    for filter in [CountryFilter::ALL, CountryFilter::of(&[0, 7])] {
        let uncached = engine.conjunction_reach_in(&ids, filter);
        let computes = AtomicUsize::new(0);
        let compute = || {
            computes.fetch_add(1, Ordering::SeqCst);
            engine.conjunction_reach_in(&ids, filter)
        };
        let cold = cache.reach(&ids, filter, None, compute);
        let warm = cache.reach(&ids, filter, None, compute);
        assert_eq!(cold.to_bits(), uncached.to_bits());
        assert_eq!(warm.to_bits(), uncached.to_bits());
        assert_eq!(computes.load(Ordering::SeqCst), 1, "second read must be a hit");
    }
    let stats = cache.stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 2);
}

#[test]
fn permuted_and_duplicated_interest_sets_share_an_entry() {
    let world = test_world(602);
    let engine = world.reach_engine();
    let cache = cache();
    cache.sync_generation(world.generation());
    let canonical = [InterestId(3), InterestId(41), InterestId(200)];
    let permuted = [InterestId(200), InterestId(3), InterestId(41), InterestId(3)];
    // The server canonicalizes before computing, so both spellings hand the
    // cache the same computation; the cache must also give them one key.
    let compute = || engine.conjunction_reach_in(&canonical, CountryFilter::ALL);
    let first = cache.reach(&canonical, CountryFilter::ALL, None, compute);
    let second = cache.reach(&permuted, CountryFilter::ALL, None, compute);
    assert_eq!(first.to_bits(), second.to_bits());
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "one entry, one hit: {stats:?}");
}

#[test]
fn nested_reaches_cached_bit_identical_across_thread_counts() {
    let world = test_world(603);
    let engine = world.reach_engine();
    let ids: Vec<InterestId> = (0..25).map(|i| InterestId(i * 67 + 5)).collect();
    let reference = rayon::with_thread_count(1, || engine.nested_reaches(&ids));
    for threads in [1, 4] {
        let cache = cache();
        cache.sync_generation(world.generation());
        let (cold, warm) = rayon::with_thread_count(threads, || {
            let cold = cache.nested_reaches_in(&engine, &ids, CountryFilter::ALL);
            let warm = cache.nested_reaches_in(&engine, &ids, CountryFilter::ALL);
            (cold, warm)
        });
        assert_eq!(cold.len(), reference.len());
        for (k, (a, b)) in cold.iter().zip(&reference).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads, prefix {k}");
        }
        for (a, b) in warm.iter().zip(&cold) {
            assert_eq!(a.to_bits(), b.to_bits(), "warm read must replay the cold bits");
        }
        let stats = cache.stats();
        assert_eq!((stats.prefix_misses, stats.prefix_hits), (1, 1));
    }
}

#[test]
fn prefix_memoization_extends_cached_sweep() {
    let world = test_world(604);
    let engine = world.reach_engine();
    let cache = cache();
    cache.sync_generation(world.generation());
    let ids: Vec<InterestId> = (0..25).map(|i| InterestId(i * 53 + 11)).collect();
    // Prime the 20-interest prefix, then ask for the full 25: the sweep
    // must resume from the resident state and only pay for the 5-tail.
    let head = cache.nested_reaches_in(&engine, &ids[..20], CountryFilter::ALL);
    let full = cache.nested_reaches_in(&engine, &ids, CountryFilter::ALL);
    let stats = cache.stats();
    assert_eq!(stats.prefix_extensions, 1, "full query must extend the prefix: {stats:?}");
    assert_eq!(stats.prefix_misses, 2);
    assert_eq!(stats.prefix_entries, 2);
    // Bit-identical to the one-shot sweep, including the resumed head.
    let reference = engine.nested_reaches(&ids);
    assert_eq!(full.len(), 25);
    for (k, (a, b)) in full.iter().zip(&reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "prefix {k}");
    }
    for (k, (a, b)) in head.iter().zip(&reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "primed prefix {k}");
    }
}

#[test]
fn world_mutation_invalidates_through_sync_generation() {
    let mut world = test_world(605);
    let cache = cache();
    cache.sync_generation(world.generation());
    let ids = [InterestId(7), InterestId(70)];
    let before = {
        let engine = world.reach_engine();
        cache.reach(&ids, CountryFilter::ALL, None, || {
            engine.conjunction_reach_in(&ids, CountryFilter::ALL)
        })
    };
    world.scale_budget_factor(1.5);
    cache.sync_generation(world.generation());
    let engine = world.reach_engine();
    let fresh = engine.conjunction_reach_in(&ids, CountryFilter::ALL);
    let after = cache.reach(&ids, CountryFilter::ALL, None, || {
        engine.conjunction_reach_in(&ids, CountryFilter::ALL)
    });
    assert!(fresh > before, "budget growth must grow reach: {before} -> {fresh}");
    assert_eq!(after.to_bits(), fresh.to_bits(), "stale entry must not survive the mutation");
    let stats = cache.stats();
    assert!(stats.invalidations >= 1, "stale discard must be counted: {stats:?}");
    assert_eq!(stats.misses, 2);
    // Same generation re-synced: nothing else invalidated, reads stay warm.
    cache.sync_generation(world.generation());
    let warm = cache.reach(&ids, CountryFilter::ALL, None, || {
        engine.conjunction_reach_in(&ids, CountryFilter::ALL)
    });
    assert_eq!(warm.to_bits(), fresh.to_bits());
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn one_generation_bump_retires_cache_and_index_together() {
    // The posting-list index and the query cache invalidate off the SAME
    // epoch counter (`World::generation`), so one model mutation retires
    // both layers — no second plumbing path to keep consistent.
    use fbsim_population::index::{boolean_reference_count, ReachIndex};

    let mut world = test_world(606);
    let cache = cache();
    cache.sync_generation(world.generation());
    let ids = [InterestId(11), InterestId(42)];
    let cached = {
        let engine = world.reach_engine();
        cache.reach(&ids, CountryFilter::ALL, None, || {
            engine.conjunction_reach_in(&ids, CountryFilter::ALL)
        })
    };
    assert!(cached > 0.0);
    let index = ReachIndex::build_for(&world, &ids);
    assert!(index.is_current(&world));
    assert_eq!(index.generation(), world.generation());

    world.scale_budget_factor(1.25);

    // The same bump stales the index...
    assert!(!index.is_current(&world), "index must observe the epoch move");
    // ...and invalidates the cache.
    cache.sync_generation(world.generation());
    let engine = world.reach_engine();
    let fresh = engine.conjunction_reach_in(&ids, CountryFilter::ALL);
    let after = cache.reach(&ids, CountryFilter::ALL, None, || {
        engine.conjunction_reach_in(&ids, CountryFilter::ALL)
    });
    assert_eq!(after.to_bits(), fresh.to_bits());
    assert!(cache.stats().invalidations >= 1);

    // A rebuild lands on the new epoch and agrees with the reference scan
    // over the mutated carriage model.
    let rebuilt = ReachIndex::build_for(&world, &ids);
    assert!(rebuilt.is_current(&world));
    assert_eq!(
        rebuilt.conjunction_count(&ids, CountryFilter::ALL),
        Some(boolean_reference_count(&world, &ids, CountryFilter::ALL))
    );
}

#[test]
fn disabled_cache_recomputes_and_stays_empty() {
    let world = test_world(606);
    let engine = world.reach_engine();
    let cache = ReachCache::new(CacheConfig::disabled());
    assert!(!cache.enabled());
    let ids = [InterestId(5)];
    let computes = AtomicUsize::new(0);
    let compute = || {
        computes.fetch_add(1, Ordering::SeqCst);
        engine.conjunction_reach_in(&ids, CountryFilter::ALL)
    };
    let a = cache.reach(&ids, CountryFilter::ALL, None, compute);
    let b = cache.reach(&ids, CountryFilter::ALL, None, compute);
    assert_eq!(a.to_bits(), b.to_bits());
    assert_eq!(computes.load(Ordering::SeqCst), 2, "disabled cache always recomputes");
    let nested =
        cache.nested_reaches_in(&engine, &[InterestId(1), InterestId(2)], CountryFilter::ALL);
    assert_eq!(nested.len(), 2);
    let stats = cache.stats();
    assert!(!stats.enabled);
    assert_eq!(stats.entries + stats.prefix_entries, 0);
    assert_eq!(stats.hits + stats.misses, 0);
}

#[test]
fn nested_empty_sequence_short_circuits() {
    let world = test_world(607);
    let engine = world.reach_engine();
    let cache = cache();
    assert!(cache.nested_reaches_in(&engine, &[], CountryFilter::ALL).is_empty());
    assert_eq!(cache.stats().prefix_misses, 0);
}

#[test]
fn concurrent_identical_queries_single_flight() {
    let world = std::sync::Arc::new(test_world(608));
    let cache = std::sync::Arc::new(cache());
    cache.sync_generation(world.generation());
    let ids: Vec<InterestId> = (0..6).map(|i| InterestId(i * 31)).collect();
    let computes = std::sync::Arc::new(AtomicUsize::new(0));
    let gate = std::sync::Arc::new(std::sync::Barrier::new(8));
    let workers: Vec<_> = (0..8)
        .map(|_| {
            let world = std::sync::Arc::clone(&world);
            let cache = std::sync::Arc::clone(&cache);
            let computes = std::sync::Arc::clone(&computes);
            let gate = std::sync::Arc::clone(&gate);
            let ids = ids.clone();
            std::thread::spawn(move || {
                gate.wait();
                let engine = world.reach_engine();
                cache.reach(&ids, CountryFilter::ALL, None, || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    engine.conjunction_reach_in(&ids, CountryFilter::ALL)
                })
            })
        })
        .collect();
    let values: Vec<f64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for pair in values.windows(2) {
        assert_eq!(pair[0].to_bits(), pair[1].to_bits(), "all threads share one answer");
    }
    assert_eq!(computes.load(Ordering::SeqCst), 1, "single-flight: one engine run");
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits + stats.single_flight_waits, 7, "{stats:?}");
}

#[test]
fn counters_exact_after_quiescence() {
    // The tear-tolerance contract (see `ShardedCache::counters`): while
    // writers run, a stats snapshot may lag and mix per-field progress, but
    // each field is monotone; once every worker has been joined, the
    // snapshot must equal the exact operation totals.
    let world = std::sync::Arc::new(test_world(609));
    let cache = std::sync::Arc::new(cache());
    cache.sync_generation(world.generation());
    const THREADS: usize = 4;
    const DISTINCT: usize = 12;
    const ROUNDS: usize = 3;
    let gate = std::sync::Arc::new(std::sync::Barrier::new(THREADS + 1));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let world = std::sync::Arc::clone(&world);
            let cache = std::sync::Arc::clone(&cache);
            let gate = std::sync::Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                let engine = world.reach_engine();
                // Every thread queries the same DISTINCT keys ROUNDS times.
                for _ in 0..ROUNDS {
                    for q in 0..DISTINCT {
                        let ids = [InterestId(q as u32 * 13 + 1)];
                        cache.reach(&ids, CountryFilter::ALL, None, || {
                            engine.conjunction_reach_in(&ids, CountryFilter::ALL)
                        });
                    }
                }
            })
        })
        .collect();
    gate.wait();
    // Mid-flight snapshots: monotone per field, never beyond the final total.
    let mut last = cache.stats();
    for _ in 0..50 {
        let now = cache.stats();
        assert!(now.hits >= last.hits, "hits regressed: {last:?} -> {now:?}");
        assert!(now.misses >= last.misses, "misses regressed: {last:?} -> {now:?}");
        assert!(now.insertions >= last.insertions, "insertions regressed");
        last = now;
    }
    for w in workers {
        w.join().unwrap();
    }
    // Quiescent: totals are exact. Every lookup is accounted for exactly
    // once (hit, leader miss, or single-flight wait), each distinct key
    // computed and inserted exactly once, and nothing was evicted or
    // invalidated.
    let stats = cache.stats();
    let lookups = (THREADS * ROUNDS * DISTINCT) as u64;
    assert_eq!(
        stats.hits + stats.misses + stats.single_flight_waits,
        lookups,
        "every lookup accounted once: {stats:?}"
    );
    assert_eq!(stats.misses, DISTINCT as u64, "one leader per distinct key: {stats:?}");
    assert_eq!(stats.insertions, DISTINCT as u64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.invalidations, 0);
    assert_eq!(stats.entries, DISTINCT);
    // A repeat snapshot with no traffic in between is bit-for-bit stable.
    assert_eq!(cache.stats(), stats);
}
