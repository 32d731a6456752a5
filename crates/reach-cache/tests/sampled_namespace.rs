//! The sampled namespace against a real generated world and posting-list
//! index: per-block entries shared by every spelling of a conjunction,
//! retired by the same generation bump that stales the index, and never
//! filled by a query the index cannot answer.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fbsim_population::index::{boolean_reference_count, ReachIndex, BLOCK_USERS};
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, World, WorldConfig};
use reach_cache::{CacheConfig, ReachCache};

fn all_blocks(world: &World) -> Vec<usize> {
    (0..world.panel().len().div_ceil(BLOCK_USERS)).collect()
}

#[test]
fn one_generation_bump_retires_sampled_entries_with_the_index() {
    // The sibling of `one_generation_bump_retires_cache_and_index_together`
    // for the sampled namespace: the entry and the index it was counted
    // from go stale on the same `World::generation` move.
    let mut world = World::generate(WorldConfig::test_scale(606)).unwrap();
    let cache = ReachCache::new(CacheConfig::default());
    cache.sync_generation(world.generation());
    let ids = [InterestId(11), InterestId(42)];
    let filter = CountryFilter::ALL;
    let blocks = all_blocks(&world);
    let computes = AtomicUsize::new(0);
    let count = |index: &ReachIndex| {
        computes.fetch_add(1, Ordering::SeqCst);
        index.conjunction_count_in_blocks(&ids, filter, &blocks).map(Arc::from)
    };

    let index = ReachIndex::build_for(&world, &ids);
    let before = cache.sampled_blocks(&ids, filter, || count(&index)).unwrap();
    let warm = cache.sampled_blocks(&ids, filter, || count(&index)).unwrap();
    assert_eq!(warm, before);
    assert_eq!(computes.load(Ordering::SeqCst), 1, "the repeat is a hit");
    assert_eq!(before.iter().sum::<u64>(), boolean_reference_count(&world, &ids, filter));

    world.scale_budget_factor(1.25);

    assert!(!index.is_current(&world), "index must observe the epoch move");
    cache.sync_generation(world.generation());
    let rebuilt = ReachIndex::build_for(&world, &ids);
    let after = cache.sampled_blocks(&ids, filter, || count(&rebuilt)).unwrap();
    assert_eq!(computes.load(Ordering::SeqCst), 2, "the stale entry was not served");
    assert_eq!(after.iter().sum::<u64>(), boolean_reference_count(&world, &ids, filter));
    let sampled = cache.sampled_counters();
    assert!(sampled.invalidations >= 1, "stale discard must be counted: {sampled:?}");
    assert_eq!((sampled.hits, sampled.misses), (1, 2));
    assert_eq!(cache.sampled_entries(), 1);
}

#[test]
fn spellings_share_one_sampled_entry_apart_from_the_scalar_one() {
    let world = World::generate(WorldConfig::test_scale(602)).unwrap();
    let cache = ReachCache::new(CacheConfig::default());
    cache.sync_generation(world.generation());
    let canonical = [InterestId(3), InterestId(41)];
    let spelled = [InterestId(41), InterestId(3), InterestId(41)];
    let index = ReachIndex::build_for(&world, &canonical);
    let blocks = all_blocks(&world);
    let compute = || index.conjunction_count_in_blocks(&canonical, CountryFilter::ALL, &blocks);
    let first = cache.sampled_blocks(&canonical, CountryFilter::ALL, || compute().map(Arc::from));
    let second = cache.sampled_blocks(&spelled, CountryFilter::ALL, || compute().map(Arc::from));
    assert_eq!(first, second);
    let sampled = cache.sampled_counters();
    assert_eq!((sampled.misses, sampled.hits), (1, 1), "one entry, one hit: {sampled:?}");
    // The scalar namespace shares the key type, not the entries.
    let stats = cache.stats();
    assert_eq!((stats.entries, stats.hits, stats.misses), (0, 0, 0), "{stats:?}");
}

#[test]
fn unanswerable_sampled_query_is_not_cached() {
    let world = World::generate(WorldConfig::test_scale(603)).unwrap();
    let cache = ReachCache::new(CacheConfig::default());
    cache.sync_generation(world.generation());
    let index = ReachIndex::build_for(&world, &[InterestId(1)]);
    let blocks = all_blocks(&world);
    // Interest 2 has no posting list, so the index cannot answer.
    let ids = [InterestId(1), InterestId(2)];
    let computes = AtomicUsize::new(0);
    let compute = || {
        computes.fetch_add(1, Ordering::SeqCst);
        index.conjunction_count_in_blocks(&ids, CountryFilter::ALL, &blocks).map(Arc::from)
    };
    assert_eq!(cache.sampled_blocks(&ids, CountryFilter::ALL, compute), None);
    assert_eq!(cache.sampled_blocks(&ids, CountryFilter::ALL, compute), None);
    assert_eq!(computes.load(Ordering::SeqCst), 2, "a refusal is retried, not memoized");
    assert_eq!(cache.sampled_entries(), 0);
}

#[test]
fn disabled_cache_computes_every_sampled_lookup() {
    let world = World::generate(WorldConfig::test_scale(604)).unwrap();
    let cache = ReachCache::new(CacheConfig::disabled());
    let ids = [InterestId(5)];
    let index = ReachIndex::build_for(&world, &ids);
    let blocks = all_blocks(&world);
    let computes = AtomicUsize::new(0);
    let compute = || {
        computes.fetch_add(1, Ordering::SeqCst);
        index.conjunction_count_in_blocks(&ids, CountryFilter::ALL, &blocks).map(Arc::from)
    };
    let a = cache.sampled_blocks(&ids, CountryFilter::ALL, compute);
    let b = cache.sampled_blocks(&ids, CountryFilter::ALL, compute);
    assert_eq!(a, b);
    assert_eq!(computes.load(Ordering::SeqCst), 2);
    assert_eq!(cache.sampled_entries(), 0);
    assert_eq!(cache.sampled_counters(), reach_cache::CacheCounters::default());
}
