//! Integration: the uniqueness data collection driven through the real TCP
//! reach API, end to end, matching the in-process pipeline.

use std::sync::Arc;
use unique_on_facebook::adplatform::reach::{AdsManagerApi, ReportingEra};
use unique_on_facebook::adplatform::targeting::TargetingSpec;
use unique_on_facebook::population::{World, WorldConfig};
use unique_on_facebook::reach_api::server::ServerConfig;
use unique_on_facebook::reach_api::{ReachClient, ReachServer};

#[test]
fn networked_collection_matches_in_process() {
    let world = Arc::new(World::generate(WorldConfig::test_scale(31)).unwrap());
    let server = ReachServer::start(Arc::clone(&world), ServerConfig::default()).unwrap();
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let api = AdsManagerApi::new(&world, ReportingEra::Early2017);

    let user = world.materializer().sample_cohort(1, 8).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(12).map(|i| i.0).collect();
    let locations = ["US", "ES", "FR", "BR", "MX"];

    for n in 1..=sequence.len() {
        let networked = client.potential_reach(&locations, &sequence[..n]).unwrap();
        let mut builder = TargetingSpec::builder();
        for code in locations {
            builder = builder.location(unique_on_facebook::population::CountryCode::new(code));
        }
        let spec = builder
            .interests(sequence[..n].iter().map(|&i| unique_on_facebook::population::InterestId(i)))
            .build()
            .unwrap();
        let direct = api.potential_reach(&spec);
        assert_eq!(networked.reported, direct.reported, "mismatch at n={n}");
        assert_eq!(networked.floored, direct.floored);
    }
    assert_eq!(server.requests_served(), sequence.len() as u64);
}

#[test]
fn cached_and_uncached_servers_agree_over_sockets() {
    // Two servers over one world — the query cache on for one and off for
    // the other.
    // Every answer must agree, including repeats the cached server serves
    // from memory, because a cached reach is bit-identical to a recomputed
    // one before the floor is applied.
    use unique_on_facebook::reach_cache::CacheConfig;
    let world = Arc::new(World::generate(WorldConfig::test_scale(31)).unwrap());
    let cached = ReachServer::start(
        Arc::clone(&world),
        ServerConfig { cache: CacheConfig::default(), ..ServerConfig::default() },
    )
    .unwrap();
    let uncached = ReachServer::start(
        Arc::clone(&world),
        ServerConfig { cache: CacheConfig::disabled(), ..ServerConfig::default() },
    )
    .unwrap();
    let mut on = ReachClient::connect(cached.addr()).unwrap();
    let mut off = ReachClient::connect(uncached.addr()).unwrap();

    let user = world.materializer().sample_cohort(1, 8).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(10).map(|i| i.0).collect();
    let locations = ["US", "ES", "FR", "BR", "MX"];
    for n in 1..=sequence.len() {
        let first = on.potential_reach(&locations, &sequence[..n]).unwrap();
        let repeat = on.potential_reach(&locations, &sequence[..n]).unwrap();
        let fresh = off.potential_reach(&locations, &sequence[..n]).unwrap();
        assert_eq!(first, repeat, "cached repeat diverged at n={n}");
        assert_eq!(first, fresh, "cached vs uncached diverged at n={n}");
    }

    let stats = on.cache_stats().unwrap();
    assert!(stats.enabled && stats.hits > 0, "repeats must hit the cache: {stats:?}");
    assert!(!off.cache_stats().unwrap().enabled);
}

#[test]
fn nested_protocol_collects_every_prefix_in_one_round_trip() {
    // The paper's bulk collection: one nested request returns the reach of
    // every prefix of the interest sequence, identical to issuing the
    // scalar queries one by one.
    let world = Arc::new(World::generate(WorldConfig::test_scale(31)).unwrap());
    let server = ReachServer::start(Arc::clone(&world), ServerConfig::default()).unwrap();
    let mut client = ReachClient::connect(server.addr()).unwrap();

    let user = world.materializer().sample_cohort(1, 5).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(10).map(|i| i.0).collect();
    let locations = ["US", "ES"];

    let bulk = client.nested_reach(&locations, &sequence).unwrap();
    assert_eq!(bulk.len(), sequence.len());
    for (n, point) in bulk.iter().enumerate() {
        let scalar = client.potential_reach(&locations, &sequence[..=n]).unwrap();
        assert_eq!(*point, scalar, "nested prefix {n} diverged from scalar query");
    }
    assert!(bulk.windows(2).all(|w| w[1].reported <= w[0].reported));
}
