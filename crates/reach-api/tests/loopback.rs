//! End-to-end tests of the reach API over a loopback TCP socket.

use std::sync::Arc;

use fbsim_adplatform::reach::ReportingEra;
use fbsim_population::{World, WorldConfig};
use reach_api::proto::{FrameError, MAX_FRAME};
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ClientError, ReachClient, ReachServer};
use reach_cache::CacheConfig;

fn test_world() -> Arc<World> {
    use std::sync::OnceLock;
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(
        WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::test_scale(23)).unwrap())),
    )
}

fn start_server(config: ServerConfig) -> ReachServer {
    ReachServer::start(test_world(), config).expect("bind loopback")
}

#[test]
fn single_interest_reach_over_socket() {
    let server = start_server(ServerConfig::default());
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let reach = client.potential_reach(&["ES", "FR", "US"], &[0]).unwrap();
    assert!(reach.reported >= 20);
    // Matches the in-process API for the same query.
    let world = test_world();
    let api = fbsim_adplatform::reach::AdsManagerApi::new(&world, ReportingEra::Early2017);
    let spec = fbsim_adplatform::targeting::TargetingSpec::builder()
        .location(fbsim_population::CountryCode::new("ES"))
        .location(fbsim_population::CountryCode::new("FR"))
        .location(fbsim_population::CountryCode::new("US"))
        .interest(fbsim_population::InterestId(0))
        .build()
        .unwrap();
    assert_eq!(reach.reported, api.potential_reach(&spec).reported);
}

#[test]
fn deep_conjunction_floors_at_twenty() {
    let server = start_server(ServerConfig::default());
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let interests: Vec<u32> = (0..25).map(|i| i * 37).collect();
    let reach = client.potential_reach(&["US"], &interests).unwrap();
    assert_eq!(reach.reported, 20);
    assert!(reach.floored);
    assert!(reach.too_narrow_warning);
}

#[test]
fn post2018_era_floors_at_thousand() {
    let server =
        start_server(ServerConfig { era: ReportingEra::Post2018, ..ServerConfig::default() });
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let interests: Vec<u32> = (0..25).map(|i| i * 37).collect();
    let reach = client.potential_reach(&["US"], &interests).unwrap();
    assert_eq!(reach.reported, 1_000);
}

#[test]
fn validation_errors_reported() {
    let server = start_server(ServerConfig::default());
    let mut client = ReachClient::connect(server.addr()).unwrap();
    // No location.
    match client.potential_reach(&[], &[0]) {
        Err(ClientError::Server(m)) => assert!(m.contains("location"), "{m}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Unknown interest id.
    match client.potential_reach(&["US"], &[u32::MAX]) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown interest"), "{m}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Bad country code.
    match client.potential_reach(&["Spain"], &[0]) {
        Err(ClientError::Server(m)) => assert!(m.contains("bad country"), "{m}"),
        other => panic!("expected server error, got {other:?}"),
    }
    // The connection survives errors: a valid query still works.
    assert!(client.potential_reach(&["US"], &[0]).is_ok());
}

#[test]
fn rate_limit_throttles_and_client_backs_off() {
    let server = start_server(ServerConfig {
        era: ReportingEra::Early2017,
        rate_limit: RateLimitConfig { capacity: 3.0, refill_per_second: 200.0 },
        ..ServerConfig::default()
    });
    let mut client = ReachClient::connect(server.addr()).unwrap();
    // Burst beyond the bucket: every request must still eventually succeed
    // thanks to client-side backoff.
    for i in 0..12 {
        let reach = client.potential_reach(&["US"], &[i]).unwrap();
        assert!(reach.reported >= 20);
    }
    assert_eq!(server.requests_served(), 12);
}

#[test]
fn concurrent_clients_are_isolated() {
    let server = start_server(ServerConfig {
        era: ReportingEra::Early2017,
        rate_limit: RateLimitConfig { capacity: 100.0, refill_per_second: 1000.0 },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ReachClient::connect(addr).unwrap();
                for i in 0..10u32 {
                    let reach = client.potential_reach(&["US", "ES"], &[t * 10 + i]).unwrap();
                    assert!(reach.reported >= 20);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(server.requests_served(), 40);
}

#[test]
fn concurrent_clients_throttled_but_all_served() {
    // Several connections bursting past their per-connection buckets at
    // once: rate limits must be honoured (clients back off and retry, no
    // panics in connection threads) and the served counter must agree with
    // the total number of successful queries.
    let server = start_server(ServerConfig {
        era: ReportingEra::Early2017,
        rate_limit: RateLimitConfig { capacity: 2.0, refill_per_second: 400.0 },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let threads: Vec<_> = (0..3)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ReachClient::connect(addr).unwrap();
                for i in 0..15u32 {
                    let reach = client.potential_reach(&["US"], &[t * 100 + i]).unwrap();
                    assert!(reach.reported >= 20);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(server.requests_served(), 45);
}

#[test]
fn invalid_rate_limit_config_rejected_at_start() {
    // Regression: a zero refill rate used to pass start-up and then panic a
    // connection thread (`Duration::from_secs_f64(inf)`) on the first
    // throttled request; now it is rejected before the socket binds.
    for refill in [0.0, -5.0, f64::NAN] {
        let config = ServerConfig {
            era: ReportingEra::Early2017,
            rate_limit: RateLimitConfig { capacity: 10.0, refill_per_second: refill },
            ..ServerConfig::default()
        };
        let err = ReachServer::start(test_world(), config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "refill {refill}");
    }
}

#[test]
fn shutdown_is_prompt_and_idempotent() {
    let mut server = start_server(ServerConfig::default());
    let start = std::time::Instant::now();
    server.shutdown();
    server.shutdown();
    assert!(start.elapsed() < std::time::Duration::from_secs(2));
}

#[test]
fn nested_sequence_collection_over_socket() {
    // The shape of the paper's data collection: reach of every prefix of an
    // interest sequence, collected through the network client.
    let server = start_server(ServerConfig::default());
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let world = test_world();
    let user = world.materializer().sample_cohort(1, 3).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(10).map(|i| i.0).collect();
    let mut last = u64::MAX;
    for n in 1..=sequence.len() {
        let reach = client.potential_reach(&["US", "ES", "FR", "BR"], &sequence[..n]).unwrap();
        assert!(reach.reported <= last, "reach must not grow with more interests");
        last = reach.reported;
    }
}

/// A server with the cache pinned on.
fn cached_server() -> ReachServer {
    start_server(ServerConfig { cache: CacheConfig::default(), ..ServerConfig::default() })
}

#[test]
fn identical_queries_across_connections_dedupe_in_cache() {
    let server = cached_server();
    let addr = server.addr();
    // Four connections each repeat the same query five times; every one of
    // the twenty requests must be answered, but the engine must run far
    // fewer than twenty times.
    let threads: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = ReachClient::connect(addr).unwrap();
                let mut reaches = Vec::new();
                for _ in 0..5 {
                    reaches.push(client.potential_reach(&["US", "ES"], &[2, 0, 7]).unwrap());
                }
                reaches
            })
        })
        .collect();
    let mut all = Vec::new();
    for t in threads {
        all.extend(t.join().unwrap());
    }
    assert_eq!(all.len(), 20);
    assert!(all.windows(2).all(|w| w[0] == w[1]), "cached answers must be identical");

    let stats = ReachClient::connect(addr).unwrap().cache_stats().unwrap();
    assert!(stats.enabled);
    assert!(stats.misses < 20, "identical queries must share work: {stats:?}");
    assert!(stats.hits > 0, "repeat queries must hit: {stats:?}");
    // Every conjunction lookup is accounted for as exactly one of
    // hit / leader miss / single-flight wait.
    assert_eq!(stats.hits + stats.misses + stats.single_flight_waits, 20, "{stats:?}");
    assert_eq!(stats.entries, 1, "one audience, one entry: {stats:?}");
}

#[test]
fn permuted_and_duplicated_requests_share_one_entry_over_socket() {
    let server = cached_server();
    let mut client = ReachClient::connect(server.addr()).unwrap();
    // Three spellings of one audience: canonicalization makes them a single
    // query with a single cache entry and bit-identical answers.
    let a = client.potential_reach(&["US", "FR"], &[9, 1, 4]).unwrap();
    let b = client.potential_reach(&["US", "FR"], &[4, 9, 1]).unwrap();
    let c = client.potential_reach(&["US", "FR"], &[1, 1, 4, 9, 9]).unwrap();
    assert_eq!(a, b);
    assert_eq!(a, c);
    let stats = client.cache_stats().unwrap();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 2, "{stats:?}");
    assert_eq!(stats.entries, 1, "{stats:?}");
}

#[test]
fn nested_reach_matches_in_process_api() {
    let server = start_server(ServerConfig::default());
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let world = test_world();
    let user = world.materializer().sample_cohort(1, 7).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(12).map(|i| i.0).collect();
    assert!(!sequence.is_empty());

    let got = client.nested_reach(&["US", "ES", "FR", "BR"], &sequence).unwrap();
    assert_eq!(got.len(), sequence.len());
    // Prefix reaches are non-increasing.
    assert!(got.windows(2).all(|w| w[1].reported <= w[0].reported));

    // Element-for-element identical to the in-process Ads Manager API.
    let api = fbsim_adplatform::reach::AdsManagerApi::new(&world, ReportingEra::Early2017);
    let spec = fbsim_adplatform::targeting::TargetingSpec::builder()
        .location(fbsim_population::CountryCode::new("US"))
        .location(fbsim_population::CountryCode::new("ES"))
        .location(fbsim_population::CountryCode::new("FR"))
        .location(fbsim_population::CountryCode::new("BR"))
        .build()
        .unwrap();
    let ids: Vec<fbsim_population::InterestId> =
        sequence.iter().map(|&i| fbsim_population::InterestId(i)).collect();
    let local = api.nested_potential_reach(&spec, &ids);
    assert_eq!(got.len(), local.len());
    for (wire, inproc) in got.iter().zip(&local) {
        assert_eq!(wire.reported, inproc.reported);
        assert_eq!(wire.floored, inproc.floored);
        assert_eq!(wire.too_narrow_warning, inproc.too_narrow_warning);
    }

    // Asking again is answered from the prefix cache (when enabled) and must
    // be identical either way.
    let again = client.nested_reach(&["US", "ES", "FR", "BR"], &sequence).unwrap();
    assert_eq!(got, again);

    // Duplicates in a nested sequence are meaningless and rejected.
    match client.nested_reach(&["US"], &[3, 3]) {
        Err(ClientError::Server(m)) => assert!(m.contains("listed twice"), "{m}"),
        other => panic!("expected duplicate rejection, got {other:?}"),
    }
}

#[test]
fn disabled_cache_server_agrees_with_cached_server() {
    let cached = cached_server();
    let uncached =
        start_server(ServerConfig { cache: CacheConfig::disabled(), ..ServerConfig::default() });
    let mut on = ReachClient::connect(cached.addr()).unwrap();
    let mut off = ReachClient::connect(uncached.addr()).unwrap();

    let world = test_world();
    let user = world.materializer().sample_cohort(1, 11).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(8).map(|i| i.0).collect();
    // Scalar queries, asked twice on each server so the cached one answers
    // the repeat from memory: all four answers must agree.
    for n in 1..=sequence.len() {
        let warm = on.potential_reach(&["US", "BR"], &sequence[..n]).unwrap();
        for _ in 0..2 {
            assert_eq!(on.potential_reach(&["US", "BR"], &sequence[..n]).unwrap(), warm);
            assert_eq!(off.potential_reach(&["US", "BR"], &sequence[..n]).unwrap(), warm);
        }
    }
    // Same for the bulk nested query.
    let nested_on = on.nested_reach(&["US", "BR"], &sequence).unwrap();
    let nested_off = off.nested_reach(&["US", "BR"], &sequence).unwrap();
    assert_eq!(nested_on, nested_off);
    assert_eq!(on.nested_reach(&["US", "BR"], &sequence).unwrap(), nested_on);

    // The disabled server reports itself disabled and holds nothing.
    let stats = off.cache_stats().unwrap();
    assert!(!stats.enabled);
    assert_eq!(stats.entries, 0);
    assert_eq!(stats.prefix_entries, 0);
    assert_eq!(stats.hits + stats.misses, 0, "{stats:?}");
}

#[test]
fn malformed_server_frame_is_a_typed_client_error() {
    // A misbehaving peer, scripted by hand on a raw TCP socket: the client
    // must surface *what* broke (malformed vs oversized vs hangup) instead
    // of a generic IO error.
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        for behaviour in 0..3 {
            let (mut sock, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            let _ = sock.read(&mut buf); // swallow the request line
            match behaviour {
                0 => sock.write_all(b"this is not json\n").unwrap(),
                1 => {
                    let mut line = vec![b'x'; MAX_FRAME + 1];
                    line.push(b'\n');
                    sock.write_all(&line).unwrap();
                }
                _ => {} // hang up without answering
            }
        }
    });

    let mut client = ReachClient::connect(addr).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::BadFrame(FrameError::Malformed(_))) => {}
        other => panic!("expected malformed-frame error, got {other:?}"),
    }
    let mut client = ReachClient::connect(addr).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::BadFrame(FrameError::Oversized)) => {}
        other => panic!("expected oversized-frame error, got {other:?}"),
    }
    let mut client = ReachClient::connect(addr).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::Disconnected) => {}
        other => panic!("expected disconnect error, got {other:?}"),
    }
    script.join().unwrap();
}

#[test]
fn sampled_reach_matches_locally_built_index() {
    use fbsim_population::index::{IndexConfig, ReachIndex};
    use fbsim_population::reach::CountryFilter;
    use fbsim_population::InterestId;

    let server =
        start_server(ServerConfig { index: IndexConfig::enabled(), ..ServerConfig::default() });
    let mut client = ReachClient::connect(server.addr()).unwrap();
    // Deliberately unsorted with a duplicate: the server canonicalizes
    // sampled queries like scalar ones.
    let reach = client.sampled_reach(&["ES", "FR", "US"], &[9, 3, 9]).unwrap();

    let world = test_world();
    let ids = [InterestId(3), InterestId(9)];
    let index = ReachIndex::build_for(&world, &ids);
    let filter = CountryFilter::checked_of(&[
        fbsim_population::countries::country_index(fbsim_population::CountryCode::new("ES"))
            .unwrap() as u16,
        fbsim_population::countries::country_index(fbsim_population::CountryCode::new("FR"))
            .unwrap() as u16,
        fbsim_population::countries::country_index(fbsim_population::CountryCode::new("US"))
            .unwrap() as u16,
    ])
    .unwrap();
    let members = index.conjunction_count(&ids, filter).unwrap();
    let api = fbsim_adplatform::reach::AdsManagerApi::new(&world, ReportingEra::Early2017);
    let expected = api.report_potential(members as f64 * world.panel().scale());
    assert_eq!(reach.reported, expected.reported);
    assert_eq!(reach.floored, expected.floored);
    assert_eq!(reach.too_narrow_warning, expected.too_narrow_warning);

    // A permuted spelling of the same audience answers identically (the
    // index memo persists across requests on the same server).
    let again = client.sampled_reach(&["US", "ES", "FR"], &[3, 9]).unwrap();
    assert_eq!(again, reach);
}

#[test]
fn sampled_reach_without_index_is_an_error_not_a_hangup() {
    use fbsim_population::index::IndexConfig;
    let server =
        start_server(ServerConfig { index: IndexConfig::disabled(), ..ServerConfig::default() });
    let mut client = ReachClient::connect(server.addr()).unwrap();
    match client.sampled_reach(&["US"], &[0]) {
        Err(ClientError::Server(m)) => assert!(m.contains("ServerConfig::index"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // The connection survives the refusal: the float path still answers.
    let reach = client.potential_reach(&["US"], &[0]).unwrap();
    assert!(reach.reported >= 20);
}

#[test]
fn sampled_and_nested_flags_are_mutually_exclusive() {
    use fbsim_population::index::IndexConfig;
    use reach_api::proto::{encode, FrameCodec, ReachRequest, ReachResponse};
    use std::io::{Read, Write};

    let server =
        start_server(ServerConfig { index: IndexConfig::enabled(), ..ServerConfig::default() });
    let mut request = ReachRequest::sampled(vec!["US".into()], vec![0]);
    request.nested = Some(true);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.write_all(&encode(&request)).unwrap();
    let mut codec = FrameCodec::new();
    let mut buf = [0u8; 4096];
    let response: ReachResponse = loop {
        if let Some(frame) = codec.next_frame().unwrap() {
            break reach_api::proto::decode(&frame).unwrap();
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server hung up");
        codec.feed(&buf[..n]);
    };
    match response {
        ReachResponse::Error { message } => {
            assert!(message.contains("mutually exclusive"), "{message}")
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
}

#[test]
fn sampled_reach_canonicalization_shares_scalar_validation() {
    use fbsim_population::index::IndexConfig;
    let server =
        start_server(ServerConfig { index: IndexConfig::enabled(), ..ServerConfig::default() });
    let mut client = ReachClient::connect(server.addr()).unwrap();
    // Unknown interests are rejected before the index is consulted.
    match client.sampled_reach(&["US"], &[999_999]) {
        Err(ClientError::Server(m)) => assert!(m.contains("unknown interest"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }
    // Bad country codes too.
    match client.sampled_reach(&["XX"], &[0]) {
        Err(ClientError::Server(m)) => assert!(m.contains("not in the targeting universe"), "{m}"),
        other => panic!("expected a server error, got {other:?}"),
    }
}
