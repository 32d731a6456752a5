//! Sampled counts served from the query cache's sampled namespace: one
//! per-block entry answers a single node (its sum) and every shard backend
//! (its own blocks), byte-identically to a server with the cache off.
//!
//! The index's `engine.index_count*` spans record into the process-global
//! telemetry, which one test here switches on; every test takes `SERIAL`
//! so no other test's spans land in its sink.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_population::countries::{country_index, CountryCode};
use fbsim_population::index::{boolean_reference_count, IndexConfig, ReachIndex};
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ShardAssignment, ShardSpec, World, WorldConfig};
use reach_api::proto::{decode_response_frame, encode, ReachRequest, ReachResponse};
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ReachClient, ReachRouter, ReachServer, RouterConfig};
use reach_cache::CacheConfig;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn test_world() -> Arc<World> {
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(
        WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::test_scale(23)).unwrap())),
    )
}

fn generous() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e6, refill_per_second: 1e6 }
}

fn server(cache: CacheConfig, shard: Option<ShardSpec>) -> ReachServer {
    ReachServer::start(
        test_world(),
        ServerConfig {
            cache,
            shard,
            index: IndexConfig::enabled(),
            rate_limit: generous(),
            ..ServerConfig::default()
        },
    )
    .expect("bind server")
}

fn filter_of(codes: &[&str]) -> CountryFilter {
    let indices: Vec<u16> =
        codes.iter().map(|c| country_index(CountryCode::new(c)).unwrap() as u16).collect();
    CountryFilter::checked_of(&indices).unwrap()
}

fn sampled(locations: &[&str], interests: &[u32]) -> ReachRequest {
    ReachRequest::sampled(locations.iter().map(|&l| l.into()).collect(), interests.to_vec())
}

/// Writes one request frame on a raw socket and returns the response
/// frame's exact bytes.
fn exchange(stream: &mut TcpStream, reader: &mut impl BufRead, request: &ReachRequest) -> String {
    stream.write_all(&encode(request)).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// A cloneable in-memory trace sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn repeated_sampled_spellings_hit_one_entry_and_match_a_cache_off_server() {
    let _serial = serial();
    let world = test_world();
    let cached = server(CacheConfig::default(), None);
    let uncached = server(CacheConfig::disabled(), None);
    // The first spelling, a permutation, and a duplicate of one audience.
    let spellings = [
        sampled(&["ES", "FR", "US"], &[9, 3, 9]),
        sampled(&["US", "ES", "FR"], &[3, 9]),
        sampled(&["FR", "US", "ES"], &[9, 9, 3, 3]),
    ];

    let telemetry = uof_telemetry::global();
    let was_enabled = telemetry.is_enabled();
    telemetry.set_enabled(true);
    let sink = SharedBuf::default();
    telemetry.attach_trace_writer(Box::new(sink.clone()));
    let mut stream = TcpStream::connect(cached.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let frames: Vec<String> =
        spellings.iter().map(|r| exchange(&mut stream, &mut reader, r)).collect();
    let registry = ReachClient::connect(cached.addr()).unwrap().telemetry_snapshot().unwrap();
    telemetry.detach_trace_writer();
    telemetry.set_enabled(was_enabled);

    // One index count ran: the first request's miss. The repeats read the
    // entry without touching the index.
    let trace = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let counts = trace.lines().filter(|l| l.contains("\"span\":\"engine.index_count")).count();
    assert_eq!(counts, 1, "one index count for three spellings:\n{trace}");
    let stats = cached.cache().sampled_counters();
    assert_eq!((stats.misses, stats.hits), (1, 2), "{stats:?}");
    assert_eq!(cached.cache().sampled_entries(), 1);
    // The stats snapshot mirrors the sampled namespace as gauges.
    assert_eq!(registry.gauge("reach_cache.sampled_misses"), Some(1), "{registry:?}");
    assert_eq!(registry.gauge("reach_cache.sampled_hits"), Some(2), "{registry:?}");
    assert_eq!(registry.gauge("reach_cache.sampled_entries"), Some(1), "{registry:?}");

    // Every answer is the same frame, byte for byte, as a cache-off
    // server's — and that frame is the reference scan's count.
    let mut stream = TcpStream::connect(uncached.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for (request, frame) in spellings.iter().zip(&frames) {
        assert_eq!(frame, &exchange(&mut stream, &mut reader, request), "{request:?}");
    }
    assert_eq!(uncached.cache().sampled_entries(), 0);
    let ids = [InterestId(3), InterestId(9)];
    let members = boolean_reference_count(&world, &ids, filter_of(&["ES", "FR", "US"]));
    let api = AdsManagerApi::new(&world, ReportingEra::Early2017);
    let expected = api.report_potential(members as f64 * world.panel().scale());
    match decode_response_frame(frames[0].trim_end().as_bytes()).unwrap().response {
        ReachResponse::SampledReach { reported, floored, too_narrow_warning } => assert_eq!(
            (reported, floored, too_narrow_warning),
            (expected.reported, expected.floored, expected.too_narrow_warning)
        ),
        other => panic!("expected a sampled reach frame, got {other:?}"),
    }
}

#[test]
fn warm_shard_partials_slice_the_per_block_entry() {
    let _serial = serial();
    let world = test_world();
    // Audiences with non-zero, unequal counts across blocks, so a
    // misaligned slice of the entry cannot pass.
    let audiences: [(&[&str], &[u32]); 2] = [(&["US"], &[0]), (&["ES", "US"], &[37, 37])];
    for count in [2u32, 3] {
        let assignment = ShardAssignment::new(&world, count);
        for shard in 0..count {
            let backend = server(CacheConfig::default(), Some(ShardSpec { index: shard, count }));
            let mut client = ReachClient::connect(backend.addr()).unwrap();
            let own = assignment.chunks_of(shard);
            for (locations, interests) in audiences {
                let request = sampled(locations, interests);
                let cold = client.shard_partials(&request).unwrap();
                let warm = client.shard_partials(&request).unwrap();
                assert_eq!(warm, cold, "shard {shard}/{count} {request:?}");

                let chunks: Vec<usize> = warm.chunks.iter().map(|&c| c as usize).collect();
                assert_eq!(chunks, own, "shard {shard}/{count} answers for its own chunks");
                let ids: Vec<InterestId> = interests.iter().map(|&i| InterestId(i)).collect();
                let index = ReachIndex::build_for(&world, &ids);
                let expected =
                    index.conjunction_count_in_blocks(&ids, filter_of(locations), &own).unwrap();
                let got: Vec<u64> = warm.values.iter().map(|v| v[0]).collect();
                assert_eq!(got, expected, "shard {shard}/{count} {request:?}");
            }
            let stats = backend.cache().sampled_counters();
            let n = audiences.len() as u64;
            assert_eq!((stats.misses, stats.hits), (n, n), "shard {shard}/{count}: {stats:?}");
        }
    }
}

#[test]
fn routed_sampled_answers_from_warm_shards_equal_the_single_node() {
    let _serial = serial();
    let single = server(CacheConfig::disabled(), None);
    let mut single = ReachClient::connect(single.addr()).unwrap();
    let audiences: [(&[&str], &[u32]); 4] = [
        (&["US"], &[0]),
        (&["ES", "FR", "US"], &[9, 3, 9]),
        (&["US", "BR"], &[5, 1, 9]),
        (&["US"], &[2, 4, 6, 8, 10, 12]),
    ];
    for count in [2u32, 3] {
        let backends: Vec<ReachServer> = (0..count)
            .map(|index| server(CacheConfig::default(), Some(ShardSpec { index, count })))
            .collect();
        let router = ReachRouter::start(
            test_world(),
            backends.iter().map(ReachServer::addr).collect(),
            RouterConfig { rate_limit: generous(), ..RouterConfig::default() },
        )
        .expect("bind router");
        let mut routed = ReachClient::connect(router.addr()).unwrap();
        // Twice round: the second pass is answered from warm entries.
        for pass in 0..2 {
            for (locations, interests) in audiences {
                let want = single.sampled_reach(locations, interests).unwrap();
                let got = routed.sampled_reach(locations, interests).unwrap();
                assert_eq!(got, want, "{locations:?} {interests:?}, {count} shards, pass {pass}");
            }
        }
        for backend in &backends {
            let stats = backend.cache().sampled_counters();
            assert_eq!(stats.misses, audiences.len() as u64, "{stats:?}");
            assert_eq!(stats.hits, audiences.len() as u64, "{stats:?}");
        }
    }
}
