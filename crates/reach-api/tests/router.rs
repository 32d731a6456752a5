//! Router/aggregator tests: a sharded deployment must be observably — and
//! at the float level, bit-for-bit — indistinguishable from a single node.
//!
//! The determinism contract under test: shard ownership is a pure function
//! of the seeded world config, every backend computes raw per-chunk
//! partials, and the router folds them in ascending global chunk order from
//! zero — the same reduction the single-node engine performs — applying the
//! reporting floor exactly once, after the merge.

use std::sync::Arc;

use fbsim_population::countries::{country_index, CountryCode};
use fbsim_population::index::{IndexConfig, ReachIndex};
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ShardSpec, World, WorldConfig};
use reach_api::proto::ReachRequest;
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ClientError, ReachClient, ReachResponse, ReachRouter, ReachServer, RouterConfig};

fn test_world() -> Arc<World> {
    use std::sync::OnceLock;
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(
        WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::test_scale(23)).unwrap())),
    )
}

fn generous() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e6, refill_per_second: 1e6 }
}

/// One single-node reference server: no shard spec, index pinned on.
fn reference_server() -> ReachServer {
    ReachServer::start(
        test_world(),
        ServerConfig {
            index: IndexConfig::enabled(),
            rate_limit: generous(),
            ..ServerConfig::default()
        },
    )
    .expect("bind reference server")
}

/// `count` shard backends plus a router fronting them, all over one world.
fn start_cluster(count: u32) -> (Vec<ReachServer>, ReachRouter) {
    let backends: Vec<ReachServer> = (0..count)
        .map(|index| {
            ReachServer::start(
                test_world(),
                ServerConfig {
                    shard: Some(ShardSpec { index, count }),
                    index: IndexConfig::enabled(),
                    rate_limit: generous(),
                    ..ServerConfig::default()
                },
            )
            .expect("bind shard backend")
        })
        .collect();
    let addrs = backends.iter().map(ReachServer::addr).collect();
    let router = ReachRouter::start(
        test_world(),
        addrs,
        RouterConfig { rate_limit: generous(), ..RouterConfig::default() },
    )
    .expect("bind router");
    (backends, router)
}

fn filter_of(codes: &[&str]) -> CountryFilter {
    let indices: Vec<u16> = codes
        .iter()
        .map(|c| country_index(CountryCode::new(c)).expect("test country in universe") as u16)
        .collect();
    CountryFilter::checked_of(&indices).expect("test filter in universe")
}

#[test]
fn router_answers_match_single_node_across_shard_counts() {
    let reference = reference_server();
    let mut single = ReachClient::connect(reference.addr()).unwrap();
    let deep: Vec<u32> = (0..25).map(|i| i * 37).collect();
    let world = test_world();
    let user = world.materializer().sample_cohort(1, 7).pop().unwrap();
    let sequence: Vec<u32> = user.interests.iter().take(10).map(|i| i.0).collect();

    for count in [2u32, 3] {
        let (_backends, router) = start_cluster(count);
        let mut routed = ReachClient::connect(router.addr()).unwrap();

        // Scalar: broad, narrow, permuted/duplicated, and floored audiences.
        for (locations, interests) in [
            (vec!["US"], vec![0u32]),
            (vec!["US", "ES", "FR"], vec![3, 9]),
            (vec!["US"], vec![37, 0, 37]),
            (vec!["US"], deep.clone()),
        ] {
            let want = single.potential_reach(&locations, &interests).unwrap();
            let got = routed.potential_reach(&locations, &interests).unwrap();
            assert_eq!(got, want, "scalar {locations:?} {interests:?} with {count} shards");
        }

        // Nested prefix sweep: element-for-element identical, flags included.
        let want = single.nested_reach(&["US", "ES", "FR", "BR"], &sequence).unwrap();
        let got = routed.nested_reach(&["US", "ES", "FR", "BR"], &sequence).unwrap();
        assert_eq!(got, want, "nested sweep with {count} shards");

        // Sampled: the realized index draw is a pure function of the world,
        // so per-block counts merge to the same total on any shard count.
        let want = single.sampled_reach(&["ES", "FR", "US"], &[9, 3, 9]).unwrap();
        let got = routed.sampled_reach(&["ES", "FR", "US"], &[9, 3, 9]).unwrap();
        assert_eq!(got, want, "sampled with {count} shards");

        assert!(router.requests_served() >= 6);
    }
}

#[test]
fn shard_partials_fold_to_the_engine_bits() {
    // The contract underneath the router: collecting every backend's raw
    // partials and folding them in ascending chunk order from zero
    // reproduces the single-node engine's f64 **bit for bit** — not merely
    // to within rounding — for any shard count.
    let world = test_world();
    let engine = world.reach_engine();
    let scale_ids = [InterestId(0), InterestId(37)];
    let nested_ids = [InterestId(5), InterestId(1), InterestId(9)];
    let filter = filter_of(&["US", "ES"]);

    for count in [2u32, 3] {
        let (backends, _router) = start_cluster(count);

        // Scalar: one partial per chunk.
        let mut chunks: Vec<(u32, u64)> = Vec::new();
        for backend in &backends {
            let mut client = ReachClient::connect(backend.addr()).unwrap();
            let request = ReachRequest::scalar(
                vec!["US".into(), "ES".into()],
                scale_ids.iter().map(|i| i.0).collect(),
            );
            let partials = client.shard_partials(&request).unwrap();
            assert_eq!(partials.generation, world.generation());
            for (chunk, values) in partials.chunks.iter().zip(&partials.values) {
                assert_eq!(values.len(), 1, "scalar partials carry one value per chunk");
                chunks.push((*chunk, values[0]));
            }
        }
        chunks.sort_unstable_by_key(|&(c, _)| c);
        assert_eq!(chunks.len(), engine.chunk_count(), "every chunk owned exactly once");
        let mut sum = 0.0f64;
        for &(_, bits) in &chunks {
            sum += f64::from_bits(bits);
        }
        let merged = sum * world.panel().scale();
        let local = engine.conjunction_reach_in(&scale_ids, filter);
        assert_eq!(
            merged.to_bits(),
            local.to_bits(),
            "{count}-shard scalar merge must be bit-identical: {merged} vs {local}"
        );

        // Nested: one partial per prefix per chunk, folded per prefix.
        let mut per_chunk: Vec<(u32, Vec<u64>)> = Vec::new();
        for backend in &backends {
            let mut client = ReachClient::connect(backend.addr()).unwrap();
            let request = ReachRequest::nested(
                vec!["US".into(), "ES".into()],
                nested_ids.iter().map(|i| i.0).collect(),
            );
            let partials = client.shard_partials(&request).unwrap();
            per_chunk.extend(partials.chunks.into_iter().zip(partials.values));
        }
        per_chunk.sort_unstable_by_key(|&(c, _)| c);
        let mut sums = vec![0.0f64; nested_ids.len()];
        for (_, values) in &per_chunk {
            for (slot, &bits) in sums.iter_mut().zip(values) {
                *slot += f64::from_bits(bits);
            }
        }
        let local = engine.nested_reaches_in(&nested_ids, filter);
        for (prefix, (merged, local)) in sums.iter().zip(&local).enumerate() {
            let merged = merged * world.panel().scale();
            assert_eq!(
                merged.to_bits(),
                local.to_bits(),
                "{count}-shard nested prefix {prefix} merge must be bit-identical"
            );
        }

        // Sampled: integer survivor counts sum exactly to the local index's.
        let sampled_ids = [InterestId(3), InterestId(9)];
        let mut total = 0u64;
        let mut seen = 0usize;
        for backend in &backends {
            let mut client = ReachClient::connect(backend.addr()).unwrap();
            let request = ReachRequest::sampled(
                vec!["US".into(), "ES".into()],
                sampled_ids.iter().map(|i| i.0).collect(),
            );
            let partials = client.shard_partials(&request).unwrap();
            for values in &partials.values {
                assert_eq!(values.len(), 1, "sampled partials carry one count per chunk");
                total += values[0];
                seen += 1;
            }
        }
        assert_eq!(seen, engine.chunk_count());
        let index = ReachIndex::build_for(&world, &sampled_ids);
        assert_eq!(
            total,
            index.conjunction_count(&sampled_ids, filter).unwrap(),
            "{count}-shard sampled counts must sum exactly"
        );
    }
}

#[test]
fn shard_opcode_is_refused_outside_shard_mode() {
    // Privacy gate: raw partials are pre-floor values; a single-node server
    // (no shard spec) must never emit them.
    let reference = reference_server();
    let mut client = ReachClient::connect(reference.addr()).unwrap();
    let request = ReachRequest::scalar(vec!["US".into()], vec![0]);
    match client.shard_partials(&request) {
        Err(ClientError::Server(m)) => assert!(m.contains("shard-configured"), "{m}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The connection survives the refusal.
    assert!(client.potential_reach(&["US"], &[0]).is_ok());
}

#[test]
fn router_refuses_shard_and_stats_opcodes() {
    let (_backends, router) = start_cluster(2);
    let mut client = ReachClient::connect(router.addr()).unwrap();
    let request = ReachRequest::scalar(vec!["US".into()], vec![0]);
    match client.shard_partials(&request) {
        Err(ClientError::Server(m)) => assert!(m.contains("not a shard backend"), "{m}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    match client.cache_stats() {
        Err(ClientError::Server(m)) => assert!(m.contains("no query cache"), "{m}"),
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The snapshot opcode answers from the router's own registry (empty
    // when global telemetry is off, but well-formed either way).
    assert!(client.telemetry_snapshot().is_ok());
}

#[test]
fn epoch_mismatch_between_router_and_backends_is_loud() {
    // A router whose world moved a generation ahead of its backends must
    // refuse to merge — a stale backend answers loudly, not wrongly.
    let (backends, _router) = start_cluster(2);
    let mut moved = World::generate(WorldConfig::test_scale(23)).unwrap();
    moved.scale_budget_factor(1.0);
    assert_ne!(moved.generation(), test_world().generation());
    let addrs = backends.iter().map(ReachServer::addr).collect();
    let stale_router = ReachRouter::start(
        Arc::new(moved),
        addrs,
        RouterConfig { rate_limit: generous(), ..RouterConfig::default() },
    )
    .unwrap();
    let mut client = ReachClient::connect(stale_router.addr()).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::Server(m)) => assert!(m.contains("epoch mismatch"), "{m}"),
        other => panic!("expected an epoch-mismatch error, got {other:?}"),
    }
}

#[test]
fn router_validation_matches_single_node() {
    // The router rejects exactly what a single node rejects, with the same
    // message, before burning a fan-out on it.
    let reference = reference_server();
    let (_backends, router) = start_cluster(2);
    let mut single = ReachClient::connect(reference.addr()).unwrap();
    let mut routed = ReachClient::connect(router.addr()).unwrap();

    let mut exclusive = ReachRequest::sampled(vec!["US".into()], vec![0]);
    exclusive.nested = Some(true);
    let invalid = [
        ReachRequest::scalar(vec![], vec![0]),
        ReachRequest::scalar(vec!["Spain".into()], vec![0]),
        ReachRequest::scalar(vec!["US".into()], vec![u32::MAX]),
        ReachRequest::nested(vec!["US".into()], vec![3, 3]),
        exclusive,
    ];
    for request in invalid {
        let want = match single.request(&request) {
            Err(ClientError::Server(m)) => m,
            other => panic!("single node must reject {request:?}, got {other:?}"),
        };
        match routed.request(&request) {
            Err(ClientError::Server(m)) => assert_eq!(m, want, "for {request:?}"),
            other => panic!("router must reject {request:?}, got {other:?}"),
        }
    }
}

#[test]
fn pipelined_batch_through_the_router_matches_single_node() {
    // The router speaks the same pipelined wire protocol as a server: a
    // whole id-tagged batch fans out and merges slot-for-slot.
    let reference = reference_server();
    let (_backends, router) = start_cluster(3);
    let mut single = ReachClient::connect(reference.addr()).unwrap();
    let mut routed = ReachClient::connect(router.addr()).unwrap();

    let batch: Vec<ReachRequest> = (0..8u32)
        .map(|i| ReachRequest::scalar(vec!["US".into(), "ES".into()], vec![i, i + 11]))
        .collect();
    let answers = routed.pipeline(&batch).unwrap();
    assert_eq!(answers.len(), batch.len());
    for (request, answer) in batch.iter().zip(&answers) {
        let want = single.request(request).unwrap();
        assert_eq!(answer, &want);
        assert!(matches!(answer, ReachResponse::Reach { .. }));
    }
}

#[test]
fn bad_country_echo_is_bounded_and_identical_on_both_tiers() {
    // A 60 KB location used to be echoed back whole in the error frame.
    use std::io::{BufRead, BufReader, Write};

    let reference = reference_server();
    let (_backends, router) = start_cluster(2);
    let frame = format!(r#"{{"v":1,"locations":["{}"],"interests":[0]}}"#, "A".repeat(60_000));
    let answers: Vec<String> = [reference.addr(), router.addr()]
        .into_iter()
        .map(|addr| {
            let mut stream = std::net::TcpStream::connect(addr).unwrap();
            stream.write_all(frame.as_bytes()).unwrap();
            stream.write_all(b"\n").unwrap();
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line).unwrap();
            line
        })
        .collect();
    assert!(answers[0].contains("bad country code"), "{}", answers[0]);
    assert!(answers[0].len() < 128, "error frame of {} bytes", answers[0].len());
    assert_eq!(answers[0], answers[1], "the router must answer exactly like a single node");
}

/// A raw-TCP shard backend for one connection: it reads one frame, calls
/// `before_answer`, and answers with sampled partials (a zero count per
/// chunk) for `chunks`, echoing the request id. If `before_answer`
/// returns `false` it hangs up without answering.
fn scripted_backend(
    chunks: Vec<u32>,
    before_answer: impl FnOnce() -> bool + Send + 'static,
) -> std::net::SocketAddr {
    use reach_api::proto::{decode, encode_response_frame, FrameCodec};
    use std::io::{Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let generation = test_world().generation();
    std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut codec = FrameCodec::new();
        let mut buf = [0u8; 4096];
        let frame = loop {
            if let Some(frame) = codec.next_frame().unwrap() {
                break frame;
            }
            let n = sock.read(&mut buf).unwrap();
            if n == 0 {
                return;
            }
            codec.feed(&buf[..n]);
        };
        let request: ReachRequest = decode(&frame).unwrap();
        if !before_answer() {
            return;
        }
        let values = vec![vec![0u64]; chunks.len()];
        let response = ReachResponse::ShardPartials { generation, chunks, values };
        let _ = sock.write_all(&encode_response_frame(request.id, None, &response));
    });
    addr
}

#[test]
fn router_fan_out_reaches_every_backend_before_it_waits_on_one() {
    // Backend 0 answers only once backend 1 has received its frame. A
    // router that wrote each backend's frame only when it began waiting on
    // that backend would serialize the fan-out and deadlock here: backend 0
    // gives up after the timeout and the query fails.
    use std::sync::mpsc;
    use std::time::Duration;

    let nchunks = test_world().panel().len().div_ceil(fbsim_population::CHUNK_USERS) as u32;
    let half = nchunks / 2;
    let (received, wait) = mpsc::channel::<()>();
    let first = scripted_backend((0..half).collect(), move || {
        wait.recv_timeout(Duration::from_secs(5)).is_ok()
    });
    let second = scripted_backend((half..nchunks).collect(), move || {
        let _ = received.send(());
        true
    });
    let router = ReachRouter::start(
        test_world(),
        vec![first, second],
        RouterConfig { rate_limit: generous(), ..RouterConfig::default() },
    )
    .expect("bind router");
    let mut client = ReachClient::connect(router.addr()).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let reach = client
        .sampled_reach(&["US"], &[0])
        .expect("the fan-out must reach both backends before the router waits");
    assert!(reach.floored, "zero partials merge to a floored report");
}
