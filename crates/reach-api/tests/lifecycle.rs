//! Connection-lifecycle regression tests and pipelining wire-compat tests.
//!
//! Each regression test here fails against the pre-fix code:
//!
//! * handle churn — the accept loop used to push every connection handle
//!   and drain only at shutdown, so the vector grew one entry per
//!   connection ever accepted;
//! * write hang — the server set a read timeout but no write timeout, so a
//!   client that stopped reading wedged `write_all` (and shutdown) forever;
//! * desynchronization — a read timeout used to leave the connection
//!   silently misaligned: the late response was matched to the *next*
//!   request;
//! * backoff cap — the default client ceiling used to truncate
//!   server-suggested waits (covered at the unit level in `client.rs`; the
//!   observable default is asserted here);
//! * hostile frames — the request decoder recursed once per nesting level,
//!   so one 64 KiB frame of `[` overflowed a connection thread's stack and
//!   aborted the whole process, and it re-validated the rest of the frame
//!   for every string character (a 60 KB string cost ~130 ms of CPU).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbsim_population::{World, WorldConfig};
use reach_api::proto::{
    decode, decode_response_frame, encode, FrameCodec, ReachRequest, ResponseFrame,
};
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{
    ClientError, ReachClient, ReachResponse, ReachRouter, ReachServer, RouterConfig,
    DEFAULT_MAX_BACKOFF,
};
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

/// Reads exactly one response frame from a raw socket.
fn read_frame(stream: &mut TcpStream, codec: &mut FrameCodec) -> Vec<u8> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = codec.next_frame().unwrap() {
            return frame;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "peer hung up mid-frame");
        codec.feed(&buf[..n]);
    }
}

#[test]
fn connection_handle_churn_stays_bounded() {
    // Regression: every accepted connection used to leave its JoinHandle in
    // the server's vector until shutdown — after a churn of N short-lived
    // clients the count was N, not the number of live connections.
    let server = start_server(ServerConfig::default());
    for i in 0..40u32 {
        let mut client = ReachClient::connect(server.addr()).unwrap();
        client.potential_reach(&["US"], &[i % 7]).unwrap();
        // Dropped here: the connection closes and its thread exits on EOF.
    }
    // The reap runs on accept, so trigger accepts until the churn wave's
    // threads (which notice EOF within their 100ms read timeout) are
    // collected.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut tracked = server.connection_handles();
    while tracked > 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
        drop(ReachClient::connect(server.addr()).unwrap());
        tracked = server.connection_handles();
    }
    assert!(
        tracked <= 4,
        "handle vector must be bounded by live connections, still tracking {tracked} after churn"
    );
}

#[test]
fn non_reading_client_cannot_wedge_shutdown() {
    // Regression: with no write timeout, a client that floods requests and
    // never reads fills its receive window; the connection thread wedged in
    // `write_all` forever and shutdown hung joining it (this test timed out
    // pre-fix).
    let mut server = start_server(ServerConfig {
        rate_limit: RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 },
        cache: CacheConfig::default(), // pinned on: repeats answer from memory
        write_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    // A nested sweep amplifies: ~200 request bytes buy ~1.5KB of response.
    let interests: Vec<u32> = (0..20).map(|i| i * 7).collect();
    let frame = encode(&ReachRequest::nested(vec!["US".into(), "ES".into()], interests));
    let mut wedged = false;
    for _ in 0..200_000 {
        match stream.write_all(&frame) {
            Ok(()) => {}
            Err(_) => {
                // Our own send buffer is full too: the server has stopped
                // reading because its writes to us are stalled.
                wedged = true;
                break;
            }
        }
    }
    assert!(wedged, "the flood must stall once the server's responses back up");
    // Give the server's bounded write a chance to time out, then shutdown
    // must be prompt instead of hanging on the wedged thread.
    std::thread::sleep(Duration::from_millis(500));
    let start = Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must not hang on a non-reading client (took {:?})",
        start.elapsed()
    );
    drop(stream);
}

/// Scripted raw-TCP server: answers the first request only after `delay`
/// (past the client's read timeout), then answers the second promptly.
/// When `echo_ids` is set, responses carry the request's id.
fn late_response_script(delay: Duration, echo_ids: bool) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut codec = FrameCodec::new();
        for (turn, reported) in [111u64, 222].into_iter().enumerate() {
            let frame = read_frame(&mut sock, &mut codec);
            let request: ReachRequest = decode(&frame).unwrap();
            if turn == 0 {
                std::thread::sleep(delay);
            }
            let response =
                ReachResponse::Reach { reported, floored: false, too_narrow_warning: false };
            let id = if echo_ids { request.id } else { None };
            sock.write_all(&reach_api::proto::encode_response_frame(id, None, &response)).unwrap();
        }
    });
    addr
}

#[test]
fn late_response_from_an_idless_server_poisons_the_connection() {
    // Regression: after a read timeout the client used to keep listening on
    // a silently misaligned stream — the late answer to the abandoned
    // request was returned as the answer to the *next* one (reported 111
    // where 222 was the truth). Against an id-less server that mismatch is
    // undetectable per-response, so the connection must be poisoned instead.
    let addr = late_response_script(Duration::from_millis(400), false);
    let mut client = ReachClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a read timeout, got {other:?}"),
    }
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    match client.potential_reach(&["US"], &[1]) {
        Err(ClientError::Desynchronized) => {}
        Ok(reach) => panic!(
            "silent desynchronization: request 2 answered with the late response ({})",
            reach.reported
        ),
        other => panic!("expected Desynchronized, got {other:?}"),
    }
}

#[test]
fn id_echo_makes_the_late_response_harmless() {
    // Same abandonment against an id-echoing server: the late response is
    // identified by its stale id and discarded, and the second request gets
    // its own answer — desynchronization is structurally impossible.
    let addr = late_response_script(Duration::from_millis(400), true);
    let mut client = ReachClient::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    match client.potential_reach(&["US"], &[0]) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected a read timeout, got {other:?}"),
    }
    client.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let reach = client.potential_reach(&["US"], &[1]).unwrap();
    assert_eq!(reach.reported, 222, "the stale response must be discarded by id");
}

#[test]
fn default_backoff_ceiling_is_the_server_maximum() {
    // Regression (observable default): the cap used to be 2s, silently
    // truncating every longer server-suggested wait. The boundary arithmetic
    // is unit-tested next to `backoff_wait`; here the connected client's
    // actual default is pinned.
    let server = start_server(ServerConfig::default());
    let client = ReachClient::connect(server.addr()).unwrap();
    assert_eq!(client.max_backoff, DEFAULT_MAX_BACKOFF);
    assert_eq!(client.max_backoff, reach_api::MAX_RETRY_BACKOFF);
}

#[test]
fn v1_frames_without_ids_are_answered_in_order() {
    // A version-1 client hand-written on a raw socket: no `id` key at all.
    // The pipelining-era server must answer in arrival order with id-less
    // frames (byte-compatible with what a v1 client expects).
    let server = start_server(ServerConfig {
        rate_limit: RateLimitConfig { capacity: 100.0, refill_per_second: 100.0 },
        ..ServerConfig::default()
    });
    let mut reference = ReachClient::connect(server.addr()).unwrap();
    let first = reference.potential_reach(&["US"], &[0]).unwrap();
    let second = reference.potential_reach(&["US", "ES"], &[0, 37]).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(
            b"{\"v\":1,\"locations\":[\"US\"],\"interests\":[0]}\n\
              {\"v\":1,\"locations\":[\"US\",\"ES\"],\"interests\":[0,37]}\n\
              {\"v\":1,\"locations\":[],\"interests\":[],\"stats\":true}\n",
        )
        .unwrap();
    let mut codec = FrameCodec::new();
    let mut responses = Vec::new();
    for _ in 0..3 {
        let frame = read_frame(&mut stream, &mut codec);
        assert!(
            !frame.windows(4).any(|w| w == b"\"id\""),
            "an answer to an id-less request must not grow an id key"
        );
        responses.push(decode_response_frame(&frame).unwrap());
    }
    match &responses[0] {
        ResponseFrame { id: None, response: ReachResponse::Reach { reported, .. }, .. } => {
            assert_eq!(*reported, first.reported);
        }
        other => panic!("expected an id-less reach frame, got {other:?}"),
    }
    match &responses[1] {
        ResponseFrame { id: None, response: ReachResponse::Reach { reported, .. }, .. } => {
            assert_eq!(*reported, second.reported);
        }
        other => panic!("expected an id-less reach frame, got {other:?}"),
    }
    assert!(
        matches!(
            &responses[2],
            ResponseFrame { id: None, response: ReachResponse::Stats { .. }, .. }
        ),
        "third answer must be the stats probe, got {:?}",
        responses[2]
    );
}

#[test]
fn interleaved_idd_and_idless_frames_answer_correctly() {
    // One connection mixing pipelined (id-tagged) and v1 (id-less) frames:
    // answers come back in arrival order, each id-tagged answer echoing its
    // request's id and each id-less answer staying bare.
    let server = start_server(ServerConfig {
        rate_limit: RateLimitConfig { capacity: 100.0, refill_per_second: 100.0 },
        ..ServerConfig::default()
    });
    let mut reference = ReachClient::connect(server.addr()).unwrap();
    let first = reference.potential_reach(&["US"], &[0]).unwrap();
    let second = reference.potential_reach(&["US"], &[1]).unwrap();
    let third = reference.potential_reach(&["US"], &[0, 37]).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut wire = Vec::new();
    wire.extend_from_slice(&encode(&ReachRequest::scalar(vec!["US".into()], vec![0]).with_id(7)));
    wire.extend_from_slice(b"{\"v\":1,\"locations\":[\"US\"],\"interests\":[1]}\n");
    wire.extend_from_slice(&encode(
        &ReachRequest::scalar(vec!["US".into()], vec![0, 37]).with_id(9),
    ));
    stream.write_all(&wire).unwrap();

    let mut codec = FrameCodec::new();
    let mut got = Vec::new();
    for _ in 0..3 {
        let frame = read_frame(&mut stream, &mut codec);
        got.push(decode_response_frame(&frame).unwrap());
    }
    let expected = [(Some(7), first.reported), (None, second.reported), (Some(9), third.reported)];
    for (frame, (want_id, want_reported)) in got.iter().zip(expected) {
        assert_eq!(frame.id, want_id);
        match &frame.response {
            ReachResponse::Reach { reported, .. } => assert_eq!(*reported, want_reported),
            other => panic!("expected a reach frame, got {other:?}"),
        }
    }
}

#[test]
fn pipeline_returns_the_batch_in_request_order() {
    use fbsim_population::index::IndexConfig;
    let server = start_server(ServerConfig {
        rate_limit: RateLimitConfig { capacity: 100.0, refill_per_second: 100.0 },
        index: IndexConfig::enabled(),
        ..ServerConfig::default()
    });
    let locations =
        |codes: &[&str]| -> Vec<String> { codes.iter().map(|s| s.to_string()).collect() };
    let batch = vec![
        ReachRequest::scalar(locations(&["US"]), vec![0]),
        ReachRequest::scalar(locations(&["US", "ES"]), vec![3, 9]),
        ReachRequest::nested(locations(&["US"]), vec![1, 3, 5]),
        ReachRequest::sampled(locations(&["US", "FR"]), vec![2, 4]),
        ReachRequest::scalar(locations(&["US"]), vec![u32::MAX]), // invalid slot
        ReachRequest::scalar(locations(&["BR"]), vec![7]),
    ];
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let answers = client.pipeline(&batch).unwrap();
    assert_eq!(answers.len(), batch.len());

    // Slot-for-slot identical to asking one at a time on a fresh connection.
    let mut sequential = ReachClient::connect(server.addr()).unwrap();
    for (request, answer) in batch.iter().zip(&answers) {
        if request.interests == [u32::MAX] {
            match answer {
                ReachResponse::Error { message } => {
                    assert!(message.contains("unknown interest"), "{message}")
                }
                other => panic!("the invalid slot must carry its own error, got {other:?}"),
            }
            continue;
        }
        let lone = sequential.request(request).unwrap();
        assert_eq!(answer, &lone, "slot answers must match one-at-a-time answers");
    }
}

#[test]
fn pipeline_retries_rate_limited_slots_to_completion() {
    // A batch far past the bucket: throttled slots retry in rounds until
    // every slot holds a substantive answer.
    let server = start_server(ServerConfig {
        rate_limit: RateLimitConfig { capacity: 3.0, refill_per_second: 400.0 },
        ..ServerConfig::default()
    });
    let batch: Vec<ReachRequest> =
        (0..12u32).map(|i| ReachRequest::scalar(vec!["US".into()], vec![i])).collect();
    let mut client = ReachClient::connect(server.addr()).unwrap();
    let answers = client.pipeline(&batch).unwrap();
    assert_eq!(answers.len(), 12);
    for answer in &answers {
        match answer {
            ReachResponse::Reach { reported, .. } => assert!(*reported >= 20),
            other => panic!("every slot must resolve substantively, got {other:?}"),
        }
    }
    assert_eq!(server.requests_served(), 12);
}

/// Sends one hostile frame on a fresh raw connection and returns what came
/// back: `Some(response)` for an answer frame, `None` if the peer closed
/// the connection without one.
fn send_hostile(addr: std::net::SocketAddr, frame: &[u8]) -> Option<ReachResponse> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(frame).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut codec = FrameCodec::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = codec.next_frame().unwrap() {
            return Some(decode_response_frame(&frame).unwrap().response);
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => codec.feed(&buf[..n]),
        }
    }
}

#[test]
fn hostile_frames_cannot_abort_the_process_or_starve_other_connections() {
    use fbsim_population::index::IndexConfig;
    use fbsim_population::ShardSpec;
    use reach_api::proto::MAX_FRAME;

    let server = start_server(ServerConfig::default());
    let backend = start_server(ServerConfig {
        shard: Some(ShardSpec { index: 0, count: 1 }),
        index: IndexConfig::enabled(),
        ..ServerConfig::default()
    });
    let router =
        ReachRouter::start(test_world(), vec![backend.addr()], RouterConfig::default()).unwrap();

    let brackets = vec![b'['; MAX_FRAME];
    let mut nested = br#"{"v":1,"locations":["US"],"interests":[0],"x":"#.to_vec();
    nested.resize(MAX_FRAME, b'[');
    let long_string =
        format!(r#"{{"v":1,"locations":["{}"],"interests":[0]}}"#, "A".repeat(60_000));
    // Each frame, and whether the peer must answer it rather than close.
    // The last three are spellings outside JSON's grammar that an earlier
    // decoder read as `[7]` and `"US"`.
    let hostile: [(&str, &[u8], bool); 6] = [
        ("64 KiB of `[`", &brackets, false),
        ("64 KiB of `[` under an unknown key", &nested, false),
        ("one 60 KB string", long_string.as_bytes(), false),
        ("a leading zero", br#"{"v":1,"locations":["US"],"interests":[007]}"#, true),
        ("a signed `\\u` escape", br#"{"v":1,"locations":["\u+055S"],"interests":[0]}"#, true),
        ("a raw control byte", b"{\"v\":1,\"locations\":[\"U\x01S\"],\"interests\":[0]}", true),
    ];
    for (hop, addr) in [("server", server.addr()), ("router", router.addr())] {
        for (name, frame, must_answer) in hostile {
            let started = Instant::now();
            match send_hostile(addr, frame) {
                Some(ReachResponse::Error { .. }) => {}
                None if !must_answer => {}
                other => panic!("{hop}, {name}: expected an error frame, got {other:?}"),
            }
            // The process survived, and the next connection is answered.
            let mut client = ReachClient::connect(addr).unwrap();
            let answer = client.potential_reach(&["US"], &[0]).unwrap();
            assert!(answer.reported >= 20, "{hop}, {name}: {answer:?}");
            assert!(
                started.elapsed() < Duration::from_secs(20),
                "{hop}, {name}: took {:?}",
                started.elapsed()
            );
        }
    }
}
