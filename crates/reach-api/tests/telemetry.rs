//! Loopback tests of the telemetry wiring: the `StatsSnapshot` introspection
//! opcode, per-opcode counters and latency histograms, wire backward
//! compatibility, and the disabled-telemetry inert path.
//!
//! Every server here carries a private [`TelemetryConfig`] domain, so its
//! assertions see only its own metrics.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use fbsim_population::{World, WorldConfig};
use reach_api::proto::{decode_response_frame, ReachResponse};
use reach_api::server::ServerConfig;
use reach_api::{ReachClient, ReachServer};
use reach_cache::CacheConfig;
use uof_telemetry::TelemetryConfig;

/// A cloneable in-memory trace sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn test_world() -> Arc<World> {
    use std::sync::OnceLock;
    static WORLD: OnceLock<Arc<World>> = OnceLock::new();
    Arc::clone(
        WORLD.get_or_init(|| Arc::new(World::generate(WorldConfig::test_scale(23)).unwrap())),
    )
}

/// A server with telemetry pinned on and the cache pinned on, so the test
/// observes both the request metrics and the mirrored cache gauges.
fn telemetry_server() -> ReachServer {
    ReachServer::start(
        test_world(),
        ServerConfig {
            telemetry: Some(TelemetryConfig::enabled()),
            cache: CacheConfig::default(),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

#[test]
fn snapshot_reports_request_counters_and_latency() {
    let server = telemetry_server();
    let mut client = ReachClient::connect(server.addr()).unwrap();

    // Drive traffic through both query opcodes.
    for i in 0..3u32 {
        client.potential_reach(&["US", "ES"], &[i, i + 7]).unwrap();
    }
    client.nested_reach(&["US"], &[1, 3, 5]).unwrap();

    let registry = client.telemetry_snapshot().unwrap();

    // Per-opcode request counters moved.
    assert_eq!(registry.counter("reach.requests.scalar"), Some(3), "{registry:?}");
    assert_eq!(registry.counter("reach.requests.nested"), Some(1), "{registry:?}");
    // The snapshot request counts itself: its counter is bumped before the
    // dump is taken.
    assert_eq!(registry.counter("reach.requests.snapshot"), Some(1), "{registry:?}");
    assert_eq!(registry.counter("reach.requests.error"), None, "no errors sent: {registry:?}");

    // Latency histograms carry one observation per completed request.
    let scalar = registry.histogram("reach.request.scalar").expect("scalar histogram");
    assert_eq!(scalar.count, 3, "{scalar:?}");
    assert!(scalar.sum > 0, "requests take nonzero time: {scalar:?}");
    assert!(scalar.populated_buckets() > 0, "{scalar:?}");
    let total: u64 = scalar.buckets.iter().map(|b| b.count).sum();
    assert_eq!(total, scalar.count, "bucket counts must account for every observation");
    let nested = registry.histogram("reach.request.nested").expect("nested histogram");
    assert_eq!(nested.count, 1, "{nested:?}");

    // The snapshot is taken while its own request is being handled, so the
    // in-flight gauge deterministically sees at least itself.
    let in_flight = registry.gauge("reach.requests.in_flight").expect("in-flight gauge");
    assert!(in_flight >= 1, "snapshot must observe itself in flight, got {in_flight}");

    // Cache counters are mirrored into the registry as gauges and agree
    // with the dedicated stats opcode.
    assert_eq!(registry.gauge("reach_cache.enabled"), Some(1), "{registry:?}");
    let stats = client.cache_stats().unwrap();
    let mirrored = registry.gauge("reach_cache.misses").expect("mirrored miss gauge");
    assert!(mirrored >= 1 && mirrored as u64 <= stats.misses, "{mirrored} vs {stats:?}");
}

#[test]
fn histograms_accumulate_across_snapshots() {
    let server = telemetry_server();
    let mut client = ReachClient::connect(server.addr()).unwrap();

    client.potential_reach(&["US"], &[2]).unwrap();
    let first = client.telemetry_snapshot().unwrap();
    client.potential_reach(&["US"], &[2]).unwrap();
    client.potential_reach(&["US"], &[2]).unwrap();
    let second = client.telemetry_snapshot().unwrap();

    // Counters and histogram counts are monotone across snapshots.
    assert_eq!(first.counter("reach.requests.scalar"), Some(1));
    assert_eq!(second.counter("reach.requests.scalar"), Some(3));
    let h1 = first.histogram("reach.request.scalar").unwrap();
    let h2 = second.histogram("reach.request.scalar").unwrap();
    assert!(h2.count > h1.count && h2.sum >= h1.sum, "{h1:?} vs {h2:?}");
    // The second snapshot sees the first snapshot request completed.
    let s2 = second.histogram("reach.request.snapshot").unwrap();
    assert_eq!(s2.count, 1, "{s2:?}");
}

#[test]
fn v1_frames_without_extension_keys_still_served() {
    // A version-1 client hand-written on a raw socket: no `nested`, `stats`,
    // or `snapshot` keys at all. The telemetry-era server must decode it and
    // answer a plain reach frame it can understand.
    let server = telemetry_server();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    stream.write_all(b"{\"v\":1,\"locations\":[\"US\",\"ES\"],\"interests\":[0]}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let response: ReachResponse = serde_json::from_str(line.trim_end()).unwrap();
    let reported = match response {
        ReachResponse::Reach { reported, .. } => reported,
        other => panic!("expected reach frame, got {other:?}"),
    };

    // Identical to the same query through the current client.
    let mut client = ReachClient::connect(server.addr()).unwrap();
    assert_eq!(client.potential_reach(&["US", "ES"], &[0]).unwrap().reported, reported);

    // And the raw request was metered like any scalar query.
    let registry = client.telemetry_snapshot().unwrap();
    assert_eq!(registry.counter("reach.requests.scalar"), Some(2), "{registry:?}");
}

#[test]
fn disabled_telemetry_is_inert_and_answers_match() {
    let off = ReachServer::start(
        test_world(),
        ServerConfig {
            telemetry: Some(TelemetryConfig::disabled()),
            cache: CacheConfig::default(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let on = telemetry_server();
    let mut off_client = ReachClient::connect(off.addr()).unwrap();
    let mut on_client = ReachClient::connect(on.addr()).unwrap();

    // Observation only: answers are identical with telemetry off and on.
    for i in 0..4u32 {
        let a = off_client.potential_reach(&["US", "FR"], &[i, i + 11]).unwrap();
        let b = on_client.potential_reach(&["US", "FR"], &[i, i + 11]).unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(
        off_client.nested_reach(&["US"], &[2, 4, 6]).unwrap(),
        on_client.nested_reach(&["US"], &[2, 4, 6]).unwrap()
    );

    // The snapshot opcode still answers, with an empty registry: nothing
    // was recorded and no cache gauges were published.
    let registry = off_client.telemetry_snapshot().unwrap();
    assert!(registry.counters.is_empty(), "{registry:?}");
    assert!(registry.gauges.is_empty(), "{registry:?}");
    assert!(registry.histograms.is_empty(), "{registry:?}");
}

/// A telemetry-enabled server with a trace sink attached — full tracing,
/// the configuration the compatibility tests below exercise.
fn tracing_server() -> (ReachServer, SharedBuf) {
    let server = telemetry_server();
    let sink = SharedBuf::default();
    server.telemetry().attach_trace_writer(Box::new(sink.clone()));
    (server, sink)
}

#[test]
fn v1_and_id_only_frames_are_served_unchanged_by_a_tracing_server() {
    // Backward compatibility under full tracing: a version-1 frame (no id,
    // no trace context) and a v2 id-only frame must both be answered
    // correctly — and neither response may grow trace-era bytes. The echo
    // is strictly opt-in by sending a trace context.
    let (server, _sink) = tracing_server();
    let mut reference = ReachClient::connect(server.addr()).unwrap();
    let expected = reference.potential_reach(&["US", "ES"], &[0]).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // v1: bare frame in, bare frame out.
    stream.write_all(b"{\"v\":1,\"locations\":[\"US\",\"ES\"],\"interests\":[0]}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.contains("\"id\""), "id-less request grew an id: {line}");
    assert!(!line.contains("server_timing"), "unsolicited timing echo: {line}");
    assert!(!line.contains("trace"), "trace bytes leaked to a v1 client: {line}");
    let response: ReachResponse = serde_json::from_str(line.trim_end()).unwrap();
    match response {
        ReachResponse::Reach { reported, .. } => assert_eq!(reported, expected.reported),
        other => panic!("expected reach frame, got {other:?}"),
    }

    // v2 id-only: the id echoes, nothing else appears.
    stream
        .write_all(b"{\"v\":1,\"locations\":[\"US\",\"ES\"],\"interests\":[0],\"id\":5}\n")
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.contains("server_timing"), "unsolicited timing echo: {line}");
    assert!(!line.contains("trace"), "trace bytes leaked to an id-only client: {line}");
    let frame = decode_response_frame(line.trim_end().as_bytes()).unwrap();
    assert_eq!(frame.id, Some(5));
    assert_eq!(frame.server_timing, None);
    match frame.response {
        ReachResponse::Reach { reported, .. } => assert_eq!(reported, expected.reported),
        other => panic!("expected reach frame, got {other:?}"),
    }
}

#[test]
fn trace_context_requests_get_the_timing_echo_and_join_the_trace() {
    let (server, sink) = tracing_server();
    let mut reference = ReachClient::connect(server.addr()).unwrap();
    let expected = reference.potential_reach(&["US", "FR"], &[3]).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let tagged = b"{\"v\":1,\"locations\":[\"US\",\"FR\"],\"interests\":[3],\"id\":9,\
                   \"trace\":[1,2]}\n";

    // The reference client already ran this exact query, so the tagged
    // resend is answered from cache — the echo must say so.
    stream.write_all(tagged).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let frame = decode_response_frame(line.trim_end().as_bytes()).unwrap();
    assert_eq!(frame.id, Some(9));
    let timing = frame.server_timing.expect("context-tagged request gets a timing echo");
    assert!(timing.handler_ns > 0, "{timing:?}");
    assert!(
        timing.cache_hit && timing.engine_ns == 0,
        "the reference client warmed this exact query: {timing:?}"
    );
    match frame.response {
        ReachResponse::Reach { reported, .. } => assert_eq!(reported, expected.reported),
        other => panic!("expected reach frame, got {other:?}"),
    }

    // A cold query through the same tagged path reports engine time.
    let cold = b"{\"v\":1,\"locations\":[\"US\",\"FR\"],\"interests\":[3,19],\"id\":10,\
                 \"trace\":[1,2]}\n";
    stream.write_all(cold).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let frame = decode_response_frame(line.trim_end().as_bytes()).unwrap();
    let timing = frame.server_timing.expect("timing echo");
    assert!(
        !timing.cache_hit && timing.engine_ns > 0,
        "a cold query must report engine compute: {timing:?}"
    );
    assert!(timing.handler_ns >= timing.engine_ns, "{timing:?}");

    // The server-side spans joined the caller's trace: a `server.frame`
    // span under trace 1 with parent span 2, and a handler span under
    // that frame span.
    server.telemetry().flush_traces();
    let traces = sink.contents();
    let frame_line = traces
        .lines()
        .find(|l| l.contains("\"span\":\"server.frame\"") && l.contains("\"trace_id\":1,"))
        .unwrap_or_else(|| panic!("no server.frame span joined trace 1:\n{traces}"));
    assert!(frame_line.contains("\"parent_span_id\":2,"), "{frame_line}");
    let span_id = frame_line
        .split("\"span_id\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .expect("span_id field");
    let child_marker = format!("\"parent_span_id\":{span_id},");
    assert!(
        traces.lines().any(|l| {
            l.contains("\"span\":\"reach.request.scalar\"")
                && l.contains("\"trace_id\":1,")
                && l.contains(&child_marker)
        }),
        "no handler span hangs off the frame span {span_id}:\n{traces}"
    );
}

#[test]
fn errors_and_concurrent_traffic_are_metered() {
    let server = telemetry_server();
    let addr = server.addr();

    // Two invalid requests, then concurrent valid traffic.
    let mut client = ReachClient::connect(addr).unwrap();
    assert!(client.potential_reach(&[], &[0]).is_err());
    assert!(client.potential_reach(&["Spain"], &[0]).is_err());
    let threads: Vec<_> = (0..3)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ReachClient::connect(addr).unwrap();
                for i in 0..5u32 {
                    client.potential_reach(&["US"], &[t * 50 + i]).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let registry = client.telemetry_snapshot().unwrap();
    assert_eq!(registry.counter("reach.requests.error"), Some(2), "{registry:?}");
    // Invalid requests are still scalar-opcode requests: 2 + 15.
    assert_eq!(registry.counter("reach.requests.scalar"), Some(17), "{registry:?}");
    let histogram = registry.histogram("reach.request.scalar").unwrap();
    assert_eq!(histogram.count, 17, "{histogram:?}");
}

#[test]
fn multi_flag_frames_are_metered_under_the_opcode_that_answers() {
    // Raw frames setting two opcode flags, which the typed constructors
    // never build. The counter and histogram must follow the answer on both
    // tiers: `shard` + `snapshot` is answered (and metered) as a snapshot,
    // and `nested` + `sampled` names no opcode, so it is metered only as an
    // error.
    use fbsim_population::ShardSpec;
    use reach_api::{ReachRouter, RouterConfig};

    let server = telemetry_server();
    let backend = ReachServer::start(
        test_world(),
        ServerConfig {
            shard: Some(ShardSpec { index: 0, count: 1 }),
            telemetry: Some(TelemetryConfig::disabled()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let router = ReachRouter::start(
        test_world(),
        vec![backend.addr()],
        RouterConfig { telemetry: Some(TelemetryConfig::enabled()), ..RouterConfig::default() },
    )
    .unwrap();
    for (tier, addr) in [("server", server.addr()), ("router", router.addr())] {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut stream = stream;
        stream
            .write_all(
                b"{\"v\":1,\"locations\":[\"US\"],\"interests\":[0],\"shard\":true,\"snapshot\":true}\n\
                  {\"v\":1,\"locations\":[\"US\"],\"interests\":[0],\"nested\":true,\"sampled\":true}\n",
            )
            .unwrap();
        let mut answers = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            answers.push(decode_response_frame(line.trim_end().as_bytes()).unwrap().response);
        }
        assert!(matches!(answers[0], ReachResponse::StatsSnapshot { .. }), "{tier}: {answers:?}");
        assert_eq!(
            answers[1],
            ReachResponse::Error { message: "nested and sampled are mutually exclusive".into() },
            "{tier}"
        );

        let registry = ReachClient::connect(addr).unwrap().telemetry_snapshot().unwrap();
        assert_eq!(registry.counter("reach.requests.snapshot"), Some(2), "{tier}: {registry:?}");
        assert_eq!(registry.counter("reach.requests.error"), Some(1), "{tier}: {registry:?}");
        for opcode in ["shard", "nested", "sampled", "scalar"] {
            let counter = format!("reach.requests.{opcode}");
            assert_eq!(registry.counter(&counter), None, "{tier}: {registry:?}");
            let histogram = format!("reach.request.{opcode}");
            assert!(registry.histogram(&histogram).is_none(), "{tier}: {registry:?}");
        }
    }
}
