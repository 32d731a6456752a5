//! Wall-clock benchmark of the telemetry layer's overhead on the paths it
//! instruments, in three tiers:
//!
//! 1. **Primitives** — ns/op for a counter bump, a gauge round-trip, and a
//!    span guard with the layer disabled, enabled, and tracing to a sink.
//! 2. **Engine** — conjunction-reach sweeps (one `engine.conjunction_reach`
//!    span per call) with the process-global telemetry toggled off, on, and
//!    tracing, with `to_bits`-level cross-checks that the answers never
//!    move.
//! 3. **Server** — the warm-cache scalar request path, pipelined over a
//!    loopback socket against servers with telemetry pinned off and on,
//!    plus a context-propagation pass (trace-tagged frames, parented frame
//!    spans, server-timing echo on every response); this is the path the
//!    ISSUE's <5% overhead target refers to.
//!
//! Writes `BENCH_telemetry.json` to the working directory. Honours
//! `UOF_SCALE` (default `medium`), `UOF_SEED`, and `UOF_THREADS`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ReachEngine};
use reach_api::proto::encode;
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ReachClient, ReachRequest, ReachResponse, ReachServer};
use reach_cache::CacheConfig;
use serde::Serialize;
use uof_telemetry::{FieldValue, Telemetry, TelemetryConfig, TraceContext};

/// Iterations for the primitive micro-measurements.
const PRIMITIVE_OPS: u64 = 1_000_000;
/// Span-guard iterations (heavier per op than a counter bump).
const SPAN_OPS: u64 = 200_000;
/// Warm-cache requests per timed server pass.
const SERVER_REQUESTS: u32 = 8_000;
/// Pipelining depth for the server passes: deep enough to amortise the
/// per-round-trip syscall and context-switch cost into the noise (on a
/// single-core host a sequential loopback ping-pong is dominated by
/// scheduling, not request handling — and the service path has been
/// pipelined since the router landed), shallow enough that neither side's
/// socket buffer can fill while the other end is still writing.
const PIPELINE_DEPTH: u32 = 64;

#[derive(Serialize)]
struct PrimitiveNanos {
    counter_add_disabled: f64,
    counter_add_enabled: f64,
    gauge_incr_decr_enabled: f64,
    span_disabled: f64,
    span_enabled: f64,
    span_tracing: f64,
}

#[derive(Serialize)]
struct OverheadTiming {
    disabled_secs: f64,
    enabled_secs: f64,
    tracing_secs: f64,
    enabled_overhead_pct: f64,
    tracing_overhead_pct: f64,
}

impl OverheadTiming {
    fn new(disabled_secs: f64, enabled_secs: f64, tracing_secs: f64) -> Self {
        let pct = |v: f64| (v / disabled_secs - 1.0) * 100.0;
        OverheadTiming {
            disabled_secs,
            enabled_secs,
            tracing_secs,
            enabled_overhead_pct: pct(enabled_secs),
            tracing_overhead_pct: pct(tracing_secs),
        }
    }
}

#[derive(Serialize)]
struct ServerTiming {
    requests: u32,
    disabled_secs: f64,
    enabled_secs: f64,
    context_secs: f64,
    disabled_rps: f64,
    enabled_rps: f64,
    context_rps: f64,
    /// Per-request overhead of telemetry on the warm-cache scalar path;
    /// target < 5%.
    enabled_overhead_pct: f64,
    /// Overhead of full context propagation — every request tagged with a
    /// trace context, server parenting its frame span under it and echoing
    /// server-timing on every response — against the telemetry-off
    /// baseline; target < 5%. Measured on the raw-replay path (see
    /// [`raw_pass`]), which is what "server overhead" means: the client's
    /// own cost of building trace contexts and decoding echoes is an
    /// opt-in client feature, reported under `full_client` instead.
    context_overhead_pct: f64,
    /// Absolute per-request cost of plain telemetry (`enabled - disabled`).
    /// The percentage figures divide this by the warm-cache request's total
    /// service time (~a few µs, dominated by frame decode), so on a
    /// single-core host — where the benchmark driver also competes for the
    /// core — the ratio overstates what the same nanoseconds cost a server
    /// with its own core. The absolute figure is the portable one.
    enabled_overhead_ns_per_request: f64,
    /// Absolute per-request cost of full context propagation
    /// (`context - disabled`): trace decode + parented frame span +
    /// server-timing echo, on top of plain telemetry.
    context_overhead_ns_per_request: f64,
    /// The same three configurations driven through a full [`ReachClient`]
    /// (request structs built, encoded, responses decoded and settled per
    /// call). On a single-core host the client's per-request work
    /// serialises with the server's, so these figures bound client+server
    /// cost together rather than server overhead alone.
    full_client: FullClientTiming,
}

#[derive(Serialize)]
struct FullClientTiming {
    disabled_secs: f64,
    enabled_secs: f64,
    context_secs: f64,
    enabled_overhead_pct: f64,
    context_overhead_pct: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    scale: String,
    seed: u64,
    threads: usize,
    available_parallelism: usize,
    audiences: usize,
    bit_identical_off_on_tracing: bool,
    primitives_ns_per_op: PrimitiveNanos,
    engine: OverheadTiming,
    server_warm_scalar: ServerTiming,
    /// Spans recorded into the global registry during the enabled passes.
    engine_spans_recorded: u64,
}

/// Small conjunction audiences (3 interests each), mirroring bench_cache.
fn audiences(catalog_len: u32, count: u32) -> Vec<Vec<InterestId>> {
    (0..count)
        .map(|s| (0..3u32).map(|i| InterestId((s * 389 + i * 101) % catalog_len)).collect())
        .collect()
}

/// One engine pass; returns a bit-level checksum of every answer.
fn engine_pass(engine: &ReachEngine<'_>, audiences: &[Vec<InterestId>]) -> u64 {
    let mut checksum = 0u64;
    for ids in audiences {
        checksum = checksum.rotate_left(7)
            ^ engine.conjunction_reach_in(ids, CountryFilter::ALL).to_bits();
    }
    checksum
}

/// Times `f` with one warm-up and `reps` measured runs; returns the best
/// wall-clock seconds and the (identical) checksum.
fn time_best<F: Fn() -> u64>(reps: usize, f: F) -> (f64, u64) {
    let checksum = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let got = f();
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(got, checksum, "benchmark run was not deterministic");
    }
    (best, checksum)
}

/// ns/op of `op` over `ops` iterations.
fn ns_per_op(ops: u64, op: impl Fn(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

fn primitives() -> PrimitiveNanos {
    let off = Telemetry::new(&TelemetryConfig::disabled());
    let on = Telemetry::new(&TelemetryConfig::enabled());
    let counter = on.registry().counter("bench.counter");
    let gauge = on.registry().gauge("bench.gauge");
    let tracing = Telemetry::new(&TelemetryConfig::enabled());
    tracing.attach_trace_writer(Box::new(std::io::sink()));
    PrimitiveNanos {
        counter_add_disabled: ns_per_op(PRIMITIVE_OPS, |i| off.count("bench.counter", i & 1)),
        counter_add_enabled: ns_per_op(PRIMITIVE_OPS, |i| counter.add(i & 1)),
        gauge_incr_decr_enabled: ns_per_op(PRIMITIVE_OPS, |_| {
            gauge.incr();
            gauge.decr();
        }),
        span_disabled: ns_per_op(SPAN_OPS, |i| {
            let _guard = off.span("bench.span").field("i", FieldValue::from(i)).start();
        }),
        span_enabled: ns_per_op(SPAN_OPS, |i| {
            let _guard = on.span("bench.span").field("i", FieldValue::from(i)).start();
        }),
        span_tracing: ns_per_op(SPAN_OPS, |i| {
            let _guard = tracing.span("bench.span").field("i", FieldValue::from(i)).start();
        }),
    }
}

/// One warm-cache scalar query (eight distinct audiences, cycled — every
/// request is a cache hit after the warm-up pass), optionally tagged with
/// a pre-built trace context.
fn warm_request(i: u32, traced: bool) -> ReachRequest {
    let id = i % 8;
    let request = ReachRequest::scalar(vec!["US".into(), "ES".into()], vec![id, id + 100]);
    if traced {
        request.with_trace(Some(TraceContext { trace_id: u64::from(i) + 1, parent_span_id: 1 }))
    } else {
        request
    }
}

/// Warm-cache scalar requests against a running server, pipelined
/// [`PIPELINE_DEPTH`] at a time; returns a checksum of the reported
/// reaches.
fn server_pass_impl(client: &mut ReachClient, requests: u32, traced: bool) -> u64 {
    let mut checksum = 0u64;
    for batch_start in (0..requests).step_by(PIPELINE_DEPTH as usize) {
        let batch: Vec<ReachRequest> = (batch_start..(batch_start + PIPELINE_DEPTH).min(requests))
            .map(|i| warm_request(i, traced))
            .collect();
        let ids: Vec<u64> = batch.iter().map(|r| client.send(r).unwrap()).collect();
        for (request, id) in batch.iter().zip(ids) {
            let reported = match client.receive(request, id).unwrap() {
                ReachResponse::Reach { reported, .. } => reported,
                other => panic!("unexpected response to warm scalar request: {other:?}"),
            };
            checksum = checksum.rotate_left(7) ^ reported;
        }
    }
    checksum
}

/// The untraced warm path.
fn server_pass(client: &mut ReachClient, requests: u32) -> u64 {
    server_pass_impl(client, requests, false)
}

/// Like [`server_pass`] but every frame carries a trace context: the
/// server decodes it, parents its `server.frame` span under it, and
/// byte-splices a server-timing echo into every response. This isolates
/// the **server-side** cost of context propagation — the client's own
/// tracer stays out of the loop (its per-span cost is characterised
/// separately in `primitives_ns_per_op.span_tracing`).
fn server_pass_traced(client: &mut ReachClient, requests: u32) -> u64 {
    server_pass_impl(client, requests, true)
}

/// Pre-encodes one pass worth of warm-cache request frames, pipelined
/// [`PIPELINE_DEPTH`] per batch, with explicit pipelining ids.
///
/// Encoding once outside the timed loop is what isolates **server**
/// overhead on a single-core host: a full [`ReachClient`] pass spends
/// client-side time building and encoding every request (and decoding
/// every response), and that time serialises with the server's on one
/// core, so it would be billed to the server under test. The raw replay
/// keeps the timed client work down to write/read syscalls and a newline
/// scan — identical across configurations.
fn encoded_batches(traced: bool) -> Vec<Vec<u8>> {
    (0..SERVER_REQUESTS)
        .step_by(PIPELINE_DEPTH as usize)
        .map(|batch_start| {
            let mut batch = Vec::new();
            for i in batch_start..(batch_start + PIPELINE_DEPTH).min(SERVER_REQUESTS) {
                batch.extend_from_slice(&encode(&warm_request(i, traced).with_id(u64::from(i))));
            }
            batch
        })
        .collect()
}

/// One timed raw-replay pass: writes each pre-encoded batch and reads
/// until every frame of the batch is answered (responses are
/// newline-delimited, one per request). Returns wall seconds.
fn raw_pass(stream: &mut TcpStream, batches: &[Vec<u8>]) -> f64 {
    let mut buf = [0u8; 65536];
    let start = Instant::now();
    for batch in batches {
        stream.write_all(batch).expect("write batch");
        let expected = batch.iter().filter(|&&b| b == b'\n').count();
        let mut answered = 0;
        while answered < expected {
            let n = stream.read(&mut buf).expect("read responses");
            assert!(n > 0, "server closed mid-pass");
            answered += buf[..n].iter().filter(|&&b| b == b'\n').count();
        }
        assert_eq!(answered, expected, "one response frame per request frame");
    }
    start.elapsed().as_secs_f64()
}

/// One timed warm-cache pass through a connection; asserts the checksum
/// matches the expected value (request-path determinism).
fn timed_pass(
    client: &mut ReachClient,
    pass: fn(&mut ReachClient, u32) -> u64,
    expect: u64,
) -> f64 {
    let start = Instant::now();
    let got = pass(client, SERVER_REQUESTS);
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(got, expect, "server benchmark run was not deterministic");
    secs
}

fn server_timing(world: &Arc<World>) -> ServerTiming {
    let start_server = |telemetry: TelemetryConfig| {
        ReachServer::start(
            Arc::clone(world),
            ServerConfig {
                telemetry: Some(telemetry),
                cache: CacheConfig::default(),
                // No throttling: the measurement is request handling, not
                // rate-limiter backoff.
                rate_limit: RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 },
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    };
    let off = start_server(TelemetryConfig::disabled());
    let on = start_server(TelemetryConfig::enabled());
    let mut off_client = ReachClient::connect(off.addr()).unwrap();
    let mut on_client = ReachClient::connect(on.addr()).unwrap();
    // Context-propagation pass against the instrumented server: the most
    // expensive server-side observability configuration the warm path can
    // run in (trace decode + parented frame span + timing echo per frame).
    let mut ctx_client = ReachClient::connect(on.addr()).unwrap();

    // Warm every path once (fills the reach cache and faults in both
    // servers), pinning the expected checksum.
    let expect = server_pass(&mut off_client, SERVER_REQUESTS);
    let on_sum = server_pass(&mut on_client, SERVER_REQUESTS);
    assert_eq!(expect, on_sum, "instrumented server answers must match uninstrumented");
    let ctx_sum = server_pass_traced(&mut ctx_client, SERVER_REQUESTS);
    assert_eq!(expect, ctx_sum, "context-propagated answers must match uninstrumented bits");

    // Raw-replay connections: pre-encoded frames, so the timed loop holds
    // no client-side encode/decode work (see [`encoded_batches`]).
    let connect_raw = |addr| {
        let stream = TcpStream::connect(addr).expect("connect raw");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
        stream
    };
    let mut off_raw = connect_raw(off.addr());
    let mut on_raw = connect_raw(on.addr());
    let mut ctx_raw = connect_raw(on.addr());
    let plain_batches = encoded_batches(false);
    let traced_batches = encoded_batches(true);

    // Interleave the configurations round-robin and keep the best
    // wall-clock per configuration: machine-load drift across the run (the
    // dominant error source on a small host) then biases every
    // configuration equally instead of whichever pass ran last.
    let (mut off_secs, mut on_secs, mut ctx_secs) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..9 {
        off_secs = off_secs.min(raw_pass(&mut off_raw, &plain_batches));
        on_secs = on_secs.min(raw_pass(&mut on_raw, &plain_batches));
        ctx_secs = ctx_secs.min(raw_pass(&mut ctx_raw, &traced_batches));
    }
    let (mut off_full, mut on_full, mut ctx_full) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        off_full = off_full.min(timed_pass(&mut off_client, server_pass, expect));
        on_full = on_full.min(timed_pass(&mut on_client, server_pass, expect));
        ctx_full = ctx_full.min(timed_pass(&mut ctx_client, server_pass_traced, expect));
    }

    ServerTiming {
        requests: SERVER_REQUESTS,
        disabled_secs: off_secs,
        enabled_secs: on_secs,
        context_secs: ctx_secs,
        disabled_rps: SERVER_REQUESTS as f64 / off_secs,
        enabled_rps: SERVER_REQUESTS as f64 / on_secs,
        context_rps: SERVER_REQUESTS as f64 / ctx_secs,
        enabled_overhead_pct: (on_secs / off_secs - 1.0) * 100.0,
        context_overhead_pct: (ctx_secs / off_secs - 1.0) * 100.0,
        enabled_overhead_ns_per_request: (on_secs - off_secs) * 1e9 / f64::from(SERVER_REQUESTS),
        context_overhead_ns_per_request: (ctx_secs - off_secs) * 1e9 / f64::from(SERVER_REQUESTS),
        full_client: FullClientTiming {
            disabled_secs: off_full,
            enabled_secs: on_full,
            context_secs: ctx_full,
            enabled_overhead_pct: (on_full / off_full - 1.0) * 100.0,
            context_overhead_pct: (ctx_full / off_full - 1.0) * 100.0,
        },
    }
}

use fbsim_population::World;

fn main() {
    let (scale, world) = bench::build_world();
    let seed = bench::seed_from_env();
    let threads = rayon::current_num_threads();
    let world = Arc::new(world);
    let engine = world.reach_engine();
    let catalog_len = world.catalog().len() as u32;
    let auds = audiences(catalog_len, 40);

    eprintln!("[run] primitives: counter/gauge/span ns per op…");
    let primitives = primitives();

    // --- Engine spans: off / on / tracing, bit-identical ----------------
    let telemetry = uof_telemetry::global();
    let was_enabled = telemetry.is_enabled();
    eprintln!("[run] engine: {} audiences, telemetry off/on/tracing…", auds.len());
    telemetry.set_enabled(false);
    let (engine_off, off_sum) = time_best(3, || engine_pass(&engine, &auds));
    telemetry.set_enabled(true);
    let spans_before =
        telemetry.snapshot().histogram("engine.conjunction_reach").map(|h| h.count).unwrap_or(0);
    let (engine_on, on_sum) = time_best(3, || engine_pass(&engine, &auds));
    telemetry.attach_trace_writer(Box::new(std::io::sink()));
    let (engine_trace, trace_sum) = time_best(3, || engine_pass(&engine, &auds));
    telemetry.detach_trace_writer();
    let spans_recorded =
        telemetry.snapshot().histogram("engine.conjunction_reach").map(|h| h.count).unwrap_or(0)
            - spans_before;
    telemetry.set_enabled(was_enabled);
    assert_eq!(off_sum, on_sum, "telemetry-on answers must match telemetry-off bits");
    assert_eq!(off_sum, trace_sum, "tracing answers must match telemetry-off bits");
    assert!(spans_recorded > 0, "enabled passes must record engine spans");

    // --- Server warm-cache scalar path ----------------------------------
    eprintln!("[run] server: {SERVER_REQUESTS} warm-cache scalar requests, telemetry off/on…");
    let server = server_timing(&world);

    let report = Report {
        bench: "telemetry",
        scale: format!("{scale:?}").to_lowercase(),
        seed,
        threads,
        available_parallelism: bench::available_parallelism(),
        audiences: auds.len(),
        bit_identical_off_on_tracing: true,
        primitives_ns_per_op: primitives,
        engine: OverheadTiming::new(engine_off, engine_on, engine_trace),
        server_warm_scalar: server,
        engine_spans_recorded: spans_recorded,
    };
    let rendered = serde_json::to_string(&report).expect("report serialises");
    std::fs::write("BENCH_telemetry.json", &rendered).expect("write BENCH_telemetry.json");
    println!("{rendered}");
    eprintln!(
        "[done] engine off {engine_off:.4}s → on {engine_on:.4}s; wrote BENCH_telemetry.json"
    );
}
