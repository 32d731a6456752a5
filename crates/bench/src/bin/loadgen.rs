//! Service-level load generator: replays an FDVT-cohort-shaped query mix
//! against the reach service and measures what PR 8's pipelining buys.
//!
//! The mix mirrors the paper's collection workload: interest popularity is
//! sampled proportional to catalog audience size (the Zipf-shaped
//! `target_audience` tail), nested requests are per-user prefix sweeps in
//! least-popular-first and as-materialized order (the paper's LP and R
//! strategies, capped at 22 interests), and a sampled-index slice rides
//! along.
//!
//! Pipelining amortises the *round trip*; on a bare loopback socket the
//! round trip is microseconds, so the workload is also replayed through an
//! in-process WAN emulator (a byte-forwarding proxy that delays each chunk
//! by half of [`EMULATED_RTT_MS`]) — a stand-in for the remote Marketing
//! API the paper's collection actually talked to. Three measured
//! configurations, one workload:
//!
//! 1. **sequential** — one request per round trip
//!    ([`ReachClient::request`]) through the emulated RTT, the
//!    pre-pipelining baseline;
//! 2. **pipelined** — the same requests in id-tagged batches of [`BATCH`]
//!    ([`ReachClient::pipeline`]) through the same proxy; must answer
//!    slot-for-slot identically and is asserted ≥ 3× the baseline
//!    throughput (raw loopback numbers are reported alongside,
//!    unasserted);
//! 3. **routed** — a prefix of the workload through a 2-shard
//!    router/aggregator deployment, every answer asserted equal to the
//!    single node's.
//!
//! Latencies are recorded into `uof-telemetry` histograms and reported as
//! bucket-resolution percentiles. Writes `BENCH_service.json` to the
//! working directory. Honours `UOF_SCALE` (default `medium`), `UOF_SEED`,
//! and `UOF_THREADS`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbsim_fdvt::FdvtDataset;
use fbsim_population::{InterestId, ShardSpec, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reach_api::proto::ReachRequest;
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ReachClient, ReachResponse, ReachRouter, ReachServer, RouterConfig};
use serde::Serialize;
use uof_telemetry::{Histogram, HistogramSnapshot, Telemetry, TelemetryConfig};

/// Requests in the replayed workload.
const WORKLOAD: usize = 1_024;
/// Pipelined batch size (one write, one read train per batch).
const BATCH: usize = 64;
/// Round trip added by the WAN emulator, far below the paper's real
/// API latencies but enough to make transport costs visible.
const EMULATED_RTT_MS: u64 = 3;
/// Workload prefix replayed through the router (shard partials bypass the
/// backend caches, so the routed pass is compute-heavier per request).
const ROUTER_REQUESTS: usize = 192;
/// The paper's nested sweeps stop at 22 interests per user.
const MAX_SWEEP: usize = 22;

/// No throttling: the measurement is transport amortisation, not backoff.
fn unthrottled() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 }
}

/// A loopback WAN emulator: accepts connections, dials `upstream`, and
/// pumps bytes both ways, delaying every chunk by `one_way` — the
/// propagation half-RTT a remote API imposes on each direction. Threads
/// die with the process; the bench never tears it down.
fn rtt_proxy(upstream: SocketAddr, one_way: Duration) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        while let Ok((inbound, _)) = listener.accept() {
            let Ok(outbound) = TcpStream::connect(upstream) else { break };
            let _ = inbound.set_nodelay(true);
            let _ = outbound.set_nodelay(true);
            let pump = |mut from: TcpStream, mut to: TcpStream| {
                std::thread::spawn(move || {
                    let mut buf = vec![0u8; 64 * 1024];
                    while let Ok(n) = from.read(&mut buf) {
                        if n == 0 {
                            break;
                        }
                        std::thread::sleep(one_way);
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = to.shutdown(std::net::Shutdown::Write);
                });
            };
            let (Ok(in_clone), Ok(out_clone)) = (inbound.try_clone(), outbound.try_clone()) else {
                break;
            };
            pump(inbound, outbound);
            pump(out_clone, in_clone);
        }
    });
    addr
}

/// Samples interests proportional to catalog `target_audience` — popular
/// interests are queried more, matching the head-heavy mix a real
/// collection run issues.
struct PopularitySampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl PopularitySampler {
    fn new(world: &World) -> Self {
        let mut cumulative = Vec::with_capacity(world.catalog().len());
        let mut total = 0.0f64;
        for interest in world.catalog().interests() {
            total += interest.target_audience.max(0.0);
            cumulative.push(total);
        }
        assert!(total > 0.0, "catalog must carry positive audience mass");
        Self { cumulative, total }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen_range(0.0..self.total);
        self.cumulative.partition_point(|&c| c <= u) as u32
    }

    /// `k` distinct interests (scalar/sampled conjunctions).
    fn sample_distinct(&self, rng: &mut StdRng, k: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = Vec::with_capacity(k);
        while ids.len() < k {
            let id = self.sample(rng);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }
}

/// Request class labels, parallel to `Workload::requests`.
const CLASS_SCALAR: &str = "scalar";
const CLASS_NESTED: &str = "nested";
const CLASS_SAMPLED: &str = "sampled";

struct Workload {
    requests: Vec<ReachRequest>,
    /// Class label per request (`CLASS_*`), same order as `requests`.
    classes: Vec<&'static str>,
    scalar: usize,
    nested: usize,
    sampled: usize,
}

/// One latency histogram per request class, for per-request wall-latency
/// recording in the sequential passes.
struct ClassHistograms {
    scalar: std::sync::Arc<Histogram>,
    nested: std::sync::Arc<Histogram>,
    sampled: std::sync::Arc<Histogram>,
}

impl ClassHistograms {
    fn new(telemetry: &Telemetry, prefix: &str) -> Self {
        let registry = telemetry.registry();
        // Literal name per class: the lint contract wants greppable metric
        // names, and three literals beat one format!().
        match prefix {
            "loopback" => Self {
                scalar: registry.latency_histogram("loadgen.loopback.scalar"),
                nested: registry.latency_histogram("loadgen.loopback.nested"),
                sampled: registry.latency_histogram("loadgen.loopback.sampled"),
            },
            _ => Self {
                scalar: registry.latency_histogram("loadgen.emulated.scalar"),
                nested: registry.latency_histogram("loadgen.emulated.nested"),
                sampled: registry.latency_histogram("loadgen.emulated.sampled"),
            },
        }
    }

    fn observe(&self, class: &str, ns: u64) {
        match class {
            CLASS_SCALAR => self.scalar.observe(ns),
            CLASS_NESTED => self.nested.observe(ns),
            _ => self.sampled.observe(ns),
        }
    }
}

/// The FDVT-cohort-shaped mix: 60% scalar conjunctions, 25% nested
/// per-user sweeps (alternating the paper's LP and R orderings), 15%
/// sampled-index conjunctions.
fn build_workload(world: &World, cohort: &FdvtDataset, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD_6E4E);
    let sampler = PopularitySampler::new(world);
    let location_pool: [&[&str]; 4] =
        [&["US"], &["ES"], &["US", "ES", "FR"], &["US", "ES", "FR", "BR"]];
    let locations = |rng: &mut StdRng| -> Vec<String> {
        location_pool[rng.gen_range(0..location_pool.len())].iter().map(|s| s.to_string()).collect()
    };
    let mut requests = Vec::with_capacity(WORKLOAD);
    let mut classes = Vec::with_capacity(WORKLOAD);
    let (mut scalar, mut nested, mut sampled) = (0, 0, 0);
    for turn in 0..WORKLOAD {
        let roll = rng.gen_range(0..100u32);
        if roll < 60 {
            scalar += 1;
            classes.push(CLASS_SCALAR);
            let k = rng.gen_range(1..=5usize);
            requests.push(ReachRequest::scalar(
                locations(&mut rng),
                sampler.sample_distinct(&mut rng, k),
            ));
        } else if roll < 85 {
            nested += 1;
            classes.push(CLASS_NESTED);
            let user = &cohort.users[rng.gen_range(0..cohort.len())];
            let mut sequence: Vec<InterestId> =
                user.profile.interests.iter().copied().take(MAX_SWEEP).collect();
            if turn % 2 == 0 {
                // LP: least-popular-first, the paper's uniqueness-seeking
                // sweep order.
                sequence.sort_by(|a, b| {
                    let pop = |id: &InterestId| world.catalog().interest(*id).target_audience;
                    pop(a).total_cmp(&pop(b)).then(a.0.cmp(&b.0))
                });
            }
            // R: the as-materialized order is already the user's random draw.
            requests.push(ReachRequest::nested(
                locations(&mut rng),
                sequence.iter().map(|i| i.0).collect(),
            ));
        } else {
            sampled += 1;
            classes.push(CLASS_SAMPLED);
            let k = rng.gen_range(2..=3usize);
            requests.push(ReachRequest::sampled(
                locations(&mut rng),
                sampler.sample_distinct(&mut rng, k),
            ));
        }
    }
    Workload { requests, classes, scalar, nested, sampled }
}

/// One request per round trip; returns wall seconds and every answer.
/// `per_class` records each request's wall latency into its class's
/// histogram (classes parallel to `requests`).
fn sequential_pass(
    client: &mut ReachClient,
    requests: &[ReachRequest],
    histogram: Option<&Histogram>,
    per_class: Option<(&[&'static str], &ClassHistograms)>,
) -> (f64, Vec<ReachResponse>) {
    let mut answers = Vec::with_capacity(requests.len());
    let pass = Instant::now();
    for (i, request) in requests.iter().enumerate() {
        let start = Instant::now();
        let response = client.request(request).expect("sequential request");
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        if let Some(h) = histogram {
            h.observe(elapsed_ns);
        }
        if let Some((classes, by_class)) = per_class {
            by_class.observe(classes[i], elapsed_ns);
        }
        answers.push(response);
    }
    (pass.elapsed().as_secs_f64(), answers)
}

/// Id-tagged batches of [`BATCH`]; returns wall seconds and every answer.
fn pipelined_pass(
    client: &mut ReachClient,
    requests: &[ReachRequest],
    histogram: Option<&Histogram>,
) -> (f64, Vec<ReachResponse>) {
    let mut answers = Vec::with_capacity(requests.len());
    let pass = Instant::now();
    for chunk in requests.chunks(BATCH) {
        let start = Instant::now();
        let batch = client.pipeline(chunk).expect("pipelined batch");
        if let Some(h) = histogram {
            h.observe(start.elapsed().as_nanos() as u64);
        }
        answers.extend(batch);
    }
    (pass.elapsed().as_secs_f64(), answers)
}

/// Bucket-resolution percentile: the inclusive upper bound of the first
/// bucket whose cumulative count reaches `q` of the total.
fn percentile_ns(histogram: &HistogramSnapshot, q: f64) -> u64 {
    let want = (histogram.count as f64 * q).ceil() as u64;
    let mut cumulative = 0;
    for bucket in &histogram.buckets {
        cumulative += bucket.count;
        if cumulative >= want {
            return bucket.le;
        }
    }
    u64::MAX
}

#[derive(Serialize)]
struct LatencyStats {
    count: u64,
    mean_ns: f64,
    p50_ns: u64,
    p90_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

impl LatencyStats {
    fn of(histogram: &HistogramSnapshot) -> Self {
        Self {
            count: histogram.count,
            mean_ns: histogram.mean().unwrap_or(0.0),
            p50_ns: percentile_ns(histogram, 0.50),
            p90_ns: percentile_ns(histogram, 0.90),
            p95_ns: percentile_ns(histogram, 0.95),
            p99_ns: percentile_ns(histogram, 0.99),
        }
    }
}

/// Per-request-class wall-latency stats for one transport configuration.
#[derive(Serialize)]
struct ClassLatency {
    scalar: LatencyStats,
    nested: LatencyStats,
    sampled: LatencyStats,
}

impl ClassLatency {
    fn collect(snapshot: &uof_telemetry::RegistrySnapshot, prefix: &str) -> Self {
        let get = |name: &str| {
            LatencyStats::of(snapshot.histogram(name).expect("class histogram recorded"))
        };
        match prefix {
            "loopback" => Self {
                scalar: get("loadgen.loopback.scalar"),
                nested: get("loadgen.loopback.nested"),
                sampled: get("loadgen.loopback.sampled"),
            },
            _ => Self {
                scalar: get("loadgen.emulated.scalar"),
                nested: get("loadgen.emulated.nested"),
                sampled: get("loadgen.emulated.sampled"),
            },
        }
    }

    /// Shape assertions for the emulated-RTT pass: every class saw its
    /// share of the workload, no sequential request beat the injected
    /// round trip, and the quantiles are monotone.
    fn assert_rtt_shape(&self, mix: (usize, usize, usize)) {
        let floor_ns = EMULATED_RTT_MS * 1_000_000;
        for (name, stats, expect) in [
            (CLASS_SCALAR, &self.scalar, mix.0),
            (CLASS_NESTED, &self.nested, mix.1),
            (CLASS_SAMPLED, &self.sampled, mix.2),
        ] {
            assert_eq!(stats.count as usize, expect, "{name}: one sample per request");
            assert!(
                stats.p50_ns >= floor_ns,
                "{name}: sequential p50 {}ns beat the {EMULATED_RTT_MS}ms round trip",
                stats.p50_ns
            );
            assert!(
                stats.p50_ns <= stats.p95_ns && stats.p95_ns <= stats.p99_ns,
                "{name}: non-monotone percentiles p50={} p95={} p99={}",
                stats.p50_ns,
                stats.p95_ns,
                stats.p99_ns
            );
        }
    }
}

#[derive(Serialize)]
struct WorkloadMix {
    total: usize,
    scalar: usize,
    nested: usize,
    sampled: usize,
}

#[derive(Serialize)]
struct LoopbackPass {
    sequential_secs: f64,
    pipelined_secs: f64,
    /// Unasserted: a bare loopback round trip is microseconds, so compute
    /// dominates and batching buys little here by construction.
    speedup: f64,
}

#[derive(Serialize)]
struct RoutedPass {
    shards: u32,
    requests: usize,
    secs: f64,
    rps: f64,
    /// The same slice replayed in id-tagged pipeline batches through the
    /// router.
    pipelined_secs: f64,
    pipelined_rps: f64,
    answers_equal_to_single_node: bool,
    latency: LatencyStats,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    scale: String,
    seed: u64,
    threads: usize,
    available_parallelism: usize,
    workload: WorkloadMix,
    batch_size: usize,
    /// Round trip injected by the WAN emulator for the asserted numbers.
    emulated_rtt_ms: u64,
    sequential_secs: f64,
    sequential_rps: f64,
    pipelined_secs: f64,
    pipelined_rps: f64,
    /// Pipelined throughput over the one-request-per-round-trip baseline,
    /// both through the emulated RTT; the PR's acceptance floor is 3×.
    pipelined_speedup: f64,
    sequential_latency: LatencyStats,
    pipelined_batch_latency: LatencyStats,
    /// Per-request wall latency by request class, bare loopback
    /// (unasserted: compute-dominated by construction).
    loopback_class_latency: ClassLatency,
    /// Per-request wall latency by request class through the emulated RTT
    /// (shape-asserted: counts match the mix, p50 ≥ RTT, quantiles
    /// monotone).
    emulated_class_latency: ClassLatency,
    loopback: LoopbackPass,
    routed: RoutedPass,
}

fn main() {
    let (scale, world) = bench::build_world();
    let seed = bench::seed_from_env();
    let threads = rayon::current_num_threads();
    let world = Arc::new(world);
    let cohort = bench::build_cohort(&world, scale);
    let workload = build_workload(&world, &cohort, seed);
    eprintln!(
        "[setup] workload: {} requests ({} scalar, {} nested, {} sampled)",
        workload.requests.len(),
        workload.scalar,
        workload.nested,
        workload.sampled
    );

    // Server-side telemetry stays disabled: the bench measures the serving
    // path without instrumentation overhead.
    let server_config = ServerConfig {
        rate_limit: unthrottled(),
        cache: reach_cache::CacheConfig::default(),
        index: fbsim_population::index::IndexConfig::enabled(),
        telemetry: Some(TelemetryConfig::disabled()),
        ..ServerConfig::default()
    };
    let server =
        ReachServer::start(Arc::clone(&world), server_config.clone()).expect("bind loopback");
    let mut direct = ReachClient::connect(server.addr()).expect("connect");

    let telemetry = Telemetry::new(&TelemetryConfig::enabled());
    let sequential_latency = telemetry.registry().latency_histogram("loadgen.request.sequential");
    let batch_latency = telemetry.registry().latency_histogram("loadgen.batch.pipelined");
    let routed_latency = telemetry.registry().latency_histogram("loadgen.request.routed");
    let routed_batch_latency = telemetry.registry().latency_histogram("loadgen.batch.routed");
    let loopback_classes = ClassHistograms::new(&telemetry, "loopback");
    let emulated_classes = ClassHistograms::new(&telemetry, "emulated");

    // Warm pass: caches and the sampled index absorb the cold computes, so
    // every timed pass measures the same steady state.
    eprintln!("[run] warm-up pass…");
    let (_, reference) = sequential_pass(&mut direct, &workload.requests, None, None);

    // --- Bare loopback: reported for transparency, not asserted ----------
    eprintln!("[run] loopback: sequential then batches of {BATCH}…");
    let (loop_seq_secs, loop_seq) = sequential_pass(
        &mut direct,
        &workload.requests,
        None,
        Some((&workload.classes, &loopback_classes)),
    );
    let (loop_pipe_secs, loop_pipe) = pipelined_pass(&mut direct, &workload.requests, None);
    assert_eq!(reference, loop_seq, "loopback sequential answers must be stable");
    assert_eq!(reference, loop_pipe, "loopback pipelined answers must match sequential");

    // --- Emulated RTT: the paper's remote-API shape, asserted ------------
    eprintln!("[run] emulated {EMULATED_RTT_MS}ms RTT: sequential then batches of {BATCH}…");
    let proxy = rtt_proxy(server.addr(), Duration::from_millis(EMULATED_RTT_MS) / 2);
    let mut remote = ReachClient::connect(proxy).expect("connect proxy");
    let (sequential_secs, remote_seq) = sequential_pass(
        &mut remote,
        &workload.requests,
        Some(&sequential_latency),
        Some((&workload.classes, &emulated_classes)),
    );
    let (pipelined_secs, remote_pipe) =
        pipelined_pass(&mut remote, &workload.requests, Some(&batch_latency));
    assert_eq!(reference, remote_seq, "proxied sequential answers must match direct answers");
    assert_eq!(reference, remote_pipe, "proxied pipelined answers must match direct answers");
    let speedup = sequential_secs / pipelined_secs;
    assert!(
        speedup >= 3.0,
        "pipelining must amortise the round trip at least 3x, got {speedup:.2}x \
         ({sequential_secs:.3}s sequential vs {pipelined_secs:.3}s pipelined)"
    );

    // --- Routed: 2-shard router, equality-asserted ------------------------
    eprintln!("[run] routed: {ROUTER_REQUESTS} requests through a 2-shard router…");
    let shards = 2u32;
    let backends: Vec<ReachServer> = (0..shards)
        .map(|index| {
            ReachServer::start(
                Arc::clone(&world),
                ServerConfig {
                    shard: Some(ShardSpec { index, count: shards }),
                    ..server_config.clone()
                },
            )
            .expect("bind shard backend")
        })
        .collect();
    let router = ReachRouter::start(
        Arc::clone(&world),
        backends.iter().map(ReachServer::addr).collect(),
        RouterConfig {
            rate_limit: unthrottled(),
            telemetry: Some(TelemetryConfig::disabled()),
            ..RouterConfig::default()
        },
    )
    .expect("bind router");
    let mut routed_client = ReachClient::connect(router.addr()).expect("connect router");
    let routed_slice = &workload.requests[..ROUTER_REQUESTS.min(workload.requests.len())];
    let routed_start = Instant::now();
    for (request, want) in routed_slice.iter().zip(&reference) {
        let start = Instant::now();
        let response = routed_client.request(request).expect("routed request");
        routed_latency.observe(start.elapsed().as_nanos() as u64);
        assert_eq!(&response, want, "routed answer must equal the single node's");
    }
    let routed_secs = routed_start.elapsed().as_secs_f64();

    // The same slice again, pipelined through the router.
    let (routed_pipe_secs, routed_pipe) =
        pipelined_pass(&mut routed_client, routed_slice, Some(&routed_batch_latency));
    assert_eq!(
        &routed_pipe[..],
        &reference[..routed_slice.len()],
        "routed pipelined answers must equal the single node's"
    );

    let snapshot = telemetry.snapshot();
    let histogram =
        |name: &str| LatencyStats::of(snapshot.histogram(name).expect("histogram recorded"));
    let loopback_class_latency = ClassLatency::collect(&snapshot, "loopback");
    let emulated_class_latency = ClassLatency::collect(&snapshot, "emulated");
    emulated_class_latency.assert_rtt_shape((workload.scalar, workload.nested, workload.sampled));
    let report = Report {
        bench: "service",
        scale: format!("{scale:?}").to_lowercase(),
        seed,
        threads,
        available_parallelism: bench::available_parallelism(),
        workload: WorkloadMix {
            total: workload.requests.len(),
            scalar: workload.scalar,
            nested: workload.nested,
            sampled: workload.sampled,
        },
        batch_size: BATCH,
        emulated_rtt_ms: EMULATED_RTT_MS,
        sequential_secs,
        sequential_rps: workload.requests.len() as f64 / sequential_secs,
        pipelined_secs,
        pipelined_rps: workload.requests.len() as f64 / pipelined_secs,
        pipelined_speedup: speedup,
        sequential_latency: histogram("loadgen.request.sequential"),
        pipelined_batch_latency: histogram("loadgen.batch.pipelined"),
        loopback_class_latency,
        emulated_class_latency,
        loopback: LoopbackPass {
            sequential_secs: loop_seq_secs,
            pipelined_secs: loop_pipe_secs,
            speedup: loop_seq_secs / loop_pipe_secs,
        },
        routed: RoutedPass {
            shards,
            requests: routed_slice.len(),
            secs: routed_secs,
            rps: routed_slice.len() as f64 / routed_secs,
            pipelined_secs: routed_pipe_secs,
            pipelined_rps: routed_slice.len() as f64 / routed_pipe_secs,
            answers_equal_to_single_node: true,
            latency: histogram("loadgen.request.routed"),
        },
    };
    let rendered = serde_json::to_string(&report).expect("report serialises");
    std::fs::write("BENCH_service.json", &rendered).expect("write BENCH_service.json");
    println!("{rendered}");
    eprintln!(
        "[done] emulated-RTT sequential {sequential_secs:.3}s → pipelined {pipelined_secs:.3}s \
         ({speedup:.1}x); wrote BENCH_service.json"
    );
}
