//! Per-layer measurements of a traced run.
//!
//! Every layer is timed from outside, by calling its public functions on
//! the workload's own requests (the "probe sample"). Nothing here runs in
//! an end-to-end timed phase.

use std::hint::black_box;
use std::time::Instant;

use fbsim_population::{InterestId, ReachIndex};
use reach_api::proto::{
    decode, decode_response_frame, encode, encode_response_frame, ServerTiming,
};
use reach_api::{ReachClient, ReachRequest, ReachResponse, ReachServer};
use reach_cache::key::canonical_interests;
use reach_cache::{CacheConfig, ReachCache};

use crate::inputs::{filter_of, ids, Population, Scale};
use crate::measure::{Metrics, Samples};
use crate::table1::Prefix;
use crate::wire::{server_config, start_routed, CACHE};

/// Repetitions of each sub-microsecond call.
const REPS: usize = 64;

fn ns(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// `reach-api::proto`: the workload's own request and response frames.
pub fn proto(requests: &[ReachRequest], answers: &[ReachResponse], m: &mut Metrics) {
    let (mut enc_req, mut dec_req, mut enc_resp, mut dec_resp) =
        (Samples::new(), Samples::new(), Samples::new(), Samples::new());
    let (mut req_bytes, mut resp_bytes) = (Samples::new(), Samples::new());
    for (k, (request, answer)) in requests.iter().zip(answers).enumerate() {
        let tagged = request.clone().with_id(k as u64 + 1);
        let frame = encode(&tagged);
        let response = encode_response_frame(tagged.id, None, answer);
        req_bytes.push(frame.len() as f64);
        resp_bytes.push(response.len() as f64);
        for _ in 0..REPS {
            let t = Instant::now();
            black_box(encode(black_box(&tagged)));
            enc_req.push(ns(t));
            let t = Instant::now();
            black_box(decode::<ReachRequest>(black_box(&frame)).expect("own frame decodes"));
            dec_req.push(ns(t));
            let t = Instant::now();
            black_box(encode_response_frame(tagged.id, None, black_box(answer)));
            enc_resp.push(ns(t));
            let t = Instant::now();
            black_box(decode_response_frame(black_box(&response)).expect("own frame decodes"));
            dec_resp.push(ns(t));
        }
    }
    m.set("proto.encode_request_ns", enc_req.median(), "ns");
    m.set("proto.decode_request_ns", dec_req.median(), "ns");
    m.set("proto.encode_response_ns", enc_resp.median(), "ns");
    m.set("proto.decode_response_ns", dec_resp.median(), "ns");
    m.set("proto.request_bytes", req_bytes.mean(), "bytes");
    m.set("proto.response_bytes", resp_bytes.mean(), "bytes");
}

/// `fbsim-population` reach engine: direct `ReachEngine` calls on each
/// request's conjunction (scalar, canonical order) and prefix sweep
/// (nested, request order).
pub fn engine(pop: &Population, requests: &[ReachRequest], m: &mut Metrics) {
    let engine = pop.world.reach_engine();
    let panel = pop.world.panel().len() as f64;
    let (mut scalar, mut nested) = (Samples::new(), Samples::new());
    let (mut sweep_ns, mut cells) = (0.0, 0.0);
    for request in requests {
        let filter = filter_of(&request.locations);
        let canonical = ids(&canonical_interests(&request.interests));
        let t = Instant::now();
        black_box(engine.conjunction_reach_in(&canonical, filter));
        scalar.push(ns(t) / 1e3);
        let ordered = ids(&request.interests);
        let t = Instant::now();
        black_box(engine.nested_reaches_in(&ordered, filter));
        let took = ns(t);
        nested.push(took / 1e3);
        sweep_ns += took;
        cells += panel * ordered.len() as f64;
    }
    m.set("engine.scalar_us", scalar.median(), "us");
    m.set("engine.nested_us", nested.median(), "us");
    m.set("engine.ns_per_user_interest", sweep_ns / cells, "ns");
}

/// `reach-cache`: a standalone cache with the measured servers' config.
/// A miss's overhead is its time minus the engine compute it wraps.
pub fn cache(pop: &Population, requests: &[ReachRequest], m: &mut Metrics) {
    let engine = pop.world.reach_engine();
    let cache = ReachCache::new(CACHE);
    let mut overhead = Samples::new();
    let keys: Vec<_> = requests
        .iter()
        .map(|r| (ids(&canonical_interests(&r.interests)), filter_of(&r.locations)))
        .collect();
    for (interests, filter) in &keys {
        let inner = std::cell::Cell::new(0.0);
        let t = Instant::now();
        black_box(cache.reach(interests, *filter, None, || {
            let t = Instant::now();
            let v = engine.conjunction_reach_in(interests, *filter);
            inner.set(inner.get() + ns(t));
            v
        }));
        overhead.push((ns(t) - inner.get()) / 1e3);
    }
    let mut lookup = Samples::new();
    for _ in 0..REPS {
        for (interests, filter) in &keys {
            let t = Instant::now();
            black_box(cache.reach(interests, *filter, None, || unreachable!("resident key")));
            lookup.push(ns(t));
        }
    }
    m.set("cache.lookup_ns", lookup.median(), "ns");
    m.set("cache.miss_overhead_us", overhead.median(), "us");
}

/// `fbsim-population::index`: a standalone posting-list index over the
/// sample's interests.
pub fn index(pop: &Population, requests: &[ReachRequest], m: &mut Metrics) {
    let mut all: Vec<InterestId> = requests.iter().flat_map(|r| ids(&r.interests)).collect();
    all.sort_unstable_by_key(|i| i.0);
    all.dedup();
    let t = Instant::now();
    let index = ReachIndex::build_for(&pop.world, &all);
    let build_ms = ns(t) / 1e6;
    let mut count = Samples::new();
    for _ in 0..REPS {
        for request in requests {
            let conj = ids(&canonical_interests(&request.interests));
            let filter = filter_of(&request.locations);
            let t = Instant::now();
            black_box(index.conjunction_count(&conj, filter));
            count.push(ns(t));
        }
    }
    m.set("index.count_ns", count.median(), "ns");
    m.set("index.build_ms_per_interest", build_ms / all.len().max(1) as f64, "ms");
}

/// Sequential replay of `requests`: each answer, and each latency pushed
/// onto `latency`.
fn replay(
    client: &mut ReachClient,
    requests: &[ReachRequest],
    latency: &mut Samples,
) -> Vec<ReachResponse> {
    requests
        .iter()
        .map(|r| {
            let t = Instant::now();
            let answer = client.request(r).expect("probe request succeeds");
            latency.push(ns(t) / 1e3);
            answer
        })
        .collect()
}

/// Probe replays alternate between the compared paths and stop after this
/// long (at least [`MIN_PASSES`], at most [`MAX_PASSES`] passes each).
const PROBE_BUDGET_S: f64 = 1.5;
const MIN_PASSES: usize = 2;
const MAX_PASSES: usize = 40;

/// `reach-api::router`: the sample through a 2-shard router and through a
/// single node, both with the query cache off (the router's shard path
/// has none). After one warm pass each, passes alternate between the two
/// paths so both see the same host conditions. Returns the single node's
/// answers.
pub fn router(pop: &Population, requests: &[ReachRequest], m: &mut Metrics) -> Vec<ReachResponse> {
    let uncached = CacheConfig { enabled: false, ..CACHE };
    let mut single = ReachServer::start(pop.world.clone(), server_config(uncached, None, false))
        .expect("start probe server");
    let (mut backends, mut router) = start_routed(pop, uncached, false);
    let mut direct = ReachClient::connect(single.addr()).expect("connect probe server");
    let mut routed = ReachClient::connect(router.addr()).expect("connect probe router");
    let mut shard = ReachClient::connect(backends[0].addr()).expect("connect probe backend");
    let (mut single_us, mut routed_us, mut partials) =
        (Samples::new(), Samples::new(), Samples::new());
    let answers = replay(&mut direct, requests, &mut Samples::new());
    let routed_answers = replay(&mut routed, requests, &mut Samples::new());
    assert_eq!(answers, routed_answers, "routed answers must equal the single node's");
    let start = Instant::now();
    for pass in 0..MAX_PASSES {
        if pass >= MIN_PASSES && start.elapsed().as_secs_f64() > PROBE_BUDGET_S {
            break;
        }
        replay(&mut direct, requests, &mut single_us);
        replay(&mut routed, requests, &mut routed_us);
        for r in requests {
            let t = Instant::now();
            black_box(shard.shard_partials(r).expect("shard partials"));
            partials.push(ns(t) / 1e3);
        }
    }
    m.set("router.overhead_us", routed_us.median() - single_us.median(), "us");
    m.set("router.shard_partials_us", partials.median(), "us");
    drop((direct, routed, shard));
    router.shutdown();
    for b in &mut backends {
        b.shutdown();
    }
    single.shutdown();
    answers
}

/// A traced sequential replay against a fresh single node, for workloads
/// whose measured phase has no wire. Returns `(latency_us, echo)` pairs.
pub fn traced_replay(pop: &Population, requests: &[ReachRequest]) -> Vec<(f64, ServerTiming)> {
    let mut server = ReachServer::start(pop.world.clone(), server_config(CACHE, None, true))
        .expect("start probe server");
    let mut client = ReachClient::connect(server.addr()).expect("connect probe server");
    let mut out = Vec::new();
    for r in requests {
        let span = uof_telemetry::global().span("bench.probe").start();
        client.set_trace_parent(span.trace_context());
        let t = Instant::now();
        let _ = client.request(r).expect("probe request succeeds");
        let latency = ns(t) / 1e3;
        if let Some(timing) = client.last_server_timing() {
            out.push((latency, timing));
        }
    }
    drop(client);
    server.shutdown();
    out
}

/// `reach-api::server`/`client`: the first hop's echoed queue and handler
/// time, the rest of each op's latency no echo covers, and `engine_ns`:
/// the echoed engine time per op summed over every hop (behind a router
/// the engine runs on the shard backends).
pub fn server_split(ops: &[(f64, ServerTiming)], engine_ns: f64, m: &mut Metrics) {
    let (mut queue, mut handler, mut rest) = (Samples::new(), Samples::new(), Samples::new());
    for (latency, t) in ops {
        queue.push(t.queue_ns as f64 / 1e3);
        handler.push(t.handler_ns as f64 / 1e3);
        rest.push(latency - (t.queue_ns + t.handler_ns) as f64 / 1e3);
    }
    m.set("server.queue_us", queue.median(), "us");
    m.set("server.handler_us", handler.median(), "us");
    m.set("server.engine_us", engine_ns / 1e3 / ops.len().max(1) as f64, "us");
    m.set("wire.unattributed_us", rest.median(), "us");
}

/// `uniqueness` on the first `users` cohort users: `collect` calls of
/// [`BATCH`](crate::table1::BATCH) users each for LP and R, then one fit of
/// everything. Returns `(median LP call s, median R call s, fit s)`, as
/// `table1` reports them.
pub fn uniqueness(pop: &Population, scale: Scale, seed: u64, users: usize) -> (f64, f64, f64) {
    let prefix = Prefix::run(pop, scale, seed, users);
    black_box(prefix.table.ok());
    (prefix.call_s[0].median(), prefix.call_s[1].median(), prefix.fit_s)
}
