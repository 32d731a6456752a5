//! The wire workloads: `wire-hot`, `wire-cold` and `wire-routed`.
//!
//! One client thread on one connection drives a loopback service in a
//! closed loop. The service runs in this process on its default rayon
//! pool; every config it gets is built here explicitly, so no
//! `UOF_REACH_*` or `UOF_TELEMETRY*` variable can change what is measured.

use std::time::{Duration, Instant};

use fbsim_population::index::IndexConfig;
use fbsim_population::ShardSpec;
use reach_api::proto::ServerTiming;
use reach_api::server::{RateLimitConfig, ServerConfig};
use reach_api::{ReachClient, ReachResponse, ReachRouter, ReachServer, RouterConfig};
use reach_cache::{CacheConfig, CacheStats};
use uof_telemetry::TelemetryConfig;

use crate::check::{above_floor, engine_answer, IndexOracle};
use crate::inputs::{self, ColdStream, HotSet, Kind, Op, Population, Scale, ERA};
use crate::measure::Timeline;

/// The query cache every measured server runs with. The conjunction
/// capacity is 1,024 rather than the 4,096 default so that one `wire-cold`
/// run (about 1,800 distinct scalar conjunctions in 6 s at medium scale)
/// passes capacity and evicts; the `wire-hot` working set (512) fits
/// either.
pub const CACHE: CacheConfig =
    CacheConfig { enabled: true, capacity: 1_024, prefix_capacity: 64, shards: 8 };

/// Requests in flight per window on `wire-hot`.
pub const HOT_WINDOW: usize = 64;
/// Distinct sampled conjunctions of the `wire-routed` working set.
pub const ROUTED_SET: usize = 256;
/// Shard backends behind the router.
pub const SHARDS: u32 = 2;
/// Leading `wire-cold` ops issued during set-up, never again.
pub const COLD_WARMUP: usize = 64;
/// Cold answers recomputed in process per class (nested: pairs).
const COLD_CHECKED: [(Kind, usize); 3] =
    [(Kind::Scalar, 300), (Kind::Nested, 24), (Kind::Sampled, 100)];
/// Length of the cold stream, in ops per measured second. At medium scale
/// a run gets through about 600 ops/s, so the stream is usually done a
/// little before the time is up: every run then writes the same amount to
/// the cache and index, and `peak_rss_mb` does not follow throughput.
const COLD_OPS_PER_SECOND: usize = 500;

/// Which wire workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Hot,
    Cold,
    Routed,
}

fn unthrottled() -> RateLimitConfig {
    RateLimitConfig { capacity: 1e9, refill_per_second: 1e9 }
}

/// The pinned telemetry domain: a private disabled one on untraced runs,
/// the process-global one (which the traced run switches on) otherwise.
fn telemetry(traced: bool) -> Option<TelemetryConfig> {
    (!traced).then(TelemetryConfig::disabled)
}

/// A fully explicit server config (never `ServerConfig::default()`, whose
/// cache and index fields read the environment).
pub fn server_config(cache: CacheConfig, shard: Option<ShardSpec>, traced: bool) -> ServerConfig {
    ServerConfig {
        era: ERA,
        rate_limit: unthrottled(),
        cache,
        telemetry: telemetry(traced),
        index: IndexConfig::enabled(),
        write_timeout: Duration::from_secs(5),
        shard,
    }
}

pub fn router_config(traced: bool) -> RouterConfig {
    RouterConfig {
        era: ERA,
        rate_limit: unthrottled(),
        telemetry: telemetry(traced),
        write_timeout: Duration::from_secs(5),
    }
}

/// Starts `SHARDS` shard backends and a router in front of them.
pub fn start_routed(
    pop: &Population,
    cache: CacheConfig,
    traced: bool,
) -> (Vec<ReachServer>, ReachRouter) {
    let backends: Vec<ReachServer> = (0..SHARDS)
        .map(|index| {
            let shard = Some(ShardSpec { index, count: SHARDS });
            ReachServer::start(pop.world.clone(), server_config(cache, shard, traced))
                .expect("start shard backend")
        })
        .collect();
    let router = ReachRouter::start(
        pop.world.clone(),
        backends.iter().map(ReachServer::addr).collect(),
        router_config(traced),
    )
    .expect("start router");
    (backends, router)
}

/// One measured phase. Per op it keeps only what the checks need, so
/// memory does not grow with throughput: hot and routed answers are
/// compared with the set-up reference as they arrive (an equality test);
/// cold answers are kept and recomputed after the phase.
pub struct Phase {
    /// The op (index into [`Wire::ops`]) of each completion, in order.
    pub ops: Vec<u32>,
    pub timeline: Timeline,
    pub elapsed_s: f64,
    /// Positions in `ops` of hot and routed answers that differed from the
    /// reference.
    pub mismatched: Vec<usize>,
    /// Cold answers, in completion order.
    pub kept: Vec<Result<ReachResponse, String>>,
    /// `(latency_us, server-timing echo)` per op (traced phases only).
    pub echoes: Vec<(f64, ServerTiming)>,
    /// Cache counters of the single-node server before and after.
    pub cache_before: Option<CacheStats>,
    pub cache_after: Option<CacheStats>,
}

/// A set-up wire workload.
pub struct Wire {
    pub shape: Shape,
    pub pop: Population,
    /// The distinct requests.
    pub ops: Vec<Op>,
    /// Replay order, as indices into `ops`.
    stream: Vec<usize>,
    cursor: usize,
    /// Single-node answers taken during set-up (hot and routed).
    pub reference: Vec<Option<ReachResponse>>,
    /// The measured single node (hot, cold) or the reference node (routed).
    pub server: ReachServer,
    pub backends: Vec<ReachServer>,
    pub router: Option<ReachRouter>,
    client: ReachClient,
    pub warmup_s: f64,
    /// Working-set facts for the header.
    pub facts: Vec<(&'static str, f64)>,
}

impl Wire {
    pub fn setup(shape: Shape, scale: Scale, seed: u64, seconds: f64, traced: bool) -> Self {
        let pop = Population::generate(scale, seed);
        let mut facts = Vec::new();
        let (ops, stream) = match shape {
            Shape::Hot => {
                let set = HotSet::generate(&pop, seed, &CACHE);
                facts.push(("working_set.scalar", set.scalar.len() as f64));
                facts.push(("working_set.nested", set.nested.len() as f64));
                facts.push(("working_set.sampled", set.sampled.len() as f64));
                let stream = set.stream(seed, 1 << 16);
                (set.all(), stream)
            }
            Shape::Cold => {
                // At least four seconds' worth, so that even a short run's
                // stream outgrows the caches.
                let max = COLD_WARMUP + (seconds.ceil() as usize).max(4) * COLD_OPS_PER_SECOND;
                let cold = ColdStream::generate(&pop, seed, max);
                // The stream must outgrow every cache it writes to.
                assert!(
                    cold.distinct_scalar > CACHE.capacity,
                    "wire-cold scalar keys {} must exceed the cache capacity {}",
                    cold.distinct_scalar,
                    CACHE.capacity
                );
                assert!(
                    cold.distinct_nested > CACHE.prefix_capacity,
                    "wire-cold nested keys {} must exceed the prefix memo {}",
                    cold.distinct_nested,
                    CACHE.prefix_capacity
                );
                facts.push(("working_set.scalar", cold.distinct_scalar as f64));
                facts.push(("working_set.nested", cold.distinct_nested as f64));
                facts.push(("working_set.sampled_interests", cold.sampled_interests as f64));
                let stream = (0..cold.ops.len()).collect();
                (cold.ops, stream)
            }
            Shape::Routed => {
                let set = inputs::routed_set(&pop, seed, ROUTED_SET);
                facts.push(("working_set.sampled", set.len() as f64));
                let stream = inputs::uniform_stream(set.len(), seed, 1 << 16);
                (set, stream)
            }
        };

        // The single node: measured on hot and cold, the reference on routed.
        let server = ReachServer::start(pop.world.clone(), server_config(CACHE, None, traced))
            .expect("start reach server");
        let (backends, router) = match shape {
            Shape::Routed => {
                let (backends, router) = start_routed(&pop, CACHE, traced);
                (backends, Some(router))
            }
            _ => (Vec::new(), None),
        };
        let addr = router.as_ref().map_or(server.addr(), ReachRouter::addr);
        let mut client = ReachClient::connect(addr).expect("connect measured client");

        let warm = Instant::now();
        let mut reference = vec![None; ops.len()];
        let mut cursor = 0;
        match shape {
            Shape::Hot => {
                for (slot, op) in reference.iter_mut().zip(&ops) {
                    *slot = client.request(&op.request).ok();
                }
            }
            Shape::Cold => {
                for op in ops.iter().take(COLD_WARMUP) {
                    let _ = client.request(&op.request);
                }
                cursor = COLD_WARMUP.min(ops.len());
            }
            Shape::Routed => {
                let mut single = ReachClient::connect(server.addr()).expect("connect reference");
                for (slot, op) in reference.iter_mut().zip(&ops) {
                    *slot = single.request(&op.request).ok();
                    let _ = client.request(&op.request);
                }
            }
        }
        let warmup_s = warm.elapsed().as_secs_f64();
        Self {
            shape,
            pop,
            ops,
            stream,
            cursor,
            reference,
            server,
            backends,
            router,
            client,
            warmup_s,
            facts,
        }
    }

    /// Requests in flight at once.
    fn window(&self) -> usize {
        match self.shape {
            Shape::Hot => HOT_WINDOW,
            Shape::Cold | Shape::Routed => 1,
        }
    }

    fn next_batch(&mut self) -> Vec<usize> {
        let window = self.window();
        let mut batch = Vec::with_capacity(window);
        while batch.len() < window {
            if self.cursor == self.stream.len() {
                if self.shape == Shape::Cold {
                    break;
                }
                self.cursor = 0;
            }
            batch.push(self.stream[self.cursor]);
            self.cursor += 1;
        }
        batch
    }

    /// Issues ops for `seconds` (or until the cold stream runs out).
    /// `traced` opens a benchmark span around every window or op and keeps
    /// each op's server-timing echo.
    pub fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let telemetry = uof_telemetry::global();
        let cache_before = self.measured_cache();
        let (mut ops, mut kept, mut echoes, mut mismatched) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut timeline = Timeline::start(seconds);
        while timeline.measuring() {
            let batch = self.next_batch();
            if batch.is_empty() {
                break;
            }
            let span = traced.then(|| {
                telemetry
                    .span("bench.window")
                    .field("workload", self.shape_name().into())
                    .field("ops", batch.len().into())
                    .start()
            });
            self.client.set_trace_parent(span.as_ref().and_then(|s| s.trace_context()));
            let t0 = Instant::now();
            // One op in flight: a plain request. A window: write every
            // request first, then read the answers in order.
            let sent: Vec<(usize, Option<Result<u64, String>>)> = if batch.len() == 1 {
                vec![(batch[0], None)]
            } else {
                let client = &mut self.client;
                let ops = &self.ops;
                batch
                    .iter()
                    .map(|&op| (op, Some(client.send(&ops[op].request).map_err(|e| e.to_string()))))
                    .collect()
            };
            for (op, id) in sent {
                let request = &self.ops[op].request;
                let result = match id {
                    None => self.client.request(request).map_err(|e| e.to_string()),
                    Some(Ok(id)) => self.client.receive(request, id).map_err(|e| e.to_string()),
                    Some(Err(e)) => Err(e),
                };
                let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                timeline.record(latency_us);
                ops.push(op as u32);
                match self.shape {
                    Shape::Cold => kept.push(result),
                    Shape::Hot | Shape::Routed => {
                        let same =
                            matches!((&result, &self.reference[op]), (Ok(a), Some(b)) if a == b);
                        if !same {
                            mismatched.push(ops.len() - 1);
                        }
                    }
                }
                if let Some(timing) = self.client.last_server_timing().filter(|_| traced) {
                    echoes.push((latency_us, timing));
                }
            }
            drop(span);
        }
        let elapsed_s = timeline.finish();
        self.client.set_trace_parent(None);
        let cache_after = self.measured_cache();
        Phase { ops, timeline, elapsed_s, mismatched, kept, echoes, cache_before, cache_after }
    }

    pub fn shape_name(&self) -> &'static str {
        match self.shape {
            Shape::Hot => "wire-hot",
            Shape::Cold => "wire-cold",
            Shape::Routed => "wire-routed",
        }
    }

    /// Cache counters of the server the measured client talks to directly.
    fn measured_cache(&self) -> Option<CacheStats> {
        (self.shape != Shape::Routed).then(|| self.server.cache().stats())
    }

    /// Checks every answer of `phases` and returns the failed-op count.
    ///
    /// * hot and routed: each answer equals the single-node reference taken
    ///   during set-up (routed answers must be bit-identical to it), and
    ///   each referenced answer is itself recomputed in process;
    /// * cold: every answer is checked against the floor, and a sample of
    ///   each class spread over the whole stream ([`Wire::cold_sample`]) is
    ///   recomputed in process (`ReachEngine` via `AdsManagerApi` for
    ///   scalar and nested, a fresh `ReachIndex` for sampled).
    pub fn check(&self, phases: &[&Phase]) -> u64 {
        let api = self.pop.api();
        let floor = ERA.floor();
        match self.shape {
            Shape::Hot | Shape::Routed => {
                let mut used = vec![false; self.ops.len()];
                for &op in phases.iter().flat_map(|p| &p.ops) {
                    used[op as usize] = true;
                }
                let oracle = IndexOracle::new(
                    &self.pop.world,
                    self.ops
                        .iter()
                        .zip(&used)
                        .filter(|(op, &u)| u && op.kind == Kind::Sampled)
                        .map(|(op, _)| &op.request),
                );
                let verified: Vec<bool> = self
                    .ops
                    .iter()
                    .zip(&self.reference)
                    .zip(&used)
                    .map(|((op, reference), &u)| {
                        let Some(reference) = reference else { return false };
                        !u || (above_floor(reference, floor)
                            && *reference == expected(&api, &oracle, op))
                    })
                    .collect();
                // An op fails when its answer differed from the reference or
                // its reference differs from the in-process answer.
                phases
                    .iter()
                    .flat_map(|p| {
                        p.ops
                            .iter()
                            .enumerate()
                            .filter(|(i, &op)| !verified[op as usize] || p.mismatched.contains(i))
                    })
                    .count() as u64
            }
            Shape::Cold => {
                let answers: Vec<(u32, &Result<ReachResponse, String>)> =
                    phases.iter().flat_map(|p| p.ops.iter().copied().zip(&p.kept)).collect();
                let checked = self.cold_sample(&answers);
                let oracle = IndexOracle::new(
                    &self.pop.world,
                    checked
                        .iter()
                        .filter(|(op, _)| self.ops[*op].kind == Kind::Sampled)
                        .map(|(op, _)| &self.ops[*op].request),
                );
                let wrong: Vec<usize> = checked
                    .iter()
                    .filter(|(op, answer)| {
                        !matches!(answer, Ok(a) if *a == expected(&api, &oracle, &self.ops[*op]))
                    })
                    .map(|(op, _)| *op)
                    .collect();
                answers
                    .iter()
                    .filter(|(op, answer)| {
                        !matches!(answer, Ok(a) if above_floor(a, floor))
                            || wrong.contains(&(*op as usize))
                    })
                    .count() as u64
            }
        }
    }

    /// The cold answers recomputed in process: every k-th answer of each
    /// class, with k chosen per class so that about [`COLD_CHECKED`] of
    /// them are taken from the start of the stream to its end. The sample
    /// thus covers answers served after the conjunction cache has started
    /// to evict and the prefix memo to churn. Nested ops are taken in
    /// whole pairs, so every checked 20-prefix has its extension checked
    /// too.
    fn cold_sample<'a>(
        &self,
        answers: &[(u32, &'a Result<ReachResponse, String>)],
    ) -> Vec<(usize, &'a Result<ReachResponse, String>)> {
        // Each op's position within its class over the whole stream; the
        // stream issues a nested pair's 20-prefix and its extension as
        // consecutive nested ops, so a pair shares one position.
        let mut seen = [0usize; 3];
        let positions: Vec<usize> = self
            .ops
            .iter()
            .map(|op| {
                let class = op.kind as usize;
                seen[class] += 1;
                match op.kind {
                    Kind::Nested => (seen[class] - 1) / 2,
                    Kind::Scalar | Kind::Sampled => seen[class] - 1,
                }
            })
            .collect();
        let mut answered = [0usize; 3];
        for &(op, _) in answers {
            answered[self.ops[op as usize].kind as usize] += 1;
        }
        let mut strides = [1usize; 3];
        for (class, budget) in COLD_CHECKED {
            let n = answered[class as usize];
            let units = if class == Kind::Nested { n.div_ceil(2) } else { n };
            strides[class as usize] = units.div_ceil(budget).max(1);
        }
        answers
            .iter()
            .filter(|&&(op, _)| {
                let op = op as usize;
                positions[op].is_multiple_of(strides[self.ops[op].kind as usize])
            })
            .map(|&(op, answer)| (op as usize, answer))
            .collect()
    }

    pub fn shutdown(mut self) {
        drop(self.client);
        if let Some(router) = self.router.as_mut() {
            router.shutdown();
        }
        for backend in &mut self.backends {
            backend.shutdown();
        }
        self.server.shutdown();
    }
}

/// The in-process answer to one generated op.
fn expected(
    api: &fbsim_adplatform::AdsManagerApi<'_>,
    oracle: &IndexOracle,
    op: &Op,
) -> ReachResponse {
    match op.kind {
        Kind::Sampled => oracle.answer(api, &op.request),
        Kind::Scalar | Kind::Nested => engine_answer(api, &op.request),
    }
}
