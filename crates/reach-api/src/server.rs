//! The reach server: thread-per-connection TCP over a shared world.
//!
//! Each connection gets its own token bucket (the Marketing API throttles
//! per app/token); the reporting floor is applied **server-side** so a
//! client can never observe a sub-floor audience, exactly like the real
//! endpoint. Connections run on the serving core both tiers share (the
//! private `serve` module); this module supplies the engine, cache and
//! index behind it.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_population::index::{IndexConfig, ReachIndex};
use fbsim_population::shard::{ShardAssignment, ShardSpec};
use fbsim_population::{InterestId, World};
use parking_lot::Mutex;
use reach_cache::{CacheConfig, CacheStats, ReachCache};
use uof_telemetry::{Telemetry, TelemetryConfig, TraceContext};

use crate::proto::{Op, QueryKind, ReachPoint, ReachRequest, ReachResponse};
use crate::serve::{
    saturating_ns, serve_connection, validate, Acceptor, FrameHandler, TimingProbe,
};

/// Token-bucket rate-limit settings (per connection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitConfig {
    /// Bucket capacity (burst size).
    pub capacity: f64,
    /// Refill rate in tokens per second.
    pub refill_per_second: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        Self { capacity: 50.0, refill_per_second: 25.0 }
    }
}

/// Longest retry backoff a [`TokenBucket`] will ever suggest. Also the wait
/// reported if a non-positive refill rate slips past validation — without
/// this clamp `deficit / 0.0 = inf` and `Duration::from_secs_f64` panics in
/// the connection thread. Public because the client's default backoff
/// ceiling is defined as this value: every wait the server can suggest is
/// one the default client honours.
pub const MAX_RETRY_BACKOFF: Duration = Duration::from_secs(60);

impl RateLimitConfig {
    /// Checks the config can actually admit requests: both fields must be
    /// finite, the capacity at least one token and the refill rate positive.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.capacity.is_finite() || self.capacity < 1.0 {
            return Err(format!(
                "rate-limit capacity must be a finite value >= 1, got {}",
                self.capacity
            ));
        }
        if !self.refill_per_second.is_finite() || self.refill_per_second <= 0.0 {
            return Err(format!(
                "rate-limit refill rate must be a finite value > 0, got {}",
                self.refill_per_second
            ));
        }
        Ok(())
    }
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Reporting era (controls the floor).
    pub era: ReportingEra,
    /// Per-connection rate limit.
    pub rate_limit: RateLimitConfig,
    /// Query-cache knobs. The default honours the `UOF_REACH_CACHE*`
    /// environment variables (set `UOF_REACH_CACHE=0` to disable caching);
    /// explicit construction pins the behaviour regardless of environment.
    pub cache: CacheConfig,
    /// Telemetry domain. `None` (the default) records into the
    /// process-global instance (built from `UOF_TELEMETRY*` on first
    /// touch), so engine spans and server metrics land in the one registry
    /// the `StatsSnapshot` opcode dumps. `Some(config)` gives the server a
    /// private pinned instance regardless of environment — loopback tests
    /// use this to observe metrics without ambient interference.
    pub telemetry: Option<TelemetryConfig>,
    /// Posting-list index knob. The default honours `UOF_REACH_INDEX`;
    /// when enabled, `sampled` requests are answered from a bit-packed
    /// index grown on demand (interests materialize on first use and are
    /// rebuilt when the world's generation moves). Disabled, `sampled`
    /// requests get [`ReachResponse::Error`]. The float engine remains the
    /// oracle for every other opcode either way.
    pub index: IndexConfig,
    /// Socket write timeout per response batch. A client that stops
    /// reading fills the TCP window; without this bound `write_all` wedges
    /// the connection thread forever and shutdown hangs joining it. A
    /// timed-out write is treated as a disconnect.
    pub write_timeout: Duration,
    /// `Some(spec)`: run as shard `spec.index` of `spec.count` — the
    /// server answers `shard`-flagged requests with its raw per-chunk
    /// partials ([`ReachResponse::ShardPartials`]) over the chunks the
    /// deterministic [`ShardAssignment`] gives it. `None` (the default):
    /// single-node mode; the shard opcode is refused, because raw partials
    /// expose sub-floor audiences the reporting floor hides.
    pub shard: Option<ShardSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            era: ReportingEra::Early2017,
            rate_limit: RateLimitConfig::default(),
            cache: CacheConfig::from_env(),
            telemetry: None,
            index: IndexConfig::from_env(),
            write_timeout: Duration::from_secs(5),
            shard: None,
        }
    }
}

/// The server's shared sampled-count index: one lazily grown
/// [`ReachIndex`] behind a mutex, shared by every connection thread (like
/// the query cache, cross-connection reuse is the point). Queries are
/// microsecond-scale AND-chains, so answering under the lock is cheaper
/// than cloning posting lists out.
struct SampledIndex {
    slot: Mutex<Option<ReachIndex>>,
}

impl SampledIndex {
    fn new() -> Self {
        Self { slot: Mutex::new(None) }
    }

    /// Runs `query` on an index that covers `ids`, (re)building or
    /// extending it as needed: a missing or stale index is replaced by a
    /// fresh build over exactly the queried interests; a current one grows
    /// by the interests it has not seen. Epochs ride the same
    /// [`World::generation`] counter the reach-cache invalidates on.
    fn query<T>(
        &self,
        world: &World,
        ids: &[InterestId],
        query: impl FnOnce(&ReachIndex) -> Option<T>,
    ) -> Option<T> {
        let mut slot = self.slot.lock();
        match slot.as_mut() {
            Some(index) if index.is_current(world) => index.extend_for(world, ids),
            _ => *slot = Some(ReachIndex::build_for(world, ids)),
        }
        slot.as_ref().and_then(query)
    }
}

/// A token bucket (one per connection, on both tiers).
pub(crate) struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
    config: RateLimitConfig,
}

impl TokenBucket {
    pub(crate) fn new(config: RateLimitConfig) -> Self {
        Self { tokens: config.capacity, last_refill: Instant::now(), config }
    }

    /// Tries to take one token; on failure returns the suggested wait.
    pub(crate) fn try_take(&mut self) -> Result<(), Duration> {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens =
            (self.tokens + elapsed * self.config.refill_per_second).min(self.config.capacity);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            let wait = deficit / self.config.refill_per_second;
            // A zero/negative/NaN refill rate gives a non-finite or negative
            // wait; clamp into [0, MAX_RETRY_BACKOFF] so the conversion
            // below cannot panic and the client gets a well-formed backoff.
            if wait.is_finite() && wait >= 0.0 {
                Err(Duration::from_secs_f64(wait).min(MAX_RETRY_BACKOFF))
            } else {
                Err(MAX_RETRY_BACKOFF)
            }
        }
    }
}

/// A running reach server.
pub struct ReachServer {
    acceptor: Acceptor,
    cache: Arc<ReachCache>,
}

impl ReachServer {
    /// Starts the server on `127.0.0.1` with an OS-assigned port.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the rate-limit or cache
    /// config is unusable (see [`RateLimitConfig::validate`] and
    /// [`CacheConfig::validate`]); otherwise propagates socket errors from
    /// binding.
    pub fn start(world: Arc<World>, config: ServerConfig) -> std::io::Result<Self> {
        config
            .rate_limit
            .validate()
            .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        config
            .cache
            .validate()
            .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        if let Some(shard) = &config.shard {
            shard
                .validate()
                .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        }
        // One cache shared by every connection thread — cross-connection
        // reuse and single-flight deduplication are the whole point.
        let cache = Arc::new(ReachCache::new(config.cache));
        // One sampled-count index shared by every connection thread, grown
        // lazily — servers that never see a `sampled` request never build it.
        let index = SampledIndex::new();
        let acceptor = Acceptor::start(
            config.rate_limit,
            config.write_timeout,
            config.telemetry.as_ref().map(Telemetry::new),
            {
                let cache = Arc::clone(&cache);
                move |conn| {
                    let telemetry = conn.telemetry();
                    let handler = Engine {
                        api: AdsManagerApi::new(&world, config.era),
                        cache: &cache,
                        index: &index,
                        config: &config,
                        telemetry,
                    };
                    serve_connection(conn, handler)
                }
            },
        )?;
        Ok(Self { acceptor, cache })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Requests successfully served so far.
    pub fn requests_served(&self) -> u64 {
        self.acceptor.served()
    }

    /// Number of connection-thread handles currently tracked. Bounded by
    /// the number of live connections (plus at most the churn since the
    /// last accept, which triggers the reap) — the observability hook the
    /// handle-leak regression test asserts on.
    pub fn connection_handles(&self) -> usize {
        self.acceptor.connection_handles()
    }

    /// The shared query cache (in-process observability; remote clients use
    /// a [`ReachRequest::stats`] probe instead).
    pub fn cache(&self) -> &ReachCache {
        &self.cache
    }

    /// The telemetry domain this server records into: the pinned instance
    /// when [`ServerConfig::telemetry`] was `Some`, the process global
    /// otherwise. Remote clients use a [`ReachRequest::stats_snapshot`]
    /// probe instead.
    pub fn telemetry(&self) -> &Telemetry {
        self.acceptor.telemetry()
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

impl std::fmt::Debug for ReachServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachServer")
            .field("addr", &self.addr())
            .field("requests_served", &self.requests_served())
            .finish_non_exhaustive()
    }
}

/// The single-node [`FrameHandler`]: answers from the engine, the query
/// cache and the sampled-count index, floors applied.
struct Engine<'a> {
    api: AdsManagerApi<'a>,
    cache: &'a ReachCache,
    index: &'a SampledIndex,
    config: &'a ServerConfig,
    telemetry: &'a Telemetry,
}

impl FrameHandler for Engine<'_> {
    const FRAME_SPAN: &'static str = "server.frame";
    const RUNS_ENGINE: bool = true;

    fn answer(
        &mut self,
        request: &ReachRequest,
        op: Op,
        _parent: Option<TraceContext>,
        probe: &mut TimingProbe,
    ) -> Result<ReachResponse, String> {
        let (api, cache, index) = (&self.api, self.cache, self.index);
        let world = api.world();
        // Reconcile the cache with the world's mutation generation before
        // every answer: one atomic swap when nothing changed, an epoch bump
        // when the world moved under a long-lived server.
        cache.sync_generation(world.generation());
        let (kind, shard) = match op {
            Op::Snapshot => {
                // Refresh the mirrored cache view, then dump everything. The
                // dump itself is already counted and in flight, so a
                // snapshot observes its own request. With telemetry disabled
                // nothing records, so the dump is empty — still a valid,
                // well-formed answer.
                if self.telemetry.is_enabled() {
                    publish_cache_stats(self.telemetry, &cache.stats());
                }
                return Ok(ReachResponse::StatsSnapshot { registry: self.telemetry.snapshot() });
            }
            Op::Stats => return Ok(ReachResponse::Stats { stats: cache.stats() }),
            Op::Query { kind, shard } => (kind, shard),
        };
        if kind == QueryKind::Sampled && !self.config.index.enabled {
            return Err("sampled reach requires the posting-list index (UOF_REACH_INDEX=1)".into());
        }
        let (spec, filter) = validate(request, kind, world)?;
        let ids = spec.interests();
        if shard {
            // Raw per-chunk partials for the router's merge. Refused outside
            // shard mode: partials are pre-floor values, and the reporting
            // floor (applied once, at the router, after the merge) is the
            // privacy contract — a single-node server must never leak them.
            let Some(shard) = self.config.shard else {
                return Err("shard partials require a shard-configured backend".into());
            };
            let chunks = ShardAssignment::new(world, shard.count).chunks_of(shard.index);
            let values: Vec<Vec<u64>> = match kind {
                QueryKind::Sampled => probe
                    .time(|| {
                        index.query(world, ids, |ix| {
                            ix.conjunction_count_in_blocks(ids, filter, &chunks)
                        })
                    })
                    .ok_or("sampled shard partials unavailable for this query")?
                    .into_iter()
                    .map(|n| vec![n])
                    .collect(),
                QueryKind::Nested => probe
                    .time(|| world.reach_engine().nested_chunk_partials(ids, filter, &chunks))
                    .into_iter()
                    .map(|per_prefix| per_prefix.into_iter().map(f64::to_bits).collect())
                    .collect(),
                QueryKind::Scalar => probe
                    .time(|| world.reach_engine().conjunction_chunk_partials(ids, filter, &chunks))
                    .into_iter()
                    .map(|partial| vec![partial.to_bits()])
                    .collect(),
            };
            return Ok(ReachResponse::ShardPartials {
                generation: world.generation(),
                chunks: chunks.into_iter().map(|c| c as u32).collect(),
                values,
            });
        }
        Ok(match kind {
            QueryKind::Sampled => {
                // Sampled counts bypass the float engine and its cache
                // entirely: the index is its own memo (posting lists persist
                // across queries) and its epoch rides the same generation
                // counter.
                let members = probe
                    .time(|| index.query(world, ids, |ix| ix.conjunction_count(ids, filter)))
                    .ok_or("sampled reach unavailable for this query")?;
                let point = api.report_potential(members as f64 * world.panel().scale());
                ReachResponse::SampledReach {
                    reported: point.reported,
                    floored: point.floored,
                    too_narrow_warning: point.too_narrow_warning,
                }
            }
            QueryKind::Nested => {
                // Nested answers flow through the cache's prefix memo, which
                // runs the engine internally — the probe times the combined
                // lookup, so nested requests always report engine time
                // (never `cache_hit`).
                let engine = world.reach_engine();
                let reaches = probe
                    .time(|| cache.nested_reaches_in(&engine, ids, filter))
                    .into_iter()
                    .map(|raw| {
                        let point = api.report_potential(raw);
                        ReachPoint {
                            reported: point.reported,
                            floored: point.floored,
                            too_narrow_warning: point.too_narrow_warning,
                        }
                    })
                    .collect();
                ReachResponse::Nested { reaches }
            }
            QueryKind::Scalar => {
                // The expensive true-reach evaluation is memoized; the cheap
                // reporting step (floor + advisory) is applied to the cached
                // value, so a cached answer is bit-identical to an uncached
                // one. The compute closure is `Fn` (the cache may invoke it
                // under its single-flight machinery), so the probe is fed
                // through a `Cell` rather than a mutable capture. A cache
                // hit never runs the closure: the probe then records no
                // engine work and the request reports `cache_hit` on the
                // wire.
                let compute = std::cell::Cell::new((0u64, false));
                let true_reach = cache.reach(ids, filter, spec.age_range(), || {
                    let start = Instant::now();
                    let value = api.true_reach(&spec);
                    let (ns, _) = compute.get();
                    compute.set((ns.saturating_add(saturating_ns(start.elapsed())), true));
                    value
                });
                let (engine_ns, engine_ran) = compute.get();
                if engine_ran {
                    probe.engine_ns = probe.engine_ns.saturating_add(engine_ns);
                    probe.engine_ran = true;
                }
                let reach = api.report_potential(true_reach);
                ReachResponse::Reach {
                    reported: reach.reported,
                    floored: reach.floored,
                    too_narrow_warning: reach.too_narrow_warning,
                }
            }
        })
    }
}

/// Mirrors the cache's bespoke [`CacheStats`] counters into the registry
/// as `reach_cache.*` gauges, so one `StatsSnapshot` dump carries the
/// aggregate cache view alongside the request metrics. Gauges (not
/// counters) because the cache owns the authoritative totals; the registry
/// holds a point-in-time copy refreshed on each snapshot.
fn publish_cache_stats(telemetry: &Telemetry, stats: &CacheStats) {
    let registry = telemetry.registry();
    let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    registry.gauge("reach_cache.enabled").set(i64::from(stats.enabled));
    registry.gauge("reach_cache.epoch").set(clamp(stats.epoch));
    registry.gauge("reach_cache.entries").set(clamp(stats.entries as u64));
    registry.gauge("reach_cache.hits").set(clamp(stats.hits));
    registry.gauge("reach_cache.misses").set(clamp(stats.misses));
    registry.gauge("reach_cache.single_flight_waits").set(clamp(stats.single_flight_waits));
    registry.gauge("reach_cache.insertions").set(clamp(stats.insertions));
    registry.gauge("reach_cache.evictions").set(clamp(stats.evictions));
    registry.gauge("reach_cache.invalidations").set(clamp(stats.invalidations));
    registry.gauge("reach_cache.prefix_entries").set(clamp(stats.prefix_entries as u64));
    registry.gauge("reach_cache.prefix_hits").set(clamp(stats.prefix_hits));
    registry.gauge("reach_cache.prefix_misses").set(clamp(stats.prefix_misses));
    registry.gauge("reach_cache.prefix_extensions").set(clamp(stats.prefix_extensions));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_enforces_rate() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 3.0, refill_per_second: 1000.0 });
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
        // Bucket drained; immediate fourth take fails with a small wait.
        if let Err(wait) = bucket.try_take() {
            assert!(wait <= Duration::from_millis(2));
        }
        // After the refill interval the bucket recovers.
        std::thread::sleep(Duration::from_millis(5));
        assert!(bucket.try_take().is_ok());
    }

    #[test]
    fn zero_refill_rate_yields_clamped_wait_not_panic() {
        // Regression: with refill_per_second = 0 the suggested wait used to
        // be `deficit / 0 = inf`, and `Duration::from_secs_f64(inf)` panicked
        // in the connection thread.
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 1.0, refill_per_second: 0.0 });
        assert!(bucket.try_take().is_ok());
        match bucket.try_take() {
            Err(wait) => assert_eq!(wait, MAX_RETRY_BACKOFF),
            Ok(()) => panic!("drained bucket with zero refill must not admit"),
        }
    }

    #[test]
    fn huge_deficit_waits_are_capped() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 1.0, refill_per_second: 1e-12 });
        assert!(bucket.try_take().is_ok());
        match bucket.try_take() {
            Err(wait) => assert!(wait <= MAX_RETRY_BACKOFF),
            Ok(()) => panic!("drained bucket must not admit"),
        }
    }

    #[test]
    fn rate_limit_config_validation() {
        assert!(RateLimitConfig::default().validate().is_ok());
        for bad in [
            RateLimitConfig { capacity: 50.0, refill_per_second: 0.0 },
            RateLimitConfig { capacity: 50.0, refill_per_second: -1.0 },
            RateLimitConfig { capacity: 50.0, refill_per_second: f64::NAN },
            RateLimitConfig { capacity: 50.0, refill_per_second: f64::INFINITY },
            RateLimitConfig { capacity: 0.5, refill_per_second: 25.0 },
            RateLimitConfig { capacity: f64::NAN, refill_per_second: 25.0 },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn bucket_caps_at_capacity() {
        let mut bucket =
            TokenBucket::new(RateLimitConfig { capacity: 2.0, refill_per_second: 1e9 });
        std::thread::sleep(Duration::from_millis(2));
        // Despite the huge refill rate, only `capacity` takes succeed
        // back-to-back.
        assert!(bucket.try_take().is_ok());
        assert!(bucket.try_take().is_ok());
    }
}
