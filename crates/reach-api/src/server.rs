//! The reach server: thread-per-connection TCP over a shared world.
//!
//! Each connection gets its own token bucket (the Marketing API throttles
//! per app/token); the reporting floor is applied **server-side** so a
//! client can never observe a sub-floor audience, exactly like the real
//! endpoint. Connections run on the serving core both tiers share (the
//! private `serve` module); this module supplies the engine, cache and
//! index behind it.

use std::cell::Cell;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fbsim_adplatform::reach::{AdsManagerApi, PotentialReach, ReportingEra};
use fbsim_population::index::{IndexConfig, ReachIndex, BLOCK_USERS};
use fbsim_population::reach::CountryFilter;
use fbsim_population::shard::{ShardAssignment, ShardSpec};
use fbsim_population::{InterestId, World};
use parking_lot::Mutex;
use reach_cache::{CacheConfig, ReachCache};
use uof_telemetry::{Telemetry, TelemetryConfig, TraceContext};

use crate::proto::{Answer, Op, QueryKind, ReachRequest, ReachResponse, ShardPartials};
use crate::serve::{serve_connection, validate, Acceptor, FrameHandler, TimingProbe};

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
    /// Query-cache knobs; the default caches.
    pub cache: CacheConfig,
    /// Telemetry domain. `None` (the default) records into the
    /// process-global instance (disabled until a caller turns it on), so
    /// engine spans and server metrics land in the one registry the
    /// `StatsSnapshot` opcode dumps. `Some(config)` gives the server a
    /// private instance — loopback tests use this to observe metrics apart
    /// from the rest of the process.
    pub telemetry: Option<TelemetryConfig>,
    /// Posting-list index knob; the default leaves it off. When
    /// enabled, `sampled` requests are answered from a bit-packed
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
    /// [`ShardPartials`] over the chunks the deterministic
    /// [`ShardAssignment`] gives it. `None` (the default):
    /// single-node mode; the shard opcode is refused, because raw partials
    /// expose sub-floor audiences the reporting floor hides.
    pub shard: Option<ShardSpec>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            era: ReportingEra::Early2017,
            rate_limit: RateLimitConfig::default(),
            cache: CacheConfig::default(),
            telemetry: None,
            index: IndexConfig::default(),
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
    /// Every panel block, ascending: what a sampled cache entry counts.
    blocks: Vec<usize>,
}

impl SampledIndex {
    fn new(world: &World) -> Self {
        let blocks = (0..world.panel().len().div_ceil(BLOCK_USERS)).collect();
        Self { slot: Mutex::new(None), blocks }
    }

    /// The conjunction's member count in every panel block: the value of
    /// a sampled cache entry.
    fn block_counts(
        &self,
        world: &World,
        ids: &[InterestId],
        filter: CountryFilter,
    ) -> Option<Arc<[u64]>> {
        self.query(world, ids, |ix| ix.conjunction_count_in_blocks(ids, filter, &self.blocks))
            .map(Arc::from)
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
        let index = SampledIndex::new(&world);
        // A shard's chunks are fixed by the world's seed and panel size, so
        // they are derived once here rather than per request.
        let owned_chunks = config
            .shard
            .map(|shard| ShardAssignment::new(&world, shard.count).chunks_of(shard.index));
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
                        owned_chunks: owned_chunks.as_deref(),
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
    /// The chunks this backend owns in shard mode; `None` on a single node.
    owned_chunks: Option<&'a [usize]>,
    config: &'a ServerConfig,
    telemetry: &'a Telemetry,
}

impl Engine<'_> {
    /// A sampled conjunction's per-block counts from the cache's sampled
    /// namespace. Only a miss runs the index, and only that run is timed
    /// into `probe`, so a hit reports `cache_hit` like a warm scalar.
    fn cached_block_counts(
        &self,
        ids: &[InterestId],
        filter: CountryFilter,
        probe: &mut TimingProbe,
    ) -> Option<Arc<[u64]>> {
        let world = self.api.world();
        let timed = Cell::new(*probe);
        let counts = self.cache.sampled_blocks(ids, filter, || {
            time_in(&timed, || self.index.block_counts(world, ids, filter))
        });
        *probe = timed.get();
        counts
    }
}

/// Runs `compute` timed into the probe held in `cell`. The cache's miss
/// closures are `Fn`, so they cannot borrow the probe mutably.
fn time_in<T>(cell: &Cell<TimingProbe>, compute: impl FnOnce() -> T) -> T {
    let mut probe = cell.get();
    let out = probe.time(compute);
    cell.set(probe);
    out
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
    ) -> Result<Answer, String> {
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
                    publish_cache_stats(self.telemetry, cache);
                }
                return Ok(Answer::Client(ReachResponse::StatsSnapshot {
                    registry: self.telemetry.snapshot(),
                }));
            }
            Op::Stats => return Ok(Answer::Client(ReachResponse::Stats { stats: cache.stats() })),
            Op::Query { kind, shard } => (kind, shard),
        };
        if kind == QueryKind::Sampled && !self.config.index.enabled {
            return Err(
                "sampled reach requires the posting-list index (ServerConfig::index)".into()
            );
        }
        let (spec, filter) = validate(request, kind, world)?;
        let ids = spec.interests();
        if shard {
            // Raw per-chunk partials for the router's merge. Refused outside
            // shard mode: partials are pre-floor values, and the reporting
            // floor (applied once, at the router, after the merge) is the
            // privacy contract — a single-node server must never leak them.
            let Some(chunks) = self.owned_chunks else {
                return Err("shard partials require a shard-configured backend".into());
            };
            let values: Vec<Vec<u64>> = match kind {
                QueryKind::Sampled => if cache.enabled() {
                    self.cached_block_counts(ids, filter, probe)
                        .map(|all| chunks.iter().map(|&c| all[c]).collect())
                } else {
                    probe.time(|| {
                        index.query(world, ids, |ix| {
                            ix.conjunction_count_in_blocks(ids, filter, chunks)
                        })
                    })
                }
                .ok_or("sampled shard partials unavailable for this query")?
                .into_iter()
                .map(|n| vec![n])
                .collect(),
                QueryKind::Nested => probe
                    .time(|| world.reach_engine().nested_chunk_partials(ids, filter, chunks))
                    .into_iter()
                    .map(|per_prefix| per_prefix.into_iter().map(f64::to_bits).collect())
                    .collect(),
                QueryKind::Scalar => probe
                    .time(|| world.reach_engine().conjunction_chunk_partials(ids, filter, chunks))
                    .into_iter()
                    .map(|partial| vec![partial.to_bits()])
                    .collect(),
            };
            return Ok(Answer::Partials(ShardPartials {
                generation: world.generation(),
                chunks: chunks.iter().map(|&c| c as u32).collect(),
                values,
            }));
        }
        Ok(Answer::Client(match kind {
            QueryKind::Sampled => {
                // Sampled counts bypass the float engine. The cache's
                // sampled namespace holds each conjunction's per-block
                // counts (the entry a shard backend slices), so a repeat
                // runs no AND-chain; its epoch and the index's ride the same
                // generation counter. With the cache off the index counts
                // the whole panel at once.
                let members = if cache.enabled() {
                    self.cached_block_counts(ids, filter, probe).map(|all| all.iter().sum())
                } else {
                    probe.time(|| index.query(world, ids, |ix| ix.conjunction_count(ids, filter)))
                }
                .ok_or("sampled reach unavailable for this query")?;
                let PotentialReach { reported, floored, too_narrow_warning } =
                    api.report_potential(members as f64 * world.panel().scale());
                ReachResponse::SampledReach { reported, floored, too_narrow_warning }
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
                    .map(|raw| api.report_potential(raw).into())
                    .collect();
                ReachResponse::Nested { reaches }
            }
            QueryKind::Scalar => {
                // The expensive true-reach evaluation is memoized; the cheap
                // reporting step (floor + advisory) is applied to the cached
                // value, so a cached answer is bit-identical to an uncached
                // one. A cache hit never runs the closure: the probe then
                // records no engine work and the request reports
                // `cache_hit` on the wire.
                let timed = Cell::new(*probe);
                let true_reach = cache.reach(ids, filter, spec.age_range(), || {
                    time_in(&timed, || api.true_reach(&spec))
                });
                *probe = timed.get();
                let PotentialReach { reported, floored, too_narrow_warning } =
                    api.report_potential(true_reach);
                ReachResponse::Reach { reported, floored, too_narrow_warning }
            }
        }))
    }
}

/// Mirrors the cache's bespoke [`reach_cache::CacheStats`] counters, plus
/// the sampled namespace's, into the registry as `reach_cache.*` gauges,
/// so one `StatsSnapshot` dump carries the aggregate cache view alongside
/// the request metrics. Gauges (not counters) because the cache owns the
/// authoritative totals; the registry holds a point-in-time copy refreshed
/// on each snapshot.
fn publish_cache_stats(telemetry: &Telemetry, cache: &ReachCache) {
    let stats = cache.stats();
    let sampled = cache.sampled_counters();
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
    registry.gauge("reach_cache.sampled_entries").set(clamp(cache.sampled_entries() as u64));
    registry.gauge("reach_cache.sampled_hits").set(clamp(sampled.hits));
    registry.gauge("reach_cache.sampled_misses").set(clamp(sampled.misses));
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
