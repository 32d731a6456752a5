//! The router/aggregator front-end for a sharded reach deployment.
//!
//! N backend [`crate::server::ReachServer`]s each run with a
//! [`ShardSpec`] and own the panel chunks the deterministic
//! [`ShardAssignment`] gives them. The router speaks the same wire
//! protocol as a single-node server: a client's scalar, nested, or sampled
//! query fans out to every backend as a `shard`-flagged request, the raw
//! per-chunk partials come back, and the router folds them **in ascending
//! global chunk order from zero** — the same reduction the single-node
//! engine performs — so the merged answer is bit-identical to a one-process
//! deployment, floors included (the reporting floor is applied once, here,
//! after the merge; backends never emit floored values on the shard
//! opcode).
//!
//! Epoch coherence rides the same [`World::generation`] counter as the
//! reach-cache and the posting-list index: every partial is stamped with
//! the generation it was computed under, and the router refuses to merge a
//! set whose stamps disagree with each other or with its own world — a
//! backend serving a stale model answers loudly, not wrongly.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use fbsim_adplatform::reach::{AdsManagerApi, PotentialReach, ReportingEra};
use fbsim_population::{World, CHUNK_USERS};
use uof_telemetry::{RegistrySnapshot, Telemetry, TelemetryConfig, TraceContext};

use crate::client::{ClientError, ReachClient};
use crate::proto::{Answer, Op, QueryKind, ReachRequest, ReachResponse, ShardPartials};
use crate::serve::{serve_connection, validate, Acceptor, FrameHandler, TimingProbe};
use crate::server::RateLimitConfig;

#[cfg(doc)]
use fbsim_population::shard::{ShardAssignment, ShardSpec};

/// Router configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterConfig {
    /// Reporting era (controls the floor, applied post-merge).
    pub era: ReportingEra,
    /// Per-connection rate limit on the client-facing side.
    pub rate_limit: RateLimitConfig,
    /// Telemetry domain; `None` records into the process global (see
    /// [`crate::server::ServerConfig::telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
    /// Client-facing socket write timeout (see
    /// [`crate::server::ServerConfig::write_timeout`]).
    pub write_timeout: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            era: ReportingEra::Early2017,
            rate_limit: RateLimitConfig::default(),
            telemetry: None,
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// A running router front-end.
pub struct ReachRouter {
    acceptor: Acceptor,
}

impl ReachRouter {
    /// Starts the router on `127.0.0.1` with an OS-assigned port, fronting
    /// the given backend addresses. The router's `world` must be generated
    /// from the **same config** as the backends' (the shard assignment and
    /// the merge order are derived from it).
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] when the rate-limit config is
    /// unusable or `backends` is empty; otherwise propagates bind errors.
    pub fn start(
        world: Arc<World>,
        backends: Vec<SocketAddr>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        config
            .rate_limit
            .validate()
            .map_err(|m| std::io::Error::new(std::io::ErrorKind::InvalidInput, m))?;
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one backend",
            ));
        }
        let acceptor = Acceptor::start(
            config.rate_limit,
            config.write_timeout,
            config.telemetry.as_ref().map(Telemetry::new),
            move |conn| {
                let telemetry = conn.telemetry();
                let handler =
                    FanOut::dial(AdsManagerApi::new(&world, config.era), &backends, telemetry);
                serve_connection(conn, handler)
            },
        )?;
        Ok(Self { acceptor })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.acceptor.addr()
    }

    /// Requests successfully served (merged) so far.
    pub fn requests_served(&self) -> u64 {
        self.acceptor.served()
    }

    /// Number of connection-thread handles currently tracked (see
    /// [`crate::server::ReachServer::connection_handles`]).
    pub fn connection_handles(&self) -> usize {
        self.acceptor.connection_handles()
    }

    /// The telemetry domain this router records into.
    pub fn telemetry(&self) -> &Telemetry {
        self.acceptor.telemetry()
    }

    /// Stops accepting and joins the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.acceptor.shutdown();
    }
}

impl std::fmt::Debug for ReachRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReachRouter")
            .field("addr", &self.addr())
            .field("requests_served", &self.requests_served())
            .finish_non_exhaustive()
    }
}

/// The router's [`FrameHandler`]: one per client connection, holding its
/// own backend connections, so fan-outs from different clients never
/// interleave on a backend socket.
struct FanOut<'a> {
    api: AdsManagerApi<'a>,
    /// `None` when a backend could not be dialed; queries are then refused.
    clients: Option<Vec<ReachClient>>,
    telemetry: &'a Telemetry,
}

impl<'a> FanOut<'a> {
    /// Dials every backend once and stamps each backend connection with
    /// its shard index: every `client.request` span the fan-out emits then
    /// names its shard, so a reconstructed trace can attribute the critical
    /// path to a straggler.
    fn dial(api: AdsManagerApi<'a>, backends: &[SocketAddr], telemetry: &'a Telemetry) -> Self {
        let mut clients: Option<Vec<ReachClient>> =
            backends.iter().map(|&addr| ReachClient::connect(addr)).collect::<Result<_, _>>().ok();
        for (shard, client) in clients.iter_mut().flatten().enumerate() {
            client.label_trace("shard", shard as u64);
        }
        Self { api, clients, telemetry }
    }

    /// Fleet fan-in: the router's own registry (fan-out spans, merge
    /// counters, the client-facing request mix) plus every backend's
    /// registry folded in under `shard.<i>.`-prefixed names, so one
    /// `telemetry_snapshot()` against the router observes the whole
    /// deployment. A backend that fails to answer is counted (and its
    /// section simply missing) rather than failing the dump.
    fn fleet_snapshot(&mut self, parent: Option<TraceContext>) -> ReachResponse {
        let telemetry = self.telemetry;
        let mut registry = telemetry.snapshot();
        for (shard, client) in self.clients.iter_mut().flatten().enumerate() {
            client.set_trace_parent(parent);
            match client.telemetry_snapshot() {
                Ok(snap) => merge_prefixed(&mut registry, shard, snap),
                Err(_) => {
                    if telemetry.is_enabled() {
                        telemetry.registry().counter("router.snapshot.fanin_errors").incr();
                    }
                }
            }
        }
        registry.counters.sort_by(|a, b| a.name.cmp(&b.name));
        registry.gauges.sort_by(|a, b| a.name.cmp(&b.name));
        registry.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        ReachResponse::StatsSnapshot { registry }
    }
}

impl FrameHandler for FanOut<'_> {
    const FRAME_SPAN: &'static str = "router.frame";
    /// The router runs no engine and keeps no query cache; the per-shard
    /// engine time lives in the backend hops' spans and echoes.
    const RUNS_ENGINE: bool = false;

    fn answer(
        &mut self,
        request: &ReachRequest,
        op: Op,
        parent: Option<TraceContext>,
        _probe: &mut TimingProbe,
    ) -> Result<Answer, String> {
        let kind = match op {
            Op::Snapshot => return Ok(Answer::Client(self.fleet_snapshot(parent))),
            Op::Stats => {
                return Err("the router keeps no query cache; probe a backend for stats".into())
            }
            Op::Query { shard: true, .. } => {
                return Err("the router is not a shard backend; send scalar/nested/sampled".into())
            }
            Op::Query { kind, shard: false } => kind,
        };
        validate(request, kind, self.api.world())?;
        let Some(clients) = self.clients.as_mut() else {
            return Err("router has no live backend connections".into());
        };
        fan_out_and_merge(&self.api, clients, request, kind, parent).map(Answer::Client)
    }
}

/// Folds a backend's registry dump into `registry` with every metric name
/// prefixed `shard.<i>.` — the sections of the router's fleet-wide
/// snapshot. The caller re-sorts afterwards to keep the snapshot's
/// sorted-by-name contract.
fn merge_prefixed(registry: &mut RegistrySnapshot, shard: usize, snap: RegistrySnapshot) {
    for mut counter in snap.counters {
        counter.name = format!("shard.{shard}.{}", counter.name);
        registry.counters.push(counter);
    }
    for mut gauge in snap.gauges {
        gauge.name = format!("shard.{shard}.{}", gauge.name);
        registry.gauges.push(gauge);
    }
    for mut histogram in snap.histograms {
        histogram.name = format!("shard.{shard}.{}", histogram.name);
        registry.histograms.push(histogram);
    }
}

/// Fans the query out to every backend (sends and flushes to all first,
/// then collects, so backends compute concurrently) and folds the partials
/// in ascending global chunk order — the single-node reduction,
/// reproduced.
fn fan_out_and_merge(
    api: &AdsManagerApi<'_>,
    clients: &mut [ReachClient],
    request: &ReachRequest,
    kind: QueryKind,
    parent: Option<TraceContext>,
) -> Result<ReachResponse, String> {
    let backend = |e: ClientError| format!("backend error: {e}");
    // The fan-out never forwards the client's trace context verbatim:
    // each backend hop gets its own `client.request` span (parented under
    // this handler's span), so per-shard wire and server time stay
    // separable in the reconstructed trace.
    let shard_request = ReachRequest { id: None, trace: None, ..request.clone() }.with_shard();
    let mut ids = Vec::with_capacity(clients.len());
    for client in clients.iter_mut() {
        client.set_trace_parent(parent);
        ids.push(client.send(&shard_request).map_err(backend)?);
    }
    // `send` only queues, and `receive` writes just its own connection's
    // queue: without this, backend k would see its frame only once the
    // router started waiting on it, serializing the fan-out.
    for client in clients.iter_mut() {
        client.flush().map_err(backend)?;
    }
    let mut partials: Vec<ShardPartials> = Vec::with_capacity(clients.len());
    for (client, id) in clients.iter_mut().zip(ids) {
        partials.push(client.receive_partials(&shard_request, id).map_err(backend)?);
    }
    // Epoch coherence: every stamp must agree with the router's world.
    let want_generation = api.world().generation();
    for p in &partials {
        if p.generation != want_generation {
            return Err(format!(
                "shard epoch mismatch: backend at generation {}, router at {want_generation}",
                p.generation
            ));
        }
    }
    // Coverage: the union of shard chunk sets must be exactly one of each
    // global chunk.
    let nchunks = api.world().panel().len().div_ceil(CHUNK_USERS);
    let mut merged: Vec<(u32, Vec<u64>)> = Vec::with_capacity(nchunks);
    for p in partials {
        if p.chunks.len() != p.values.len() {
            return Err("shard partials chunk/value length mismatch".into());
        }
        merged.extend(p.chunks.into_iter().zip(p.values));
    }
    merged.sort_unstable_by_key(|&(c, _)| c);
    if merged.len() != nchunks
        || merged.iter().enumerate().any(|(want, &(got, _))| got as usize != want)
    {
        return Err(format!(
            "shard chunk coverage broken: got {} chunks of {nchunks}",
            merged.len()
        ));
    }
    let scale = api.world().panel().scale();
    Ok(match kind {
        QueryKind::Sampled => {
            let mut total: u64 = 0;
            for (_, values) in &merged {
                match values.as_slice() {
                    [count] => {
                        total = total.checked_add(*count).ok_or("sampled partials overflow u64")?
                    }
                    _ => return Err("sampled partial is not one count".into()),
                }
            }
            let PotentialReach { reported, floored, too_narrow_warning } =
                api.report_potential(total as f64 * scale);
            ReachResponse::SampledReach { reported, floored, too_narrow_warning }
        }
        QueryKind::Nested => {
            let prefixes = request.interests.len();
            let mut sums = vec![0.0f64; prefixes];
            for (_, values) in &merged {
                if values.len() != prefixes {
                    return Err("nested partial width mismatch".into());
                }
                for (slot, &bits) in sums.iter_mut().zip(values) {
                    fold(slot, bits)?;
                }
            }
            let reaches =
                sums.into_iter().map(|s| api.report_potential(s * scale).into()).collect();
            ReachResponse::Nested { reaches }
        }
        QueryKind::Scalar => {
            let mut sum = 0.0f64;
            for (_, values) in &merged {
                match values.as_slice() {
                    [bits] => fold(&mut sum, *bits)?,
                    _ => return Err("scalar partial is not one value".into()),
                }
            }
            let PotentialReach { reported, floored, too_narrow_warning } =
                api.report_potential(sum * scale);
            ReachResponse::Reach { reported, floored, too_narrow_warning }
        }
    })
}

/// Adds one float partial to `sum`, in the single-node fold's order. A
/// partial no engine produces (NaN, infinite or negative) or a sum past
/// `f64::MAX` is refused: the floor would hide NaN and report infinity as
/// `u64::MAX`, silently changing the answer.
fn fold(sum: &mut f64, bits: u64) -> Result<(), String> {
    let partial = f64::from_bits(bits);
    *sum += partial;
    if partial >= 0.0 && sum.is_finite() {
        Ok(())
    } else {
        Err(format!("shard partial {partial} is not a finite non-negative reach"))
    }
}
