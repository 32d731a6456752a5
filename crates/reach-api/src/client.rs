//! Blocking reach client with rate-limit backoff and request pipelining.
//!
//! The data-collection pipeline issues thousands of reach queries; when the
//! server throttles, the client honours the server-suggested wait (with a
//! retry cap) — the same etiquette the paper's collection against the real
//! Marketing API required. [`ReachClient::pipeline`] amortises the
//! round-trip by sending a whole batch of id-tagged frames before reading
//! any response, matching answers back by echoed id.
//!
//! Outgoing frames are queued per connection and reach the socket in
//! batches: when the queue holds [`QUEUE_FLUSH_BYTES`], before the client
//! blocks on a read, on [`ReachClient::flush`], and (best effort) when the
//! client is dropped. A window of pipelined requests therefore costs a
//! write per 8 KiB, not one per frame.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use reach_cache::CacheStats;
use uof_telemetry::{RegistrySnapshot, SpanGuard, Telemetry, TraceContext};

use crate::proto::{
    append_request_frame, decode_answer_frame, Answer, FrameCodec, FrameError, ReachPoint,
    ReachRequest, ReachResponse, ResponseFrame, ServerTiming, ShardPartials,
};
use crate::server::MAX_RETRY_BACKOFF;

/// Default ceiling on a single backoff sleep. Matches the server's
/// [`MAX_RETRY_BACKOFF`]: the server never suggests a longer wait, so the
/// default client honours every priced suggestion instead of silently
/// truncating it (a 2s cap used to burn all retries in ~16s against a
/// server that had asked for 60s).
pub const DEFAULT_MAX_BACKOFF: Duration = MAX_RETRY_BACKOFF;

/// Queued request bytes at which [`ReachClient::send`] writes the queue
/// out (the `std::io::BufWriter` default). A deep window thus reaches the
/// server in pieces, so it starts answering while the client still
/// encodes the rest; flushing only before the first read leaves the
/// server idle for the whole window.
pub const QUEUE_FLUSH_BYTES: usize = 8 * 1024;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure. A failed write surfaces from whichever call
    /// wrote the queue: [`ReachClient::flush`], a read
    /// ([`ReachClient::receive`] and everything built on it), or a
    /// [`ReachClient::send`] that filled the queue to
    /// [`QUEUE_FLUSH_BYTES`]. The queued frames are dropped, and like a
    /// failed read the error poisons an id-less connection (see
    /// [`ClientError::Desynchronized`]).
    Io(std::io::Error),
    /// The server reported a request error.
    Server(String),
    /// Rate-limited beyond the retry budget.
    RateLimitExhausted,
    /// The server sent a malformed or oversized frame — a broken peer, not
    /// a broken socket; the typed [`FrameError`] says which.
    BadFrame(FrameError),
    /// The server closed the connection while a response was pending.
    Disconnected,
    /// The server answered with a response kind the request cannot produce
    /// (e.g. a scalar reach for a nested query) — a protocol bug.
    UnexpectedResponse(&'static str),
    /// A previous request died mid-response (e.g. a read timeout), and the
    /// server does not echo request ids, so an arriving response can no
    /// longer be matched to a request — it may be the late answer to the
    /// abandoned one. The connection must be re-established. Id-echoing
    /// servers never trigger this: stale responses are identified by id and
    /// discarded instead.
    Desynchronized,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::RateLimitExhausted => write!(f, "rate limited beyond retry budget"),
            ClientError::BadFrame(e) => write!(f, "bad frame from server: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
            ClientError::UnexpectedResponse(kind) => {
                write!(f, "unexpected response kind: {kind}")
            }
            ClientError::Desynchronized => {
                write!(f, "response stream desynchronized after an aborted request; reconnect")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::BadFrame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::BadFrame(e)
    }
}

/// A reported reach, as seen by the client: the wire's [`ReachPoint`].
pub type ClientReach = ReachPoint;

/// The wait before retry `retries` (1-based) of a rate-limited request:
/// the server-suggested `retry_after_ms` plus a growing safety margin,
/// capped at `max_backoff`. Pure, so the boundary is unit-testable: with
/// the default cap of [`DEFAULT_MAX_BACKOFF`], every wait the server can
/// suggest (≤ [`MAX_RETRY_BACKOFF`]) is honoured almost in full, instead
/// of being silently truncated to a fraction of itself.
pub fn backoff_wait(retry_after_ms: u64, retries: u32, max_backoff: Duration) -> Duration {
    Duration::from_millis(retry_after_ms.saturating_add(u64::from(retries) * 2)).min(max_backoff)
}

/// Blocking client over one TCP connection.
pub struct ReachClient {
    stream: TcpStream,
    /// Encoded request frames not yet written, in send order.
    queue: Vec<u8>,
    codec: FrameCodec,
    /// Next pipelining id to assign (ids are unique per connection).
    next_id: u64,
    /// Set when a request was abandoned mid-response; see
    /// [`ClientError::Desynchronized`].
    desynced: bool,
    /// Where `client.request` spans record. Always the process-global
    /// telemetry: a client only traces when the process has runtime
    /// tracing switched on, so untraced runs pay one relaxed load per
    /// request.
    telemetry: &'static Telemetry,
    /// Trace context adopted as the parent of every outgoing
    /// `client.request` span — set by a router so its backend requests
    /// land in the caller's trace; `None` starts fresh root traces.
    trace_parent: Option<TraceContext>,
    /// Constant fields stamped onto every `client.request` span (e.g. the
    /// shard index a router assigned this backend connection).
    trace_labels: Vec<(&'static str, u64)>,
    /// One span per in-flight wire request, by id; settled (and emitted)
    /// when the matching response frame arrives.
    pending_spans: Vec<(u64, SpanGuard<'static>)>,
    /// The server-timing block echoed on the most recent response that
    /// carried one (only trace-context-tagged requests are echoed).
    last_server_timing: Option<ServerTiming>,
    /// Socket read buffer, reused by every read. Sized for a full
    /// pipelined response batch (the server answers a 64-deep batch with
    /// one write of ~10 KiB when timing echoes are on); a smaller buffer
    /// splits that into extra read syscalls.
    read_buf: Box<[u8]>,
    /// Maximum rate-limit retries per request.
    pub max_retries: u32,
    /// Upper bound on any single backoff sleep. Server-suggested waits are
    /// advisory; a client must never trust an unbounded value — but the
    /// default ceiling ([`DEFAULT_MAX_BACKOFF`]) is high enough to honour
    /// every wait the server itself would suggest.
    pub max_backoff: Duration,
}

impl ReachClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: SocketAddr) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            queue: Vec::new(),
            codec: FrameCodec::new(),
            next_id: 1,
            desynced: false,
            telemetry: uof_telemetry::global(),
            trace_parent: None,
            trace_labels: Vec::new(),
            pending_spans: Vec::new(),
            last_server_timing: None,
            read_buf: vec![0; 16384].into_boxed_slice(),
            max_retries: 8,
            max_backoff: DEFAULT_MAX_BACKOFF,
        })
    }

    /// Overrides the socket read timeout (mainly for tests).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Queries the potential reach of a conjunction of interests in a
    /// location set, retrying through rate limits with the server-suggested
    /// backoff.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn potential_reach(
        &mut self,
        locations: &[&str],
        interests: &[u32],
    ) -> Result<ClientReach, ClientError> {
        let request = ReachRequest::scalar(owned(locations), interests.to_vec());
        match self.request(&request)? {
            ReachResponse::Reach { reported, floored, too_narrow_warning } => {
                Ok(ClientReach { reported, floored, too_narrow_warning })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Queries the reach of **every prefix** of `interests` (in the given
    /// order) in one round trip — the uniqueness pipeline's bulk query.
    /// Element `k` of the result is the reach of `interests[..=k]`.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; notably [`ClientError::Server`] when the
    /// sequence repeats an interest (prefix order makes duplicates
    /// meaningless rather than merely redundant).
    pub fn nested_reach(
        &mut self,
        locations: &[&str],
        interests: &[u32],
    ) -> Result<Vec<ClientReach>, ClientError> {
        let request = ReachRequest::nested(owned(locations), interests.to_vec());
        match self.request(&request)? {
            ReachResponse::Nested { reaches } => Ok(reaches),
            other => Err(unexpected(other)),
        }
    }

    /// Queries the sampled reach of a conjunction — answered from the
    /// server's bit-packed posting-list index (one realized membership draw
    /// per panel user) instead of the expected-value engine. Requires the
    /// server's [`ServerConfig::index`](crate::server::ServerConfig::index)
    /// enabled; otherwise the server answers with an error and this returns
    /// [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn sampled_reach(
        &mut self,
        locations: &[&str],
        interests: &[u32],
    ) -> Result<ClientReach, ClientError> {
        let request = ReachRequest::sampled(owned(locations), interests.to_vec());
        match self.request(&request)? {
            ReachResponse::SampledReach { reported, floored, too_narrow_warning } => {
                Ok(ClientReach { reported, floored, too_narrow_warning })
            }
            other => Err(unexpected(other)),
        }
    }

    /// Fetches a shard backend's raw per-chunk partials for `request`
    /// (which should be a scalar, nested, or sampled query; the `shard`
    /// flag is set here). Only meaningful against a shard-configured
    /// backend — anything else refuses the opcode.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shard_partials(&mut self, request: &ReachRequest) -> Result<ShardPartials, ClientError> {
        let request = request.clone().with_shard();
        let id = self.send(&request)?;
        self.receive_partials(&request, id)
    }

    /// Fetches the server's query-cache statistics snapshot.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn cache_stats(&mut self) -> Result<CacheStats, ClientError> {
        match self.request(&ReachRequest::stats())? {
            ReachResponse::Stats { stats } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the server's full telemetry registry dump: request
    /// counters, the in-flight gauge, per-opcode latency histograms, and
    /// the mirrored `reach_cache.*` view. Empty (but well-formed) when the
    /// server runs with telemetry disabled.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn telemetry_snapshot(&mut self) -> Result<RegistrySnapshot, ClientError> {
        match self.request(&ReachRequest::stats_snapshot())? {
            ReachResponse::StatsSnapshot { registry } => Ok(registry),
            other => Err(unexpected(other)),
        }
    }

    /// Sends one request, retrying through rate limits, and returns the
    /// first substantive response. The request is tagged with a fresh
    /// pipelining id (old id-less servers ignore it and answer in order).
    /// Its frame reaches the socket with the read that waits for the
    /// answer, together with anything queued before it.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn request(&mut self, request: &ReachRequest) -> Result<ReachResponse, ClientError> {
        let id = self.send(request)?;
        self.receive(request, id)
    }

    /// Queues one id-tagged request **without** reading the response and
    /// returns its id; pair with [`ReachClient::receive`]. The frame is
    /// encoded into the connection's queue, which reaches the socket when
    /// it holds [`QUEUE_FLUSH_BYTES`], before the next read, on
    /// [`ReachClient::flush`], or when the client is dropped. A caller
    /// that fans out over several connections (the router) must
    /// [`ReachClient::flush`] each one before its first `receive`, or the
    /// peers see their frames one at a time.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] only when this frame filled the queue and the
    /// write failed.
    pub fn send(&mut self, request: &ReachRequest) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        self.queue_frame(request, id);
        if self.queue.len() >= QUEUE_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Writes every queued frame to the socket now. A no-op on an empty
    /// queue.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the write fails. The queued frames are
    /// dropped either way, and a failure poisons an id-less connection
    /// the way a failed read does.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.queue);
        self.queue.clear();
        written.map_err(|e| {
            // The frames that did go out may still be answered, and an
            // id-less answer could no longer be matched to its request.
            self.desynced = true;
            ClientError::Io(e)
        })
    }

    /// Adopts `parent` as the trace context every subsequent request's
    /// `client.request` span is parented under (and propagated to the
    /// server in-frame). A router sets this per fan-out so backend hops
    /// land in the caller's trace; `None` reverts to fresh root traces.
    pub fn set_trace_parent(&mut self, parent: Option<TraceContext>) {
        self.trace_parent = parent;
    }

    /// Stamps a constant `key = value` field onto every subsequent
    /// `client.request` span — e.g. the shard index of the backend this
    /// connection serves, so a reconstructed trace can name the straggler.
    pub fn label_trace(&mut self, key: &'static str, value: u64) {
        self.trace_labels.retain(|&(k, _)| k != key);
        self.trace_labels.push((key, value));
    }

    /// The server-timing block echoed on the most recent response that
    /// carried one. Only requests tagged with a trace context are echoed,
    /// so this stays `None` unless runtime tracing is on.
    pub fn last_server_timing(&self) -> Option<ServerTiming> {
        self.last_server_timing
    }

    /// Appends `request`, stamped with `id`, to the outgoing queue — and,
    /// when the process is tracing, opens a `client.request` span covering
    /// the request's whole wire lifetime and stamps the frame with its
    /// trace context so the server's `server.frame` span joins the same
    /// trace.
    fn queue_frame(&mut self, request: &ReachRequest, id: u64) {
        let mut trace = request.trace;
        if self.telemetry.is_tracing() {
            let mut builder = self.telemetry.span("client.request").child_of(self.trace_parent);
            for &(key, value) in &self.trace_labels {
                builder = builder.field(key, value.into());
            }
            let span = builder.field("id", id.into()).start();
            trace = span.trace_context();
            self.pending_spans.push((id, span));
        }
        append_request_frame(&mut self.queue, request, id, trace);
    }

    /// Ends (and thereby emits) the span of the wire request a response
    /// frame answered, folding the server's echoed timing into it first.
    /// Id-less frames settle the oldest in-flight span — the in-order
    /// contract id-less servers follow.
    fn settle_span(&mut self, id: Option<u64>, timing: Option<&ServerTiming>) {
        let position = match id {
            Some(got) => self.pending_spans.iter().position(|&(p, _)| p == got),
            None => (!self.pending_spans.is_empty()).then_some(0),
        };
        let Some(position) = position else { return };
        let (_, mut span) = self.pending_spans.remove(position);
        if let Some(t) = timing {
            span.annotate("server_queue_ns", t.queue_ns.into());
            span.annotate("server_handler_ns", t.handler_ns.into());
            span.annotate("server_engine_ns", t.engine_ns.into());
            span.annotate("server_cache_hit", t.cache_hit.into());
        }
    }

    /// Reads the response to a previously [`ReachClient::send`]-issued id,
    /// resending `request` through rate limits with backoff. Before it
    /// blocks on the socket it writes the outgoing queue, so the frame it
    /// waits for (and every frame sent before it) is on the wire.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a failed write of the queue surfaces here as
    /// [`ClientError::Io`].
    pub fn receive(
        &mut self,
        request: &ReachRequest,
        id: u64,
    ) -> Result<ReachResponse, ClientError> {
        client_answer(self.receive_answer(request, id)?)
    }

    /// [`ReachClient::receive`] for a `shard`-flagged request: the router's
    /// read of a backend's partials. Crate-private, so the public reads
    /// only ever yield floored client answers.
    pub(crate) fn receive_partials(
        &mut self,
        request: &ReachRequest,
        id: u64,
    ) -> Result<ShardPartials, ClientError> {
        match self.receive_answer(request, id)? {
            Answer::Partials(partials) => Ok(partials),
            Answer::Client(other) => Err(unexpected(other)),
        }
    }

    /// The first substantive answer to id `id`, resending `request`
    /// through rate limits.
    fn receive_answer(&mut self, request: &ReachRequest, id: u64) -> Result<Answer, ClientError> {
        let mut id = id;
        let mut retries = 0;
        loop {
            match self.read_matching(id)? {
                Answer::Client(ReachResponse::RateLimited { retry_after_ms }) => {
                    if retries >= self.max_retries {
                        return Err(ClientError::RateLimitExhausted);
                    }
                    retries += 1;
                    std::thread::sleep(backoff_wait(retry_after_ms, retries, self.max_backoff));
                    id = self.send(request)?;
                }
                Answer::Client(ReachResponse::Error { message }) => {
                    return Err(ClientError::Server(message))
                }
                substantive => return Ok(substantive),
            }
        }
    }

    /// Sends all of `requests` before reading any response — one round
    /// trip for the whole batch, written a [`QUEUE_FLUSH_BYTES`] piece at a
    /// time and the rest before the first read — then returns the
    /// responses **in request order**, matched by echoed id. Against an
    /// id-less v1 server the batch still works: responses arrive in
    /// request order and fill the slots in order.
    ///
    /// Rate-limited slots are retried in rounds (fresh ids, one backoff
    /// sleep per round, up to `max_retries` rounds); a slot still throttled
    /// after the budget keeps its final [`ReachResponse::RateLimited`], so
    /// one hot slot cannot fail the rest of the batch. Server-side request
    /// errors likewise stay in their slots as [`ReachResponse::Error`].
    ///
    /// # Errors
    ///
    /// Transport-level failures ([`ClientError::Io`],
    /// [`ClientError::BadFrame`], [`ClientError::Disconnected`],
    /// [`ClientError::Desynchronized`]), and
    /// [`ClientError::UnexpectedResponse`] when the peer answers a slot
    /// with shard partials.
    pub fn pipeline(
        &mut self,
        requests: &[ReachRequest],
    ) -> Result<Vec<ReachResponse>, ClientError> {
        let mut slots: Vec<Option<ReachResponse>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        // In-flight (id, slot) pairs, in write order — the order an id-less
        // server's responses arrive in.
        let mut pending: Vec<(u64, usize)> = Vec::with_capacity(requests.len());
        for (slot, request) in requests.iter().enumerate() {
            pending.push((self.send(request)?, slot));
        }
        let mut rounds = 0u32;
        loop {
            let mut rate_limited: Vec<(usize, u64)> = Vec::new();
            while !pending.is_empty() {
                let (id, answer) = self.read_response()?;
                let slot = match id {
                    Some(got) => match pending.iter().position(|&(p, _)| p == got) {
                        Some(k) => pending.remove(k).1,
                        // A late answer to an id abandoned before this
                        // batch: identified, discarded, harmless.
                        None => continue,
                    },
                    None => {
                        if self.desynced {
                            return Err(ClientError::Desynchronized);
                        }
                        pending.remove(0).1
                    }
                };
                let response = client_answer(answer)?;
                if let ReachResponse::RateLimited { retry_after_ms } = response {
                    rate_limited.push((slot, retry_after_ms));
                } else {
                    slots[slot] = Some(response);
                }
            }
            if rate_limited.is_empty() {
                break;
            }
            if rounds >= self.max_retries {
                for (slot, retry_after_ms) in rate_limited {
                    slots[slot] = Some(ReachResponse::RateLimited { retry_after_ms });
                }
                break;
            }
            rounds += 1;
            let worst = rate_limited.iter().map(|&(_, ms)| ms).max().unwrap_or(0);
            std::thread::sleep(backoff_wait(worst, rounds, self.max_backoff));
            for &(slot, _) in &rate_limited {
                pending.push((self.send(&requests[slot])?, slot));
            }
        }
        // lint:allow(no-unwrap) — invariant: the loop exits only once every slot is filled
        Ok(slots.into_iter().map(|s| s.expect("all slots answered")).collect())
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Reads responses until the one answering id `want` arrives. Id-tagged
    /// responses for other (abandoned) ids are discarded; an id-less
    /// response is trusted as the in-order answer — unless the connection
    /// is poisoned, in which case it is unattributable.
    fn read_matching(&mut self, want: u64) -> Result<Answer, ClientError> {
        loop {
            let (id, answer) = self.read_response()?;
            match id {
                Some(got) if got == want => return Ok(answer),
                Some(_) => continue,
                None => {
                    if self.desynced {
                        return Err(ClientError::Desynchronized);
                    }
                    return Ok(answer);
                }
            }
        }
    }

    fn read_response(&mut self) -> Result<(Option<u64>, Answer), ClientError> {
        loop {
            if let Some(frame) = self.codec.next_frame()? {
                let ResponseFrame { id, server_timing, response } = decode_answer_frame(&frame)?;
                self.settle_span(id, server_timing.as_ref());
                if server_timing.is_some() {
                    self.last_server_timing = server_timing;
                }
                return Ok((id, response));
            }
            self.flush()?;
            let n = match self.stream.read(&mut self.read_buf) {
                Ok(n) => n,
                Err(e) => {
                    // The request this read served is being abandoned, but
                    // its response may still arrive (whole or partially
                    // buffered) and would otherwise be matched to the
                    // *next* request. The buffered bytes stay (a partial
                    // frame's tail still completes it); the poison flag
                    // makes any future id-less response an error instead
                    // of a silent mismatch. Id-echoing servers need no
                    // poison — stale ids are discarded above.
                    self.desynced = true;
                    return Err(ClientError::Io(e));
                }
            };
            if n == 0 {
                return Err(ClientError::Disconnected);
            }
            self.codec.feed(&self.read_buf[..n]);
        }
    }
}

impl Drop for ReachClient {
    /// Writes what is still queued, best effort: frames sent but never
    /// waited for still reach the server.
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Owned copies of a query's location codes.
fn owned(locations: &[&str]) -> Vec<String> {
    locations.iter().map(|s| s.to_string()).collect()
}

/// A client answer; partials, which only a shard backend sends and only the
/// router may read, are a protocol violation here.
fn client_answer(answer: Answer) -> Result<ReachResponse, ClientError> {
    match answer {
        Answer::Client(response) => Ok(response),
        Answer::Partials(_) => Err(ClientError::UnexpectedResponse("shard_partials")),
    }
}

/// Labels a response that arrived where it cannot belong.
fn unexpected(response: ReachResponse) -> ClientError {
    ClientError::UnexpectedResponse(match response {
        ReachResponse::Reach { .. } => "reach",
        ReachResponse::RateLimited { .. } => "rate_limited",
        ReachResponse::Error { .. } => "error",
        ReachResponse::Nested { .. } => "nested",
        ReachResponse::Stats { .. } => "stats",
        ReachResponse::StatsSnapshot { .. } => "stats_snapshot",
        ReachResponse::SampledReach { .. } => "sampled_reach",
    })
}

#[cfg(test)]
mod tests {
    // Client transport behaviour is covered end-to-end (against a live
    // server over loopback, including misbehaving raw-TCP servers for the
    // BadFrame and desynchronization paths) in the crate's integration
    // tests. The backoff policy is pure, so its boundary lives here.
    use super::*;

    #[test]
    fn default_backoff_ceiling_honours_every_server_suggestion() {
        // Regression: the default cap used to be 2s, silently truncating a
        // server-priced 60s wait and burning all 8 retries in ~16s.
        assert_eq!(DEFAULT_MAX_BACKOFF, MAX_RETRY_BACKOFF);
        let suggested = MAX_RETRY_BACKOFF.as_millis() as u64;
        let wait = backoff_wait(suggested, 1, DEFAULT_MAX_BACKOFF);
        assert_eq!(wait, MAX_RETRY_BACKOFF, "the largest priced wait is honoured in full");
    }

    #[test]
    fn a_failed_write_drops_the_queue_and_poisons_the_connection() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = ReachClient::connect(listener.local_addr().unwrap()).unwrap();
        drop(listener.accept().unwrap());
        // The first write into the closed peer may still succeed (the
        // peer answers it with a reset); a later one must fail.
        let request = ReachRequest::stats();
        let mut failed = false;
        for _ in 0..100 {
            client.send(&request).unwrap();
            if client.flush().is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(failed, "writing into a closed peer never failed");
        assert!(client.queue.is_empty(), "the failed frames are dropped, not resent");
        assert!(client.desynced, "a failed write poisons id-less responses");
    }

    #[test]
    fn backoff_wait_boundary() {
        // Under the cap: suggestion + margin passes through.
        assert_eq!(backoff_wait(100, 3, DEFAULT_MAX_BACKOFF), Duration::from_millis(106));
        // At and above the cap: clamped, including overflow-safe inputs.
        assert_eq!(backoff_wait(u64::MAX, 8, DEFAULT_MAX_BACKOFF), DEFAULT_MAX_BACKOFF);
        let tight = Duration::from_millis(50);
        assert_eq!(backoff_wait(49, 0, tight), Duration::from_millis(49));
        assert_eq!(backoff_wait(50, 0, tight), tight);
        assert_eq!(backoff_wait(51, 0, tight), tight);
    }
}
