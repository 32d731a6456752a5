//! Wire protocol: versioned JSON messages, newline-delimited.
//!
//! One request per line, one response per line, UTF-8 JSON. The framing
//! codec accumulates bytes and yields complete frames; partial lines stay
//! buffered, oversized lines are rejected — the classic pitfalls the framing
//! chapter of the Tokio guide warns about, handled explicitly.
//!
//! Every frame goes through one hand-written codec ([`Message`]). The
//! encoder writes straight into the output buffer, byte for byte what
//! `serde_json` renders for the same value; the serde derives on the
//! protocol types remain only as that reference. The decoder reads each
//! message's closed key set directly from the frame in one linear pass, in
//! any key order, with any whitespace, escapes and unknown keys. It builds
//! no intermediate value tree, recurses no deeper than the schema's fixed
//! shape, skips unknown values iteratively under [`MAX_DEPTH`], and refuses
//! a frame with a typed [`FrameError`].

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use uof_telemetry::TraceContext;

/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u32 = 1;

/// Maximum frame **payload** length, excluding the newline delimiter (a
/// 25-interest request is ~500 bytes; 64 KiB is generous headroom while
/// still bounding memory per connection).
///
/// The boundary is payload-based on both codec paths: a complete line with
/// exactly `MAX_FRAME` payload bytes is accepted, and a partial line is
/// rejected as soon as `MAX_FRAME + 1` bytes are buffered without a newline
/// (at which point its eventual payload can only be over the limit).
pub const MAX_FRAME: usize = 64 * 1024;

/// A potential-reach query.
///
/// The `nested`, `stats`, `snapshot`, and `sampled` fields are optional
/// extensions added after the first protocol release; absent keys
/// deserialize as `None`, so version-1 frames from older clients remain
/// valid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachRequest {
    /// Protocol version (must equal [`PROTOCOL_VERSION`]).
    pub v: u32,
    /// Two-letter country codes (1..=50, the compulsory location set).
    pub locations: Vec<String>,
    /// Interest ids forming the conjunction (0..=25).
    pub interests: Vec<u32>,
    /// `Some(true)`: report the reach of **every prefix** of `interests`
    /// in request order (the uniqueness pipeline's bulk query) via
    /// [`ReachResponse::Nested`] instead of a single conjunction.
    pub nested: Option<bool>,
    /// `Some(true)`: ignore the query fields and return the server's cache
    /// statistics via [`ReachResponse::Stats`].
    pub stats: Option<bool>,
    /// `Some(true)`: ignore the query fields and return the server's full
    /// telemetry registry dump via [`ReachResponse::StatsSnapshot`].
    pub snapshot: Option<bool>,
    /// `Some(true)`: answer from the bit-packed posting-list index (one
    /// realized membership draw per user) via
    /// [`ReachResponse::SampledReach`] instead of the expected-value
    /// engine. Requires the server to have the index enabled
    /// (`ServerConfig::index`); mutually exclusive with `nested`. Like the
    /// other extension fields, an absent key deserializes as `None`, so
    /// pre-`sampled` frames remain valid.
    #[serde(default)]
    pub sampled: Option<bool>,
    /// Pipelining extension: a client-chosen request id. A server that
    /// understands ids echoes the id in the response frame (see
    /// [`encode_response_frame`]); responses to id-less requests carry no
    /// id. Absent on v1 frames — they still decode (`None`) and are
    /// answered in arrival order, so pre-pipelining clients and servers
    /// interoperate both ways.
    #[serde(default)]
    pub id: Option<u64>,
    /// Sharding extension: `Some(true)` asks a shard-configured backend for
    /// its raw per-chunk partial accumulators via
    /// [`ReachResponse::ShardPartials`] instead of a floored report. Only
    /// the router speaks this opcode; a server **not** running as a shard
    /// refuses it, because partials expose sub-floor audience values that
    /// the reporting floor deliberately hides (the floor is applied once,
    /// at the router, after the merge).
    #[serde(default)]
    pub shard: Option<bool>,
    /// Tracing extension: the sender's [`TraceContext`], so spans recorded
    /// server-side land in the caller's trace as children of the request
    /// span. Strictly observational — the server answers identically with
    /// or without it — and optional on the wire like every other
    /// extension: absent keys decode as `None`, so v1 and v2-id-only
    /// frames remain valid. A request that carries a context is also the
    /// only kind that gets a server-timing block echoed on its response
    /// (see [`encode_response_frame`]); clients that never send a context
    /// never see a tracing byte. Rides as the compact pair
    /// `[trace_id, parent_span_id]` ([`TraceContext`]'s wire form).
    #[serde(default)]
    pub trace: Option<TraceContext>,
}

impl ReachRequest {
    /// A scalar conjunction-reach query.
    pub fn scalar(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: None,
            stats: None,
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A nested prefix-sweep query (order of `interests` is significant).
    pub fn nested(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: Some(true),
            stats: None,
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A cache-statistics probe.
    pub fn stats() -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations: Vec::new(),
            interests: Vec::new(),
            nested: None,
            stats: Some(true),
            snapshot: None,
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A telemetry-registry probe (full metrics dump).
    pub fn stats_snapshot() -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations: Vec::new(),
            interests: Vec::new(),
            nested: None,
            stats: None,
            snapshot: Some(true),
            sampled: None,
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// A sampled conjunction-reach query answered from the server's
    /// bit-packed posting-list index (order-insensitive, like
    /// [`ReachRequest::scalar`]).
    pub fn sampled(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self {
            v: PROTOCOL_VERSION,
            locations,
            interests,
            nested: None,
            stats: None,
            snapshot: None,
            sampled: Some(true),
            id: None,
            shard: None,
            trace: None,
        }
    }

    /// Tags the request with a pipelining id (builder style).
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = Some(id);
        self
    }

    /// Marks the request as a shard-partials fan-out query (builder style;
    /// composes with [`ReachRequest::scalar`], [`ReachRequest::nested`],
    /// and [`ReachRequest::sampled`]).
    pub fn with_shard(mut self) -> Self {
        self.shard = Some(true);
        self
    }

    /// Attaches (or clears) the sender's trace context (builder style).
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Self {
        self.trace = trace;
        self
    }

    /// The request's opcode, decoded once from its flag fields. Precedence:
    /// `snapshot`, then `stats` (both ignore every other flag), then the
    /// query flags, where `nested` with `sampled` names no opcode and is
    /// refused; `shard` composes with any query kind.
    ///
    /// # Errors
    ///
    /// The refusal message when both `nested` and `sampled` are set.
    pub fn op(&self) -> Result<Op, &'static str> {
        if self.snapshot == Some(true) {
            return Ok(Op::Snapshot);
        }
        if self.stats == Some(true) {
            return Ok(Op::Stats);
        }
        let kind = match (self.nested == Some(true), self.sampled == Some(true)) {
            (true, true) => return Err("nested and sampled are mutually exclusive"),
            (true, false) => QueryKind::Nested,
            (false, true) => QueryKind::Sampled,
            (false, false) => QueryKind::Scalar,
        };
        Ok(Op::Query { kind, shard: self.shard == Some(true) })
    }
}

/// A request's opcode (see [`ReachRequest::op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Dump the telemetry registry ([`ReachResponse::StatsSnapshot`]).
    Snapshot,
    /// Report the query cache's statistics ([`ReachResponse::Stats`]).
    Stats,
    /// A reach query over the request's locations and interests.
    Query {
        /// Which reach to compute.
        kind: QueryKind,
        /// Answer with raw per-chunk partials
        /// ([`ReachResponse::ShardPartials`]) instead of a floored report.
        shard: bool,
    },
}

/// The reach a [`Op::Query`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// One conjunction ([`ReachResponse::Reach`]).
    Scalar,
    /// Every prefix of the interests, in request order
    /// ([`ReachResponse::Nested`]).
    Nested,
    /// One conjunction from the posting-list index
    /// ([`ReachResponse::SampledReach`]).
    Sampled,
}

/// One reported prefix reach within a [`ReachResponse::Nested`] answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReachPoint {
    /// Reported potential reach (floor applied).
    pub reported: u64,
    /// Whether the floor masked a smaller value.
    pub floored: bool,
    /// Whether the "audience too narrow" advisory applies.
    pub too_narrow_warning: bool,
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum ReachResponse {
    /// Successful reach report.
    Reach {
        /// Reported potential reach (floor applied).
        reported: u64,
        /// Whether the floor masked a smaller value.
        floored: bool,
        /// Whether the "audience too narrow" advisory applies.
        too_narrow_warning: bool,
    },
    /// The connection exceeded its rate budget; retry after the given
    /// backoff.
    RateLimited {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request was invalid.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Successful nested (prefix-sweep) report: element `k` is the reach of
    /// the first `k+1` interests of the request, floors applied.
    Nested {
        /// Per-prefix reported reaches, in request order.
        reaches: Vec<ReachPoint>,
    },
    /// The server's query-cache statistics snapshot.
    Stats {
        /// Counters and residency at the time of the request.
        stats: reach_cache::CacheStats,
    },
    /// The server's full telemetry registry dump: every counter, gauge,
    /// and latency histogram, sorted by name (cache statistics are
    /// mirrored in as `reach_cache.*` gauges at snapshot time).
    StatsSnapshot {
        /// Registry contents at the time of the request.
        registry: uof_telemetry::RegistrySnapshot,
    },
    /// Successful sampled reach report from the posting-list index. The
    /// reporting floor and advisory are applied server-side exactly as for
    /// [`ReachResponse::Reach`] — the raw panel count is deliberately **not**
    /// on the wire, so a client cannot observe a sub-floor audience through
    /// this opcode either.
    SampledReach {
        /// Reported potential reach (index count × panel scale, floor
        /// applied).
        reported: u64,
        /// Whether the floor masked a smaller value.
        floored: bool,
        /// Whether the "audience too narrow" advisory applies.
        too_narrow_warning: bool,
    },
    /// A shard backend's raw per-chunk partial accumulators, the router's
    /// merge input. Only shard-configured servers emit this (raw values are
    /// sub-floor; see [`ReachRequest`]'s `shard` field). Float partials ride
    /// as `f64::to_bits` so the wire is lossless and the router's merge can
    /// be bit-identical to a single-node fold.
    ShardPartials {
        /// The backend world's [`fbsim_population::World::generation`] the
        /// partials were computed under — the router refuses to merge
        /// partials from mismatched epochs.
        generation: u64,
        /// Global chunk indices this shard owns, ascending.
        chunks: Vec<u32>,
        /// `values[k]` holds chunk `chunks[k]`'s partials: one
        /// `f64::to_bits` element for a scalar query, one per prefix for a
        /// nested query, and one raw (integer) survivor count for a sampled
        /// query.
        values: Vec<Vec<u64>>,
    },
}

/// Errors from the framing codec and the message decoder.
///
/// Every way a frame can be refused has its own variant; all of them render
/// as `malformed frame: …` except [`FrameError::Oversized`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A line exceeded [`MAX_FRAME`] before its newline arrived.
    Oversized,
    /// The frame is not JSON, or not the message's shape: a syntax error,
    /// a missing required key, an unknown `kind`, a fixed-length array of
    /// the wrong length, or a serde error from a `stats`/`registry`
    /// payload.
    Malformed(String),
    /// A key's value has the wrong JSON type.
    WrongType {
        /// The offending key.
        key: &'static str,
        /// What the key's value must be.
        expected: &'static str,
    },
    /// An integer does not fit the key's integer type.
    Overflow {
        /// The offending key.
        key: &'static str,
    },
    /// A string is not valid Unicode: raw bytes that are not UTF-8, or a
    /// `\u` escape naming a lone surrogate.
    InvalidUtf8 {
        /// Byte offset of the offending sequence in the frame.
        at: usize,
    },
    /// A key of the message's schema appears twice in one object.
    DuplicateKey(&'static str),
    /// Containers nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized => write!(f, "frame exceeds {MAX_FRAME} bytes"),
            FrameError::Malformed(m) => write!(f, "malformed frame: {m}"),
            FrameError::WrongType { key, expected } => {
                write!(f, "malformed frame: `{key}` must be {expected}")
            }
            FrameError::Overflow { key } => {
                write!(f, "malformed frame: `{key}` overflows its integer type")
            }
            FrameError::InvalidUtf8 { at } => {
                write!(f, "malformed frame: invalid UTF-8 or lone surrogate at byte {at}")
            }
            FrameError::DuplicateKey(key) => write!(f, "malformed frame: duplicate key `{key}`"),
            FrameError::TooDeep => write!(f, "malformed frame: nesting deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Newline-delimited frame accumulator.
///
/// Popping a frame costs O(frame): popped bytes are only skipped by a
/// consume cursor, and the buffer drops them in one compaction at the next
/// [`FrameCodec::feed`]. The newline scan is incremental too: bytes checked
/// by a previous [`FrameCodec::next_frame`] are never rescanned, so
/// trickle-fed input (one TCP segment at a time) costs O(total bytes), not
/// O(n²).
#[derive(Debug, Default)]
pub struct FrameCodec {
    buffer: Vec<u8>,
    /// Prefix of `buffer` holding frames already popped.
    consumed: usize,
    /// Bytes after `consumed` already known to contain no newline.
    scanned: usize,
}

impl FrameCodec {
    /// An empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds received bytes into the buffer.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.drain(..self.consumed);
        self.consumed = 0;
        self.buffer.extend_from_slice(data);
    }

    /// Pops the next complete frame (without its newline), if any.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] when a line's payload exceeds
    /// [`MAX_FRAME`] — whether its newline has already arrived or not; the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let rest = &self.buffer[self.consumed..];
        if let Some(off) = rest[self.scanned..].iter().position(|&b| b == b'\n') {
            let pos = self.scanned + off;
            self.scanned = 0;
            if pos > MAX_FRAME {
                return Err(FrameError::Oversized);
            }
            let frame = rest[..pos].to_vec();
            self.consumed += pos + 1;
            return Ok(Some(frame));
        }
        self.scanned = rest.len();
        if rest.len() > MAX_FRAME {
            return Err(FrameError::Oversized);
        }
        Ok(None)
    }

    /// Bytes currently buffered (for tests and diagnostics).
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.consumed
    }

    /// Bytes already scanned for a newline — the incremental-scan cursor
    /// (for tests and diagnostics).
    pub fn scan_offset(&self) -> usize {
        self.scanned
    }
}

/// A protocol message with a wire form: [`ReachRequest`] and
/// [`ReachResponse`].
pub trait Message: Sized {
    /// Appends the message's JSON object, without a newline, to `out`.
    fn write_json(&self, out: &mut Vec<u8>);

    /// Decodes one frame; whitespace around the object is allowed.
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] saying why the frame was refused.
    fn read_json(frame: &[u8]) -> Result<Self, FrameError>;
}

/// Encodes a message as one frame (JSON + newline).
pub fn encode<T: Message>(message: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    message.write_json(&mut out);
    out.push(b'\n');
    out
}

/// Appends `request` as one frame to `out`, stamped with the pipelining
/// `id` and the trace context `trace` in place of its own — the bytes of
/// `encode(&request.clone().with_id(id).with_trace(trace))`, without the
/// clone. This is how a client queues a frame.
pub fn append_request_frame(
    out: &mut Vec<u8>,
    request: &ReachRequest,
    id: u64,
    trace: Option<TraceContext>,
) {
    write_request(out, request, Some(id), trace);
    out.push(b'\n');
}

/// Decodes one frame into a message.
///
/// # Errors
///
/// A typed [`FrameError`] saying why the frame was refused.
pub fn decode<T: Message>(frame: &[u8]) -> Result<T, FrameError> {
    T::read_json(frame)
}

/// Where a request's server-side time went, echoed on the response of any
/// request that carried a [`TraceContext`].
///
/// All figures are nanoseconds of server wall clock for this one frame.
/// Purely observational — it rides in the response frame's envelope the
/// same way the pipelining id does, so clients that never sent a context
/// receive byte-identical frames with no tracing keys at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTiming {
    /// Time the decoded frame waited behind earlier frames of the same
    /// read batch before its handler started.
    pub queue_ns: u64,
    /// Total handler time (validation + cache + engine + encoding the
    /// answer's payload).
    pub handler_ns: u64,
    /// Whether the answer was produced without any engine compute (query
    /// cache hit or non-compute opcode).
    pub cache_hit: bool,
    /// Time spent inside engine compute closures (0 on a cache hit).
    pub engine_ns: u64,
}

/// A decoded response frame: the body plus the optional envelope keys
/// (pipelining id, server-timing echo).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echoed pipelining id, when the request carried one.
    pub id: Option<u64>,
    /// Server-timing echo, when the request carried a trace context.
    pub server_timing: Option<ServerTiming>,
    /// The response body.
    pub response: ReachResponse,
}

/// Encodes a response frame, echoing the request's pipelining id and — for
/// requests that sent a trace context — the server-timing block.
///
/// Both ride as extra keys at the front of the response object, as
/// `"id":N,` and `"st":[queue_ns,handler_ns,cache_hit 0|1,engine_ns],`.
/// Decoders ignore unknown keys, so pre-id clients still read the body,
/// and a request without the extensions gets the v1 frame byte for byte
/// (no tracing bytes ever reach a client that didn't opt in).
pub fn encode_response_frame(
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    response: &ReachResponse,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    append_response_frame(&mut out, id, timing, response);
    out
}

/// Appends the frame [`encode_response_frame`] returns to `out` — how a
/// server batches a read's answers into one write.
pub fn append_response_frame(
    out: &mut Vec<u8>,
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    response: &ReachResponse,
) {
    write_response(out, id, timing, response);
    out.push(b'\n');
}

// ---------------------------------------------------------------- encoder
//
// The byte shape is `serde_json`'s rendering of the serde derives: keys in
// declaration order, `None` as `null`, no whitespace, and strings escaped
// exactly as its writer does.

impl Message for ReachRequest {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_request(out, self, self.id, self.trace);
    }

    fn read_json(frame: &[u8]) -> Result<Self, FrameError> {
        read_request(frame)
    }
}

/// `request`'s JSON object with `id` and `trace` in place of its own.
fn write_request(
    out: &mut Vec<u8>,
    request: &ReachRequest,
    id: Option<u64>,
    trace: Option<TraceContext>,
) {
    out.extend_from_slice(b"{\"v\":");
    push_u64(out, u64::from(request.v));
    out.extend_from_slice(b",\"locations\":[");
    for (i, location) in request.locations.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_string(out, location);
    }
    out.extend_from_slice(b"],\"interests\":");
    push_u32s(out, &request.interests);
    out.extend_from_slice(b",\"nested\":");
    push_opt_bool(out, request.nested);
    out.extend_from_slice(b",\"stats\":");
    push_opt_bool(out, request.stats);
    out.extend_from_slice(b",\"snapshot\":");
    push_opt_bool(out, request.snapshot);
    out.extend_from_slice(b",\"sampled\":");
    push_opt_bool(out, request.sampled);
    out.extend_from_slice(b",\"id\":");
    match id {
        Some(id) => push_u64(out, id),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"shard\":");
    push_opt_bool(out, request.shard);
    out.extend_from_slice(b",\"trace\":");
    match trace {
        Some(t) => {
            out.push(b'[');
            push_u64(out, t.trace_id);
            out.push(b',');
            push_u64(out, t.parent_span_id);
            out.push(b']');
        }
        None => out.extend_from_slice(b"null"),
    }
    out.push(b'}');
}

impl Message for ReachResponse {
    fn write_json(&self, out: &mut Vec<u8>) {
        write_response(out, None, None, self);
    }

    /// Decodes the body of a response frame; the envelope keys are
    /// validated and dropped (see [`decode_response_frame`]).
    fn read_json(frame: &[u8]) -> Result<Self, FrameError> {
        decode_response_frame(frame).map(|f| f.response)
    }
}

fn write_response(
    out: &mut Vec<u8>,
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    response: &ReachResponse,
) {
    out.push(b'{');
    if let Some(id) = id {
        out.extend_from_slice(b"\"id\":");
        push_u64(out, id);
        out.push(b',');
    }
    if let Some(t) = timing {
        out.extend_from_slice(b"\"st\":[");
        push_u64(out, t.queue_ns);
        out.push(b',');
        push_u64(out, t.handler_ns);
        out.push(b',');
        out.push(if t.cache_hit { b'1' } else { b'0' });
        out.push(b',');
        push_u64(out, t.engine_ns);
        out.extend_from_slice(b"],");
    }
    match response {
        ReachResponse::Reach { reported, floored, too_narrow_warning } => {
            out.extend_from_slice(b"\"kind\":\"reach\",");
            push_point(out, *reported, *floored, *too_narrow_warning);
        }
        ReachResponse::RateLimited { retry_after_ms } => {
            out.extend_from_slice(b"\"kind\":\"rate_limited\",\"retry_after_ms\":");
            push_u64(out, *retry_after_ms);
        }
        ReachResponse::Error { message } => {
            out.extend_from_slice(b"\"kind\":\"error\",\"message\":");
            push_string(out, message);
        }
        ReachResponse::Nested { reaches } => {
            out.extend_from_slice(b"\"kind\":\"nested\",\"reaches\":[");
            for (i, p) in reaches.iter().enumerate() {
                out.extend_from_slice(if i > 0 { b",{" } else { b"{" });
                push_point(out, p.reported, p.floored, p.too_narrow_warning);
                out.push(b'}');
            }
            out.push(b']');
        }
        ReachResponse::Stats { stats } => {
            out.extend_from_slice(b"\"kind\":\"stats\",\"stats\":");
            push_serde(out, stats);
        }
        ReachResponse::StatsSnapshot { registry } => {
            out.extend_from_slice(b"\"kind\":\"stats_snapshot\",\"registry\":");
            push_serde(out, registry);
        }
        ReachResponse::SampledReach { reported, floored, too_narrow_warning } => {
            out.extend_from_slice(b"\"kind\":\"sampled_reach\",");
            push_point(out, *reported, *floored, *too_narrow_warning);
        }
        ReachResponse::ShardPartials { generation, chunks, values } => {
            out.extend_from_slice(b"\"kind\":\"shard_partials\",\"generation\":");
            push_u64(out, *generation);
            out.extend_from_slice(b",\"chunks\":");
            push_u32s(out, chunks);
            out.extend_from_slice(b",\"values\":[");
            for (i, row) in values.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'[');
                for (j, &v) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(b',');
                    }
                    push_u64(out, v);
                }
                out.push(b']');
            }
            out.push(b']');
        }
    }
    out.push(b'}');
}

/// The three fields of a reach report, in [`ReachPoint`] order.
fn push_point(out: &mut Vec<u8>, reported: u64, floored: bool, too_narrow_warning: bool) {
    out.extend_from_slice(b"\"reported\":");
    push_u64(out, reported);
    out.extend_from_slice(if floored { b",\"floored\":true" } else { b",\"floored\":false" });
    out.extend_from_slice(if too_narrow_warning {
        b",\"too_narrow_warning\":true"
    } else {
        b",\"too_narrow_warning\":false"
    });
}

/// A serde-encoded payload (the rare `stats` and `registry` bodies).
fn push_serde<T: Serialize>(out: &mut Vec<u8>, value: &T) {
    // lint:allow(no-unwrap) — invariant: serde_json::to_vec never fails on a value tree
    out.extend_from_slice(&serde_json::to_vec(value).expect("payload serialises"));
}

fn push_opt_bool(out: &mut Vec<u8>, value: Option<bool>) {
    out.extend_from_slice(match value {
        None => b"null",
        Some(true) => b"true",
        Some(false) => b"false",
    });
}

fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    out.push(b'[');
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, u64::from(v));
    }
    out.push(b']');
}

/// Appends `n` in decimal ASCII.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `s` as a JSON string: `"`, `\` and control characters escaped
/// (short forms where JSON has them, `\u00xx` otherwise), everything else
/// copied in runs.
fn push_string(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let unicode;
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0..=0x1f => {
                unicode =
                    [b'\\', b'u', b'0', b'0', HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(short);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

// ---------------------------------------------------------------- decoder
//
// Accepts what `serde_json` over the serde derives accepts: any key order,
// JSON whitespace between tokens, escaped strings, unknown keys with any
// value, `null` for an absent optional key, and serde_json's number forms
// (`1.0`, `1e3` and `-0` are whole numbers). It refuses, with a typed
// error, duplicate keys of the schema and integers past `u64::MAX`, both
// of which serde_json resolves silently (the first key wins; the number
// saturates through `f64`).

/// Deepest container nesting a frame may contain, the outermost object
/// being depth 1 (the vendored `serde_json` parser's limit). The schema
/// itself needs 3; deeper input can only sit under unknown keys or in a
/// `stats`/`registry` payload.
pub const MAX_DEPTH: usize = serde_json::MAX_DEPTH;

type Decoded<T> = Result<T, FrameError>;

/// 2^64: the smallest whole `f64` that no `u64` holds.
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

const INTEGER: &str = "a non-negative integer";

fn wrong(key: &'static str, expected: &'static str) -> FrameError {
    FrameError::WrongType { key, expected }
}

fn missing(key: &'static str) -> FrameError {
    FrameError::Malformed(format!("missing key `{key}`"))
}

/// A number token, classified.
enum Number {
    /// Digits only, with an optional minus sign; `None` on `u64` overflow.
    Int { negative: bool, value: Option<u64> },
    /// Anything with a fraction or an exponent.
    Float(f64),
}

/// A cursor over one frame. Readers of a value start on its first byte;
/// whitespace is skipped by the container that holds it.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// Consumes `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    /// Consumes `word` if it comes next.
    fn literal(&mut self, word: &[u8]) -> bool {
        let hit = self.bytes[self.pos..].starts_with(word);
        if hit {
            self.pos += word.len();
        }
        hit
    }

    fn syntax(&self, expected: &str) -> FrameError {
        FrameError::Malformed(match self.peek() {
            Some(b) => format!("expected {expected} at byte {}, found {:?}", self.pos, b as char),
            None => format!("expected {expected} at byte {}, found end of frame", self.pos),
        })
    }

    fn require(&mut self, byte: u8, what: &str) -> Decoded<()> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.syntax(what))
        }
    }

    /// Reads the frame's one top-level object with `read`, then requires
    /// the end of the frame.
    fn frame(&mut self, read: impl FnOnce(&mut Self) -> Decoded<()>) -> Decoded<()> {
        self.ws();
        if self.peek() != Some(b'{') {
            return Err(self.syntax("a JSON object"));
        }
        read(self)?;
        self.ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.syntax("end of frame"))
        }
    }

    /// Reads an object, handing each key to `field`, which must consume
    /// the key's value.
    fn object(&mut self, mut field: impl FnMut(&mut Self, &[u8]) -> Decoded<()>) -> Decoded<()> {
        self.require(b'{', "`{`")?;
        self.ws();
        if self.eat(b'}') {
            return Ok(());
        }
        loop {
            let key = self.key()?;
            field(self, key.as_bytes())?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("`,` or `}`")),
            }
        }
    }

    /// Reads `"key" :` and the whitespace after it.
    fn key(&mut self) -> Decoded<Cow<'a, str>> {
        if self.peek() != Some(b'"') {
            return Err(self.syntax("a key"));
        }
        let key = self.string()?;
        self.ws();
        self.require(b':', "`:`")?;
        self.ws();
        Ok(key)
    }

    /// Reads an array, handing each element to `item`, which must consume
    /// it.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Decoded<()>) -> Decoded<()> {
        self.require(b'[', "`[`")?;
        self.ws();
        if self.eat(b']') {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.syntax("`,` or `]`")),
            }
        }
    }

    /// Reads a string, borrowed from the frame unless it holds escapes.
    /// Plain runs are validated as UTF-8 and copied whole, so a string
    /// costs O(its length).
    fn string(&mut self) -> Decoded<Cow<'a, str>> {
        let bytes: &'a [u8] = self.bytes;
        self.pos += 1; // the opening quote
        let mut owned: Option<String> = None;
        loop {
            let rest = &bytes[self.pos..];
            let Some(end) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(FrameError::Malformed("unterminated string".into()));
            };
            let run = std::str::from_utf8(&rest[..end])
                .map_err(|e| FrameError::InvalidUtf8 { at: self.pos + e.valid_up_to() })?;
            self.pos += end + 1;
            if rest[end] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(run),
                    Some(mut s) => {
                        s.push_str(run);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(run);
            self.escape(s)?;
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Decoded<()> {
        let at = self.pos - 1;
        let Some(c) = self.peek() else { return Err(self.syntax("an escape")) };
        self.pos += 1;
        out.push(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let unit = u32::from(self.hex4()?);
                let code = if (0xD800..0xDC00).contains(&unit) {
                    // A high surrogate: its low half must follow.
                    if !self.literal(b"\\u") {
                        return Err(FrameError::InvalidUtf8 { at });
                    }
                    let low = u32::from(self.hex4()?);
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(FrameError::InvalidUtf8 { at });
                    }
                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    unit
                };
                char::from_u32(code).ok_or(FrameError::InvalidUtf8 { at })?
            }
            _ => {
                self.pos -= 1;
                return Err(self.syntax("an escape"));
            }
        });
        Ok(())
    }

    /// The four hex digits of a `\u` escape, read with the same
    /// `from_str_radix` call as the vendored serde_json parser.
    fn hex4(&mut self) -> Decoded<u16> {
        let unit = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|digits| std::str::from_utf8(digits).ok())
            .and_then(|digits| u16::from_str_radix(digits, 16).ok())
            .ok_or_else(|| self.syntax("four hex digits"))?;
        self.pos += 4;
        Ok(unit)
    }

    /// Scans a number token with serde_json's grammar: an optional minus,
    /// digits, an optional fraction and an optional exponent, valid when it
    /// is an integer or parses as an `f64`.
    fn number(&mut self) -> Decoded<Number> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let mut value = Some(0u64);
        let digits_from = self.pos;
        while let Some(b @ b'0'..=b'9') = self.peek() {
            value = value.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        let digits = self.pos - digits_from;
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits();
        }
        if integral && digits > 0 {
            return Ok(Number::Int { negative, value });
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| FrameError::Malformed(format!("invalid number `{text}` at byte {start}")))
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    /// Skips one value of any type, validating it as strictly as the typed
    /// readers do. Iterative: `depth` counts the containers already open
    /// around the value, and opening one past [`MAX_DEPTH`] is an error.
    fn skip_value(&mut self, depth: usize) -> Decoded<()> {
        // Bit `k` says whether the `k`-th container opened here is an
        // object; MAX_DEPTH ≤ 128 keeps the whole stack in one word.
        let mut objects: u128 = 0;
        let mut open = 0usize;
        loop {
            match self.peek() {
                Some(c @ (b'{' | b'[')) => {
                    if depth + open >= MAX_DEPTH {
                        return Err(FrameError::TooDeep);
                    }
                    self.pos += 1;
                    self.ws();
                    let object = c == b'{';
                    if object {
                        objects |= 1 << open;
                    } else {
                        objects &= !(1 << open);
                    }
                    if !self.eat(if object { b'}' } else { b']' }) {
                        open += 1;
                        if object {
                            self.key()?;
                        }
                        continue;
                    }
                }
                Some(b'"') => {
                    self.string()?;
                }
                Some(b'-' | b'0'..=b'9') => {
                    self.number()?;
                }
                _ => {
                    if !(self.literal(b"null") || self.literal(b"true") || self.literal(b"false")) {
                        return Err(self.syntax("a value"));
                    }
                }
            }
            // A value ended: close containers until one has a next member.
            loop {
                if open == 0 {
                    return Ok(());
                }
                self.ws();
                let object = objects >> (open - 1) & 1 == 1;
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.ws();
                        if object {
                            self.key()?;
                        }
                        break;
                    }
                    Some(b'}') if object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    Some(b']') if !object => {
                        self.pos += 1;
                        open -= 1;
                    }
                    _ => return Err(self.syntax(if object { "`,` or `}`" } else { "`,` or `]`" })),
                }
            }
        }
    }

    /// Reads a whole non-negative number for `key`: serde_json's forms
    /// (`7`, `-0`, `7.0`, `7e0`), refusing anything past `u64::MAX`.
    fn u64(&mut self, key: &'static str) -> Decoded<u64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(wrong(key, INTEGER));
        }
        match self.number()? {
            Number::Int { negative: false, value: Some(n) }
            | Number::Int { value: Some(n @ 0), .. } => Ok(n),
            Number::Int { negative: false, value: None } => Err(FrameError::Overflow { key }),
            Number::Float(f) if f.is_finite() && f.trunc() == f && f >= 0.0 => {
                if f < U64_LIMIT {
                    Ok(f as u64)
                } else {
                    Err(FrameError::Overflow { key })
                }
            }
            _ => Err(wrong(key, INTEGER)),
        }
    }

    fn u32(&mut self, key: &'static str) -> Decoded<u32> {
        u32::try_from(self.u64(key)?).map_err(|_| FrameError::Overflow { key })
    }

    /// `null` as `None`, anything else through `read`.
    fn nullable<T>(&mut self, read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Option<T>> {
        if self.literal(b"null") {
            Ok(None)
        } else {
            read(self).map(Some)
        }
    }

    fn bool(&mut self, key: &'static str) -> Decoded<bool> {
        if self.literal(b"true") {
            Ok(true)
        } else if self.literal(b"false") {
            Ok(false)
        } else {
            Err(wrong(key, "a boolean"))
        }
    }

    fn owned_string(&mut self, key: &'static str) -> Decoded<String> {
        if self.peek() != Some(b'"') {
            return Err(wrong(key, "a string"));
        }
        Ok(self.string()?.into_owned())
    }

    /// Reads an array for `key`, one element at a time.
    fn list<T>(
        &mut self,
        key: &'static str,
        mut item: impl FnMut(&mut Self) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        if self.peek() != Some(b'[') {
            return Err(wrong(key, "an array"));
        }
        let mut items = Vec::new();
        self.array(|r| {
            items.push(item(r)?);
            Ok(())
        })?;
        Ok(items)
    }

    /// Reads an array of exactly `N` integers for `key`.
    fn u64s<const N: usize>(&mut self, key: &'static str) -> Decoded<[u64; N]> {
        let items = self.list(key, |r| r.u64(key))?;
        let got = items.len();
        <[u64; N]>::try_from(items)
            .map_err(|_| FrameError::Malformed(format!("`{key}` needs {N} elements, got {got}")))
    }

    /// Reads a top-level variant field with `read`. A refused read keeps
    /// its error for later, since the frame's `kind` decides whether the
    /// field matters; the value is then validated as JSON, so a syntax
    /// error still refuses the frame.
    fn slot<T>(&mut self, read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Slot<T>> {
        let start = self.pos;
        match read(self) {
            Ok(value) => Ok(Some(Ok(value))),
            Err(e) => {
                self.pos = start;
                self.skip_value(1)?;
                Ok(Some(Err(e)))
            }
        }
    }

    /// The raw bytes of one top-level value, validated as JSON.
    fn raw_value(&mut self) -> Decoded<&'a [u8]> {
        let start = self.pos;
        self.skip_value(1)?;
        Ok(&self.bytes[start..self.pos])
    }

    /// A response's `kind` tag.
    fn kind(&mut self) -> Decoded<Kind> {
        if self.peek() != Some(b'"') {
            return Err(wrong("kind", "a string"));
        }
        Ok(match &*self.string()? {
            "reach" => Kind::Reach,
            "rate_limited" => Kind::RateLimited,
            "error" => Kind::Error,
            "nested" => Kind::Nested,
            "stats" => Kind::Stats,
            "stats_snapshot" => Kind::StatsSnapshot,
            "sampled_reach" => Kind::SampledReach,
            "shard_partials" => Kind::ShardPartials,
            other => return Err(FrameError::Malformed(format!("unknown kind `{other}`"))),
        })
    }

    /// Reads an object whose known keys are `names`, handing each to
    /// `read`, which must consume its value; other keys are skipped (the
    /// object sits at `depth`). A known key given twice refuses the frame,
    /// and so does a missing one among the first `required`.
    fn fields(
        &mut self,
        names: &[&'static str],
        required: usize,
        depth: usize,
        mut read: impl FnMut(&mut Self, &'static str) -> Decoded<()>,
    ) -> Decoded<()> {
        let mut seen = 0u32;
        self.object(|r, key| {
            let Some(k) = names.iter().position(|name| name.as_bytes() == key) else {
                return r.skip_value(depth);
            };
            if seen & 1 << k != 0 {
                return Err(FrameError::DuplicateKey(names[k]));
            }
            seen |= 1 << k;
            read(r, names[k])
        })?;
        match (0..required).find(|&k| seen & 1 << k == 0) {
            Some(k) => Err(missing(names[k])),
            None => Ok(()),
        }
    }

    /// A trace context: `[trace_id, parent_span_id]` or `null`.
    fn trace(&mut self) -> Decoded<Option<TraceContext>> {
        let pair = self.nullable(|r| r.u64s::<2>("trace"))?;
        Ok(pair.map(|[trace_id, parent_span_id]| TraceContext { trace_id, parent_span_id }))
    }

    /// The server-timing echo `st`: `[queue_ns, handler_ns, cache_hit,
    /// engine_ns]` (a nonzero `cache_hit` is a hit) or `null`.
    fn timing(&mut self) -> Decoded<Option<ServerTiming>> {
        let quad = self.nullable(|r| r.u64s::<4>("st"))?;
        Ok(quad.map(|[queue_ns, handler_ns, hit, engine_ns]| ServerTiming {
            queue_ns,
            handler_ns,
            cache_hit: hit != 0,
            engine_ns,
        }))
    }

    /// One [`ReachPoint`] object of a nested answer (depth 3).
    fn point(&mut self) -> Decoded<ReachPoint> {
        if self.peek() != Some(b'{') {
            return Err(wrong("reaches", "an array of objects"));
        }
        let mut p = ReachPoint { reported: 0, floored: false, too_narrow_warning: false };
        self.fields(&["reported", "floored", "too_narrow_warning"], 3, 3, |r, key| {
            match key {
                "reported" => p.reported = r.u64(key)?,
                "floored" => p.floored = r.bool(key)?,
                _ => p.too_narrow_warning = r.bool(key)?,
            }
            Ok(())
        })?;
        Ok(p)
    }
}

/// The request's keys; the first three are required.
const REQUEST_KEYS: [&str; 10] = [
    "v",
    "locations",
    "interests",
    "nested",
    "stats",
    "snapshot",
    "sampled",
    "id",
    "shard",
    "trace",
];

fn read_request(frame: &[u8]) -> Decoded<ReachRequest> {
    let mut request = ReachRequest::scalar(Vec::new(), Vec::new());
    let mut r = Reader { bytes: frame, pos: 0 };
    r.frame(|r| {
        r.fields(&REQUEST_KEYS, 3, 1, |r, key| {
            match key {
                "v" => request.v = r.u32(key)?,
                "locations" => request.locations = r.list(key, |r| r.owned_string(key))?,
                "interests" => request.interests = r.list(key, |r| r.u32(key))?,
                "nested" => request.nested = r.nullable(|r| r.bool(key))?,
                "stats" => request.stats = r.nullable(|r| r.bool(key))?,
                "snapshot" => request.snapshot = r.nullable(|r| r.bool(key))?,
                "sampled" => request.sampled = r.nullable(|r| r.bool(key))?,
                "id" => request.id = r.nullable(|r| r.u64(key))?,
                "shard" => request.shard = r.nullable(|r| r.bool(key))?,
                _ => request.trace = r.trace()?,
            }
            Ok(())
        })
    })?;
    Ok(request)
}

/// A response's `kind` tag.
#[derive(Clone, Copy)]
enum Kind {
    Reach,
    RateLimited,
    Error,
    Nested,
    Stats,
    StatsSnapshot,
    SampledReach,
    ShardPartials,
}

/// A variant field, read before the frame's `kind` is known: missing, read,
/// or refused with an error that counts only if `kind` selects the field.
type Slot<T> = Option<Decoded<T>>;

fn need<T>(slot: Slot<T>, key: &'static str) -> Decoded<T> {
    slot.unwrap_or_else(|| Err(missing(key)))
}

/// Decodes a serde-encoded `stats`/`registry` payload.
fn payload<T: for<'de> Deserialize<'de>>(span: Option<&[u8]>, key: &'static str) -> Decoded<T> {
    let span = span.ok_or_else(|| missing(key))?;
    serde_json::from_slice(span).map_err(|e| FrameError::Malformed(format!("`{key}`: {e}")))
}

/// The envelope keys, `kind`, and every variant's fields.
const RESPONSE_KEYS: [&str; 14] = [
    "id",
    "st",
    "kind",
    "reported",
    "floored",
    "too_narrow_warning",
    "retry_after_ms",
    "message",
    "reaches",
    "stats",
    "registry",
    "generation",
    "chunks",
    "values",
];

/// Decodes a response frame into its body and optional envelope keys.
///
/// # Errors
///
/// A typed [`FrameError`] saying why the frame was refused.
pub fn decode_response_frame(frame: &[u8]) -> Result<ResponseFrame, FrameError> {
    let (mut id, mut st, mut kind) = (None, None, None);
    let (mut reported, mut floored, mut too_narrow_warning): (Slot<u64>, Slot<bool>, Slot<bool>) =
        (None, None, None);
    let (mut retry_after_ms, mut generation): (Slot<u64>, Slot<u64>) = (None, None);
    let mut message: Slot<String> = None;
    let mut reaches: Slot<Vec<ReachPoint>> = None;
    let mut chunks: Slot<Vec<u32>> = None;
    let mut values: Slot<Vec<Vec<u64>>> = None;
    let (mut stats, mut registry) = (None, None);
    let mut r = Reader { bytes: frame, pos: 0 };
    r.frame(|r| {
        r.fields(&RESPONSE_KEYS, 0, 1, |r, key| {
            match key {
                "id" => id = r.nullable(|r| r.u64(key))?,
                "st" => st = r.timing()?,
                "kind" => kind = Some(r.kind()?),
                "reported" => reported = r.slot(|r| r.u64(key))?,
                "floored" => floored = r.slot(|r| r.bool(key))?,
                "too_narrow_warning" => too_narrow_warning = r.slot(|r| r.bool(key))?,
                "retry_after_ms" => retry_after_ms = r.slot(|r| r.u64(key))?,
                "message" => message = r.slot(|r| r.owned_string(key))?,
                "reaches" => reaches = r.slot(|r| r.list(key, Reader::point))?,
                "stats" => stats = Some(r.raw_value()?),
                "registry" => registry = Some(r.raw_value()?),
                "generation" => generation = r.slot(|r| r.u64(key))?,
                "chunks" => chunks = r.slot(|r| r.list(key, |r| r.u32(key)))?,
                _ => values = r.slot(|r| r.list(key, |r| r.list(key, |r| r.u64(key))))?,
            }
            Ok(())
        })
    })?;
    let response = match kind.ok_or_else(|| missing("kind"))? {
        Kind::Reach => ReachResponse::Reach {
            reported: need(reported, "reported")?,
            floored: need(floored, "floored")?,
            too_narrow_warning: need(too_narrow_warning, "too_narrow_warning")?,
        },
        Kind::RateLimited => {
            ReachResponse::RateLimited { retry_after_ms: need(retry_after_ms, "retry_after_ms")? }
        }
        Kind::Error => ReachResponse::Error { message: need(message, "message")? },
        Kind::Nested => ReachResponse::Nested { reaches: need(reaches, "reaches")? },
        Kind::Stats => ReachResponse::Stats { stats: payload(stats, "stats")? },
        Kind::StatsSnapshot => {
            ReachResponse::StatsSnapshot { registry: payload(registry, "registry")? }
        }
        Kind::SampledReach => ReachResponse::SampledReach {
            reported: need(reported, "reported")?,
            floored: need(floored, "floored")?,
            too_narrow_warning: need(too_narrow_warning, "too_narrow_warning")?,
        },
        Kind::ShardPartials => ReachResponse::ShardPartials {
            generation: need(generation, "generation")?,
            chunks: need(chunks, "chunks")?,
            values: need(values, "values")?,
        },
    };
    Ok(ResponseFrame { id, server_timing: st, response })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> ReachRequest {
        ReachRequest::scalar(vec!["ES".into(), "FR".into()], vec![1, 2, 3])
    }

    #[test]
    fn opcode_precedence_is_snapshot_stats_then_query() {
        let flags = |snapshot, stats, nested, sampled, shard| ReachRequest {
            snapshot: Some(snapshot),
            stats: Some(stats),
            nested: Some(nested),
            sampled: Some(sampled),
            shard: Some(shard),
            ..request()
        };
        let query = |kind, shard| Ok(Op::Query { kind, shard });
        assert_eq!(request().op(), query(QueryKind::Scalar, false));
        assert_eq!(flags(true, true, true, true, true).op(), Ok(Op::Snapshot));
        assert_eq!(flags(false, true, true, true, true).op(), Ok(Op::Stats));
        assert_eq!(
            flags(false, false, true, true, true).op(),
            Err("nested and sampled are mutually exclusive")
        );
        assert_eq!(flags(false, false, true, false, true).op(), query(QueryKind::Nested, true));
        assert_eq!(flags(false, false, false, true, false).op(), query(QueryKind::Sampled, false));
        assert_eq!(flags(false, false, false, false, true).op(), query(QueryKind::Scalar, true));
    }

    #[test]
    fn encode_decode_round_trip() {
        let frame = encode(&request());
        assert_eq!(*frame.last().unwrap(), b'\n');
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, request());
    }

    #[test]
    fn response_variants_round_trip() {
        for response in [
            ReachResponse::Reach { reported: 1_000, floored: true, too_narrow_warning: true },
            ReachResponse::RateLimited { retry_after_ms: 250 },
            ReachResponse::Error { message: "nope".into() },
            ReachResponse::Nested {
                reaches: vec![
                    ReachPoint { reported: 500, floored: false, too_narrow_warning: false },
                    ReachPoint { reported: 20, floored: true, too_narrow_warning: true },
                ],
            },
            ReachResponse::SampledReach {
                reported: 750,
                floored: false,
                too_narrow_warning: false,
            },
        ] {
            let frame = encode(&response);
            let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn version_one_frames_without_extension_keys_still_decode() {
        // Wire backward compatibility: the original protocol-1 request shape
        // (no `nested`/`stats`/`snapshot` keys) must keep decoding, with the
        // extension fields defaulting to `None`.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.v, 1);
        assert_eq!(request.interests, vec![0, 5]);
        assert_eq!(request.nested, None);
        assert_eq!(request.stats, None);
        assert_eq!(request.snapshot, None);
        assert_eq!(request.sampled, None);
        // Pre-`sampled` frames (extension keys present, no `sampled` key —
        // what every client before this release emits) also still decode.
        let raw = br#"{"v":1,"locations":["US"],"interests":[2],"nested":null,"stats":null,"snapshot":null}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.sampled, None);
    }

    #[test]
    fn sampled_request_round_trips() {
        let sampled = ReachRequest::sampled(vec!["US".into()], vec![1, 2]);
        assert_eq!(sampled.sampled, Some(true));
        assert_eq!(sampled.nested, None);
        let frame = encode(&sampled);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, sampled);
    }

    #[test]
    fn request_constructors_set_extension_flags() {
        assert_eq!(ReachRequest::scalar(vec!["US".into()], vec![1]).nested, None);
        assert_eq!(ReachRequest::nested(vec!["US".into()], vec![1]).nested, Some(true));
        let stats = ReachRequest::stats();
        assert_eq!(stats.stats, Some(true));
        assert!(stats.interests.is_empty());
        let frame = encode(&stats);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, stats);
        let snapshot = ReachRequest::stats_snapshot();
        assert_eq!(snapshot.snapshot, Some(true));
        assert_eq!(snapshot.stats, None);
        assert!(snapshot.interests.is_empty());
    }

    #[test]
    fn stats_snapshot_response_round_trips() {
        use uof_telemetry::{Registry, RegistrySnapshot};
        let registry = Registry::new();
        registry.counter("reach.requests.scalar").add(7);
        registry.gauge("reach.requests.in_flight").set(1);
        registry.latency_histogram("reach.request.scalar").observe(42_000);
        let response = ReachResponse::StatsSnapshot { registry: registry.snapshot() };
        let frame = encode(&response);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, response);
        // An empty registry dump is also a valid frame.
        let empty = ReachResponse::StatsSnapshot { registry: RegistrySnapshot::default() };
        let frame = encode(&empty);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn request_id_round_trips_and_absent_id_decodes_as_none() {
        let tagged = request().with_id(42);
        assert_eq!(tagged.id, Some(42));
        let frame = encode(&tagged);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back.id, Some(42));
        // v1 frame without the id key: decodes, id is None.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.id, None);
        assert_eq!(request.shard, None);
    }

    #[test]
    fn response_frame_id_echo_round_trips() {
        let response =
            ReachResponse::Reach { reported: 1_000, floored: false, too_narrow_warning: false };
        // No extensions: byte-identical to the v1 encoding.
        assert_eq!(encode_response_frame(None, None, &response), encode(&response));
        // With id: both halves decode from the same frame.
        let frame = encode_response_frame(Some(7), None, &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(7));
        assert_eq!(decoded.server_timing, None);
        assert_eq!(decoded.response, response);
        // A pre-id decoder ignores the envelope key entirely.
        let old: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(old, response);
        // And an id-less v1 frame decodes with id None.
        let v1 = encode(&response);
        let decoded = decode_response_frame(&v1[..v1.len() - 1]).unwrap();
        assert_eq!(decoded.id, None);
        assert_eq!(decoded.response, response);
    }

    #[test]
    fn server_timing_echo_round_trips_and_stays_opt_in() {
        let response =
            ReachResponse::Reach { reported: 500, floored: false, too_narrow_warning: false };
        let timing =
            ServerTiming { queue_ns: 1_200, handler_ns: 90_000, cache_hit: true, engine_ns: 0 };
        // With both extensions: id, timing, and body all decode.
        let frame = encode_response_frame(Some(3), Some(&timing), &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(3));
        assert_eq!(decoded.server_timing, Some(timing));
        assert_eq!(decoded.response, response);
        // A decoder that predates the extension still reads the body.
        let old: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(old, response);
        // Timing without an id also round-trips (id-less traced client).
        let frame = encode_response_frame(None, Some(&timing), &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, None);
        assert_eq!(decoded.server_timing, Some(timing));
        // No trace context sent → not one tracing byte in the frame.
        let plain = encode_response_frame(Some(9), None, &response);
        let text = String::from_utf8(plain).unwrap();
        assert!(!text.contains("\"st\""), "{text}");
        assert!(!text.contains("trace"), "{text}");
    }

    #[test]
    fn envelope_keys_decode_in_any_order_and_form() {
        let body =
            ReachResponse::Reach { reported: 9_000, floored: true, too_narrow_warning: false };
        let timing = ServerTiming { queue_ns: 1, handler_ns: 2, cache_hit: true, engine_ns: 3 };
        // Our own byte shape: envelope first, compact timing.
        let ours = encode_response_frame(Some(7), Some(&timing), &body);
        assert!(ours.starts_with(b"{\"id\":7,\"st\":[1,2,1,3],\"kind\":\"reach\","));
        let expected = ResponseFrame { id: Some(7), server_timing: Some(timing), response: body };
        assert_eq!(decode_response_frame(&ours).unwrap(), expected);
        // Keys reordered, whitespace everywhere.
        let reordered = br#"{"kind":"reach","st":[1,2,1,3],"reported":9000,"id":7,"floored":true,"too_narrow_warning":false}"#;
        assert_eq!(decode_response_frame(reordered).unwrap(), expected);
        let spaced = b" {\t\"id\" : 7 ,\r\n \"st\": [ 1 , 2 , 5 , 3 ] , \"kind\" : \"reach\", \"reported\":9000,\"floored\":true,\"too_narrow_warning\":false } \n";
        assert_eq!(decode_response_frame(spaced).unwrap(), expected, "nonzero cache_hit is a hit");
        // `server_timing` is not an envelope key: skipped like any other.
        let both = br#"{"server_timing":[9,9,0,9],"st":[1,2,1,3],"id":7,"kind":"reach","reported":9000,"floored":true,"too_narrow_warning":false}"#;
        assert_eq!(decode_response_frame(both).unwrap(), expected);
        // Keys of other variants are ignored whatever their type.
        let stray = br#"{"kind":"reach","reported":9000,"floored":true,"too_narrow_warning":false,"message":5,"reaches":"x","id":7,"st":[1,2,1,3]}"#;
        assert_eq!(decode_response_frame(stray).unwrap(), expected);
        // ...but the chosen variant's own keys are typed.
        let typed =
            br#"{"kind":"reach","reported":"9000","floored":true,"too_narrow_warning":false}"#;
        assert_eq!(
            decode_response_frame(typed),
            Err(FrameError::WrongType { key: "reported", expected: INTEGER })
        );
    }

    #[test]
    fn trace_context_request_field_round_trips_and_defaults_to_none() {
        use uof_telemetry::TraceContext;
        let ctx = TraceContext { trace_id: 0xABCD, parent_span_id: 7 };
        let traced = request().with_trace(Some(ctx));
        assert_eq!(traced.trace, Some(ctx));
        let frame = encode(&traced);
        // The context rides as the compact pair on the wire…
        let text = String::from_utf8(frame.clone()).unwrap();
        assert!(text.contains("\"trace\":[43981,7]"), "{text}");
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back.trace, Some(ctx));
        // v1 and v2-id-only frames decode with trace None.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5]}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.trace, None);
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5],"id":12}"#;
        let request: ReachRequest = decode(raw).unwrap();
        assert_eq!(request.id, Some(12));
        assert_eq!(request.trace, None);
    }

    #[test]
    fn named_trace_and_timing_forms_are_refused() {
        // Only the compact arrays are wire forms; an object in their place
        // is a typed refusal, not a second spelling.
        let raw = br#"{"v":1,"locations":["US"],"interests":[0,5],"trace":{"trace_id":43981,"parent_span_id":7}}"#;
        assert_eq!(
            decode::<ReachRequest>(raw),
            Err(FrameError::WrongType { key: "trace", expected: "an array" })
        );
        let raw = br#"{"kind":"reach","reported":9000,"floored":true,"too_narrow_warning":false,"st":{"queue_ns":1,"handler_ns":2,"cache_hit":true,"engine_ns":3}}"#;
        assert_eq!(
            decode_response_frame(raw),
            Err(FrameError::WrongType { key: "st", expected: "an array" })
        );
    }

    #[test]
    fn shard_partials_round_trip() {
        let response = ReachResponse::ShardPartials {
            generation: 3,
            chunks: vec![0, 2, 5],
            values: vec![
                vec![1.5f64.to_bits()],
                vec![0.0f64.to_bits()],
                vec![123.456f64.to_bits()],
            ],
        };
        let frame = encode_response_frame(Some(9), None, &response);
        let decoded = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(9));
        assert_eq!(decoded.response, response);
        let shard_request = ReachRequest::scalar(vec!["US".into()], vec![1]).with_shard();
        assert_eq!(shard_request.shard, Some(true));
        let frame = encode(&shard_request);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(back, shard_request);
    }

    #[test]
    fn codec_handles_partial_frames() {
        let mut codec = FrameCodec::new();
        let frame = encode(&request());
        let (a, b) = frame.split_at(frame.len() / 2);
        codec.feed(a);
        assert_eq!(codec.next_frame().unwrap(), None);
        codec.feed(b);
        let got = codec.next_frame().unwrap().unwrap();
        let back: ReachRequest = decode(&got).unwrap();
        assert_eq!(back, request());
        assert_eq!(codec.next_frame().unwrap(), None);
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn codec_handles_multiple_frames_per_feed() {
        let mut codec = FrameCodec::new();
        let mut data = encode(&request());
        data.extend(encode(&request()));
        codec.feed(&data);
        assert!(codec.next_frame().unwrap().is_some());
        assert!(codec.next_frame().unwrap().is_some());
        assert!(codec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_partial_line_rejected() {
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    #[test]
    fn oversized_complete_line_rejected() {
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME + 1];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    #[test]
    fn trickle_feed_scans_each_byte_once() {
        // Regression for the O(n²) scan: `next_frame` used to restart the
        // newline search from the buffer start on every call; the cursor now
        // advances past everything already checked.
        let mut codec = FrameCodec::new();
        codec.feed(&[b'x'; 10]);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 10);
        codec.feed(&[b'x'; 5]);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 15);
        codec.feed(b"\nabc");
        let frame = codec.next_frame().unwrap().unwrap();
        assert_eq!(frame.len(), 15);
        // After a frame pops, the cursor restarts on the leftover bytes.
        assert_eq!(codec.scan_offset(), 0);
        assert_eq!(codec.next_frame(), Ok(None));
        assert_eq!(codec.scan_offset(), 3);
    }

    #[test]
    fn trickle_feed_handles_large_line_in_linear_time() {
        // One MAX_FRAME-sized line fed in 1 KiB pieces with a poll between
        // each piece — linear with the scan cursor, quadratic without it.
        let mut codec = FrameCodec::new();
        for _ in 0..(MAX_FRAME / 1024) {
            codec.feed(&[b'y'; 1024]);
            assert_eq!(codec.next_frame(), Ok(None));
        }
        assert_eq!(codec.scan_offset(), MAX_FRAME);
        codec.feed(b"\n");
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
    }

    #[test]
    fn payload_boundary_exactly_max_frame_accepted() {
        // The size boundary is payload-based: exactly MAX_FRAME payload
        // bytes + newline is the largest accepted line, fed whole...
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
        // ...or split at the worst spot (payload complete, newline pending).
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME]);
        assert_eq!(codec.next_frame(), Ok(None));
        codec.feed(b"\n");
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), MAX_FRAME);
    }

    #[test]
    fn payload_boundary_max_frame_plus_one_rejected_on_both_paths() {
        // Complete line, one payload byte over the limit.
        let mut codec = FrameCodec::new();
        let mut data = vec![b'x'; MAX_FRAME + 1];
        data.push(b'\n');
        codec.feed(&data);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
        // Partial line: rejected as soon as the payload can no longer fit.
        let mut codec = FrameCodec::new();
        codec.feed(&vec![b'x'; MAX_FRAME + 1]);
        assert_eq!(codec.next_frame(), Err(FrameError::Oversized));
    }

    #[test]
    fn malformed_json_rejected() {
        let err = decode::<ReachRequest>(b"{not json").unwrap_err();
        assert!(matches!(err, FrameError::Malformed(_)));
    }

    #[test]
    fn empty_frame_is_malformed() {
        assert!(decode::<ReachRequest>(b"").is_err());
    }
}
