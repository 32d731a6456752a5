//! Wire protocol: versioned JSON messages, newline-delimited.
//!
//! One request per line, one response per line, UTF-8 JSON. The framing
//! codec accumulates bytes and yields complete frames; partial lines stay
//! buffered, oversized lines are rejected — the classic pitfalls the framing
//! chapter of the Tokio guide warns about, handled explicitly.
//!
//! Every frame goes through one hand-written codec, the `stats` and
//! `registry` payloads included; no protocol type carries a serde derive.
//! The encoder writes straight into the output buffer with the workspace's
//! JSON writers ([`uof_telemetry::json`]). The decoder reads each
//! message's closed key set straight off the workspace's one JSON lexer
//! ([`uof_telemetry::json::Cursor`]) in one linear pass, in any key order,
//! with any whitespace, escapes and unknown keys. It builds no intermediate
//! value tree, recurses no deeper than the schema's fixed shape, skips
//! unknown values iteratively under [`MAX_DEPTH`], and refuses a frame with
//! a typed [`FrameError`].
//!
//! A response body is a floored [`ReachResponse`] for a client, or a shard
//! backend's sub-floor [`ShardPartials`] for the router. Each has its own
//! encoder and decoder, and each decoder refuses the other's frames.

use fbsim_adplatform::reach::PotentialReach;
use reach_cache::CacheStats;
use uof_telemetry::json::{push_i64, push_string, push_u64, Cursor, LexError, Number};
use uof_telemetry::{BucketCount, TraceContext};
use uof_telemetry::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RegistrySnapshot};

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
#[derive(Debug, Clone, PartialEq)]
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
    pub sampled: Option<bool>,
    /// Pipelining extension: a client-chosen request id. A server that
    /// understands ids echoes the id in the response frame (see
    /// [`encode_response_frame`]); responses to id-less requests carry no
    /// id. Absent on v1 frames — they still decode (`None`) and are
    /// answered in arrival order, so pre-pipelining clients and servers
    /// interoperate both ways.
    pub id: Option<u64>,
    /// Sharding extension: `Some(true)` asks a shard-configured backend for
    /// its raw per-chunk partial accumulators, a [`ShardPartials`] frame,
    /// instead of a floored report. Only the router speaks this opcode; a
    /// server **not** running as a shard refuses it, because partials
    /// expose sub-floor audience values that the reporting floor
    /// deliberately hides (the floor is applied once, at the router, after
    /// the merge).
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
    pub trace: Option<TraceContext>,
}

impl ReachRequest {
    /// The current-version request over `locations` and `interests` with
    /// every extension unset: the base every constructor updates.
    fn base(locations: Vec<String>, interests: Vec<u32>) -> Self {
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

    /// A scalar conjunction-reach query.
    pub fn scalar(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self::base(locations, interests)
    }

    /// A nested prefix-sweep query (order of `interests` is significant).
    pub fn nested(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self { nested: Some(true), ..Self::base(locations, interests) }
    }

    /// A cache-statistics probe.
    pub fn stats() -> Self {
        Self { stats: Some(true), ..Self::base(Vec::new(), Vec::new()) }
    }

    /// A telemetry-registry probe (full metrics dump).
    pub fn stats_snapshot() -> Self {
        Self { snapshot: Some(true), ..Self::base(Vec::new(), Vec::new()) }
    }

    /// A sampled conjunction-reach query answered from the server's
    /// bit-packed posting-list index (order-insensitive, like
    /// [`ReachRequest::scalar`]).
    pub fn sampled(locations: Vec<String>, interests: Vec<u32>) -> Self {
        Self { sampled: Some(true), ..Self::base(locations, interests) }
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
        /// Answer with raw per-chunk [`ShardPartials`] instead of a floored
        /// report.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachPoint {
    /// Reported potential reach (floor applied).
    pub reported: u64,
    /// Whether the floor masked a smaller value.
    pub floored: bool,
    /// Whether the "audience too narrow" advisory applies.
    pub too_narrow_warning: bool,
}

impl From<PotentialReach> for ReachPoint {
    fn from(PotentialReach { reported, floored, too_narrow_warning }: PotentialReach) -> Self {
        Self { reported, floored, too_narrow_warning }
    }
}

/// A server's answer to a client: every reach in it is floored.
#[derive(Debug, Clone, PartialEq)]
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
        stats: CacheStats,
    },
    /// The server's full telemetry registry dump: every counter, gauge,
    /// and latency histogram, sorted by name (cache statistics are
    /// mirrored in as `reach_cache.*` gauges at snapshot time).
    StatsSnapshot {
        /// Registry contents at the time of the request.
        registry: RegistrySnapshot,
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
}

/// A shard backend's raw per-chunk partial accumulators, the router's merge
/// input and the only body of a `shard_partials` frame. Only a
/// shard-configured server builds one (raw values are sub-floor; see
/// [`ReachRequest`]'s `shard` field), and only the router reads one. Float
/// partials ride as `f64::to_bits` so the wire is lossless and the router's
/// merge can be bit-identical to a single-node fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartials {
    /// The backend world's [`fbsim_population::World::generation`] the
    /// partials were computed under — the router refuses to merge partials
    /// from mismatched epochs.
    pub generation: u64,
    /// Global chunk indices this shard owns, ascending.
    pub chunks: Vec<u32>,
    /// `values[k]` holds chunk `chunks[k]`'s partials: one `f64::to_bits`
    /// element for a scalar query, one per prefix for a nested query, and
    /// one raw (integer) survivor count for a sampled query.
    pub values: Vec<Vec<u64>>,
}

/// What a connection handler answers a frame with: a client response, or a
/// shard backend's partials. Crate-private, so only the server's own
/// handler can put partials on a socket.
pub(crate) enum Answer {
    Client(ReachResponse),
    Partials(ShardPartials),
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
    /// a missing required key, an unknown `kind`, or a fixed-length array
    /// of the wrong length.
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
/// (pipelining id, server-timing echo). The body is a [`ReachResponse`] on
/// the client hop and [`ShardPartials`] on the shard hop.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame<R = ReachResponse> {
    /// Echoed pipelining id, when the request carried one.
    pub id: Option<u64>,
    /// Server-timing echo, when the request carried a trace context.
    pub server_timing: Option<ServerTiming>,
    /// The response body.
    pub response: R,
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
    write_response(&mut out, id, timing, response);
    out.push(b'\n');
    out
}

/// Encodes a shard backend's partials as one frame, with the same envelope
/// as [`encode_response_frame`]. Only the shard hop carries it.
pub fn encode_partials_frame(
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    partials: &ShardPartials,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    write_partials(&mut out, id, timing, partials);
    out.push(b'\n');
    out
}

/// Appends `answer` as one frame to `out` — how a server batches a read's
/// answers into one write.
pub(crate) fn append_answer_frame(
    out: &mut Vec<u8>,
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    answer: &Answer,
) {
    match answer {
        Answer::Client(response) => write_response(out, id, timing, response),
        Answer::Partials(partials) => write_partials(out, id, timing, partials),
    }
    out.push(b'\n');
}

// ---------------------------------------------------------------- encoder
//
// The byte shape is what `serde_json` renders for derived serde impls of
// these types (the proptests' mirror types): keys in declaration order,
// `None` as `null`, no whitespace, and strings escaped exactly as its
// writer does.

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
    out.extend_from_slice(b",\"locations\":");
    push_array(out, &request.locations, |out, location| push_string(out, location));
    out.extend_from_slice(b",\"interests\":");
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
    write_envelope(out, id, timing);
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
            out.extend_from_slice(b"\"kind\":\"nested\",\"reaches\":");
            push_array(out, reaches, |out, p| {
                out.push(b'{');
                push_point(out, p.reported, p.floored, p.too_narrow_warning);
                out.push(b'}');
            });
        }
        ReachResponse::Stats { stats } => {
            out.extend_from_slice(b"\"kind\":\"stats\",\"stats\":");
            write_cache_stats(out, stats);
        }
        ReachResponse::StatsSnapshot { registry } => {
            out.extend_from_slice(b"\"kind\":\"stats_snapshot\",\"registry\":");
            write_registry(out, registry);
        }
        ReachResponse::SampledReach { reported, floored, too_narrow_warning } => {
            out.extend_from_slice(b"\"kind\":\"sampled_reach\",");
            push_point(out, *reported, *floored, *too_narrow_warning);
        }
    }
    out.push(b'}');
}

fn write_partials(
    out: &mut Vec<u8>,
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    partials: &ShardPartials,
) {
    write_envelope(out, id, timing);
    out.extend_from_slice(b"\"kind\":\"shard_partials\",\"generation\":");
    push_u64(out, partials.generation);
    out.extend_from_slice(b",\"chunks\":");
    push_u32s(out, &partials.chunks);
    out.extend_from_slice(b",\"values\":");
    push_array(out, &partials.values, |out, row| push_array(out, row, |out, &v| push_u64(out, v)));
    out.push(b'}');
}

/// A response object's opening brace and envelope keys.
fn write_envelope(out: &mut Vec<u8>, id: Option<u64>, timing: Option<&ServerTiming>) {
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

/// `,"key":` — a member after the first.
fn push_key(out: &mut Vec<u8>, key: &str) {
    out.push(b',');
    push_string(out, key);
    out.push(b':');
}

/// A `stats` body: [`CacheStats`]' fields in declaration order.
fn write_cache_stats(out: &mut Vec<u8>, s: &CacheStats) {
    out.extend_from_slice(if s.enabled { b"{\"enabled\":true" } else { b"{\"enabled\":false" });
    for (key, n) in [
        ("epoch", s.epoch),
        ("shards", s.shards as u64),
        ("capacity", s.capacity as u64),
        ("entries", s.entries as u64),
        ("hits", s.hits),
        ("misses", s.misses),
        ("single_flight_waits", s.single_flight_waits),
        ("insertions", s.insertions),
        ("evictions", s.evictions),
        ("invalidations", s.invalidations),
        ("prefix_entries", s.prefix_entries as u64),
        ("prefix_hits", s.prefix_hits),
        ("prefix_misses", s.prefix_misses),
        ("prefix_extensions", s.prefix_extensions),
    ] {
        push_key(out, key);
        push_u64(out, n);
    }
    out.push(b'}');
}

/// A `registry` body: [`RegistrySnapshot`]'s three lists, each entry's
/// fields in declaration order.
fn write_registry(out: &mut Vec<u8>, r: &RegistrySnapshot) {
    out.extend_from_slice(b"{\"counters\":");
    push_array(out, &r.counters, |out, c| {
        out.extend_from_slice(b"{\"name\":");
        push_string(out, &c.name);
        push_key(out, "value");
        push_u64(out, c.value);
        out.push(b'}');
    });
    out.extend_from_slice(b",\"gauges\":");
    push_array(out, &r.gauges, |out, g| {
        out.extend_from_slice(b"{\"name\":");
        push_string(out, &g.name);
        push_key(out, "value");
        push_i64(out, g.value);
        out.push(b'}');
    });
    out.extend_from_slice(b",\"histograms\":");
    push_array(out, &r.histograms, |out, h| {
        out.extend_from_slice(b"{\"name\":");
        push_string(out, &h.name);
        push_key(out, "count");
        push_u64(out, h.count);
        push_key(out, "sum");
        push_u64(out, h.sum);
        push_key(out, "buckets");
        push_array(out, &h.buckets, |out, b| {
            out.extend_from_slice(b"{\"le\":");
            push_u64(out, b.le);
            push_key(out, "count");
            push_u64(out, b.count);
            out.push(b'}');
        });
        out.push(b'}');
    });
    out.push(b'}');
}

/// `[item,item,…]`.
#[inline]
fn push_array<T>(out: &mut Vec<u8>, items: &[T], mut item: impl FnMut(&mut Vec<u8>, &T)) {
    out.push(b'[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        item(out, x);
    }
    out.push(b']');
}

fn push_opt_bool(out: &mut Vec<u8>, value: Option<bool>) {
    out.extend_from_slice(match value {
        None => b"null",
        Some(true) => b"true",
        Some(false) => b"false",
    });
}

fn push_u32s(out: &mut Vec<u8>, values: &[u32]) {
    push_array(out, values, |out, &v| push_u64(out, u64::from(v)));
}

// ---------------------------------------------------------------- decoder
//
// The lexer is `uof_telemetry::json::Cursor`, so frames follow JSON's
// grammar exactly; this file is only the schema over it. It accepts any
// key order, unknown keys with any value, `null` for an absent optional
// key, and the whole-number forms `7.0`, `7e0` and `-0`, as the serde path
// does. It refuses, with a typed error, duplicate keys of the schema and
// integers past their type's range, both of which serde_json resolves
// silently (the first key wins; the number saturates through `f64`).

/// Deepest container nesting a frame may contain, the outermost object
/// being depth 1 (the workspace JSON parser's limit, and `serde_json`'s).
/// The schema itself needs 6 (a histogram bucket of a `registry` payload);
/// deeper input can only sit under unknown keys.
pub const MAX_DEPTH: usize = uof_telemetry::json::MAX_DEPTH;

type Decoded<T> = Result<T, FrameError>;

/// 2^64: the smallest whole `f64` that no `u64` holds.
const U64_LIMIT: f64 = 18_446_744_073_709_551_616.0;

/// 2^63: the smallest whole `f64` that no `i64` holds.
const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0;

const INTEGER: &str = "a non-negative integer";

fn wrong(key: &'static str, expected: &'static str) -> FrameError {
    FrameError::WrongType { key, expected }
}

fn missing(key: &'static str) -> FrameError {
    FrameError::Malformed(format!("missing key `{key}`"))
}

impl From<LexError> for FrameError {
    #[inline]
    fn from(e: LexError) -> Self {
        match e {
            LexError::Syntax(m) => FrameError::Malformed(m),
            LexError::InvalidUtf8 { at } => FrameError::InvalidUtf8 { at },
            LexError::TooDeep => FrameError::TooDeep,
        }
    }
}

/// Reads the frame's one top-level object with `read`, then requires the
/// end of the frame.
fn read_frame(frame: &[u8], read: impl FnOnce(&mut Cursor<'_>) -> Decoded<()>) -> Decoded<()> {
    let mut r = Cursor::new(frame);
    r.ws();
    if r.peek() != Some(b'{') {
        return Err(r.syntax("a JSON object").into());
    }
    read(&mut r)?;
    Ok(r.end()?)
}

/// The message schema, read straight off the [`Cursor`]. Each reader
/// starts on its value's first byte.
trait Schema: Sized {
    fn u64(&mut self, key: &'static str) -> Decoded<u64>;
    fn u32(&mut self, key: &'static str) -> Decoded<u32>;
    fn usize(&mut self, key: &'static str) -> Decoded<usize>;
    fn i64(&mut self, key: &'static str) -> Decoded<i64>;
    fn nullable<T>(&mut self, read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Option<T>>;
    fn bool(&mut self, key: &'static str) -> Decoded<bool>;
    fn owned_string(&mut self, key: &'static str) -> Decoded<String>;
    fn list<T>(
        &mut self,
        key: &'static str,
        item: impl FnMut(&mut Self) -> Decoded<T>,
    ) -> Decoded<Vec<T>>;
    fn u64s<const N: usize>(&mut self, key: &'static str) -> Decoded<[u64; N]>;
    fn slot<T>(&mut self, read: impl FnOnce(&mut Self) -> Decoded<T>) -> Decoded<Slot<T>>;
    fn kind(&mut self) -> Decoded<Kind>;
    fn fields(
        &mut self,
        names: &[&'static str],
        required: usize,
        depth: usize,
        read: impl FnMut(&mut Self, &'static str) -> Decoded<()>,
    ) -> Decoded<()>;
    fn trace(&mut self) -> Decoded<Option<TraceContext>>;
    fn timing(&mut self) -> Decoded<Option<ServerTiming>>;
    fn record(
        &mut self,
        key: &'static str,
        names: &[&'static str],
        depth: usize,
        read: impl FnMut(&mut Self, &'static str) -> Decoded<()>,
    ) -> Decoded<()>;
    fn point(&mut self) -> Decoded<ReachPoint>;
    fn cache_stats(&mut self) -> Decoded<CacheStats>;
    fn registry(&mut self) -> Decoded<RegistrySnapshot>;
    fn counter_snapshot(&mut self, list: &'static str) -> Decoded<CounterSnapshot>;
    fn gauge_snapshot(&mut self, list: &'static str) -> Decoded<GaugeSnapshot>;
    fn histogram_snapshot(&mut self, list: &'static str) -> Decoded<HistogramSnapshot>;
    fn bucket(&mut self, list: &'static str) -> Decoded<BucketCount>;
}

impl Schema for Cursor<'_> {
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

    fn usize(&mut self, key: &'static str) -> Decoded<usize> {
        usize::try_from(self.u64(key)?).map_err(|_| FrameError::Overflow { key })
    }

    /// Reads a whole number for `key` in `i64`'s range, in the same forms
    /// as [`Schema::u64`] plus a sign.
    fn i64(&mut self, key: &'static str) -> Decoded<i64> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(wrong(key, "an integer"));
        }
        match self.number()? {
            Number::Int { negative, value: Some(n) } => {
                let n = if negative { 0i64.checked_sub_unsigned(n) } else { i64::try_from(n).ok() };
                n.ok_or(FrameError::Overflow { key })
            }
            Number::Int { value: None, .. } => Err(FrameError::Overflow { key }),
            Number::Float(f) if f.is_finite() && f.trunc() == f => {
                if (-I64_LIMIT..I64_LIMIT).contains(&f) {
                    Ok(f as i64)
                } else {
                    Err(FrameError::Overflow { key })
                }
            }
            _ => Err(wrong(key, "an integer")),
        }
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
        self.array(|r| -> Decoded<()> {
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
        let start = *self;
        match read(self) {
            Ok(value) => Ok(Some(Ok(value))),
            Err(e) => {
                *self = start;
                self.skip_value(1)?;
                Ok(Some(Err(e)))
            }
        }
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
            let Some(k) = names.iter().position(|name| *name == key) else {
                return Ok(r.skip_value(depth)?);
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

    /// Reads an object at `depth` that is an element of the array under
    /// `key`, with every one of `names` required (see [`Schema::fields`]).
    fn record(
        &mut self,
        key: &'static str,
        names: &[&'static str],
        depth: usize,
        read: impl FnMut(&mut Self, &'static str) -> Decoded<()>,
    ) -> Decoded<()> {
        if self.peek() != Some(b'{') {
            return Err(wrong(key, "an array of objects"));
        }
        self.fields(names, names.len(), depth, read)
    }

    /// One [`ReachPoint`] object of a nested answer (depth 3).
    fn point(&mut self) -> Decoded<ReachPoint> {
        let mut p = ReachPoint { reported: 0, floored: false, too_narrow_warning: false };
        self.record("reaches", &["reported", "floored", "too_narrow_warning"], 3, |r, key| {
            match key {
                "reported" => p.reported = r.u64(key)?,
                "floored" => p.floored = r.bool(key)?,
                _ => p.too_narrow_warning = r.bool(key)?,
            }
            Ok(())
        })?;
        Ok(p)
    }

    /// A `stats` payload (depth 2): every [`CacheStats`] field required.
    fn cache_stats(&mut self) -> Decoded<CacheStats> {
        if self.peek() != Some(b'{') {
            return Err(wrong("stats", "an object"));
        }
        let mut s = CacheStats::default();
        self.fields(&CACHE_STATS_KEYS, CACHE_STATS_KEYS.len(), 2, |r, key| {
            match key {
                "enabled" => s.enabled = r.bool(key)?,
                "epoch" => s.epoch = r.u64(key)?,
                "shards" => s.shards = r.usize(key)?,
                "capacity" => s.capacity = r.usize(key)?,
                "entries" => s.entries = r.usize(key)?,
                "hits" => s.hits = r.u64(key)?,
                "misses" => s.misses = r.u64(key)?,
                "single_flight_waits" => s.single_flight_waits = r.u64(key)?,
                "insertions" => s.insertions = r.u64(key)?,
                "evictions" => s.evictions = r.u64(key)?,
                "invalidations" => s.invalidations = r.u64(key)?,
                "prefix_entries" => s.prefix_entries = r.usize(key)?,
                "prefix_hits" => s.prefix_hits = r.u64(key)?,
                "prefix_misses" => s.prefix_misses = r.u64(key)?,
                _ => s.prefix_extensions = r.u64(key)?,
            }
            Ok(())
        })?;
        Ok(s)
    }

    /// A `registry` payload (depth 2; a histogram's buckets reach depth 6).
    fn registry(&mut self) -> Decoded<RegistrySnapshot> {
        if self.peek() != Some(b'{') {
            return Err(wrong("registry", "an object"));
        }
        let mut snap = RegistrySnapshot::default();
        self.fields(&["counters", "gauges", "histograms"], 3, 2, |r, key| {
            match key {
                "counters" => snap.counters = r.list(key, |r| r.counter_snapshot(key))?,
                "gauges" => snap.gauges = r.list(key, |r| r.gauge_snapshot(key))?,
                _ => snap.histograms = r.list(key, |r| r.histogram_snapshot(key))?,
            }
            Ok(())
        })
        .map(|()| snap)
    }

    fn counter_snapshot(&mut self, list: &'static str) -> Decoded<CounterSnapshot> {
        let mut c = CounterSnapshot::default();
        self.record(list, &["name", "value"], 4, |r, key| {
            match key {
                "name" => c.name = r.owned_string(key)?,
                _ => c.value = r.u64(key)?,
            }
            Ok(())
        })
        .map(|()| c)
    }

    fn gauge_snapshot(&mut self, list: &'static str) -> Decoded<GaugeSnapshot> {
        let mut g = GaugeSnapshot::default();
        self.record(list, &["name", "value"], 4, |r, key| {
            match key {
                "name" => g.name = r.owned_string(key)?,
                _ => g.value = r.i64(key)?,
            }
            Ok(())
        })
        .map(|()| g)
    }

    fn histogram_snapshot(&mut self, list: &'static str) -> Decoded<HistogramSnapshot> {
        let mut h = HistogramSnapshot::default();
        self.record(list, &["name", "count", "sum", "buckets"], 4, |r, key| {
            match key {
                "name" => h.name = r.owned_string(key)?,
                "count" => h.count = r.u64(key)?,
                "sum" => h.sum = r.u64(key)?,
                _ => h.buckets = r.list(key, |r| r.bucket(key))?,
            }
            Ok(())
        })
        .map(|()| h)
    }

    fn bucket(&mut self, list: &'static str) -> Decoded<BucketCount> {
        let mut b = BucketCount::default();
        self.record(list, &["le", "count"], 6, |r, key| {
            match key {
                "le" => b.le = r.u64(key)?,
                _ => b.count = r.u64(key)?,
            }
            Ok(())
        })
        .map(|()| b)
    }
}

/// [`CacheStats`]' keys, all required.
const CACHE_STATS_KEYS: [&str; 15] = [
    "enabled",
    "epoch",
    "shards",
    "capacity",
    "entries",
    "hits",
    "misses",
    "single_flight_waits",
    "insertions",
    "evictions",
    "invalidations",
    "prefix_entries",
    "prefix_hits",
    "prefix_misses",
    "prefix_extensions",
];

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
    read_frame(frame, |r| {
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

/// Decodes a client response frame into its body and optional envelope
/// keys.
///
/// # Errors
///
/// A typed [`FrameError`] saying why the frame was refused; a
/// `shard_partials` frame is [`FrameError::Malformed`], since partials
/// never answer a client.
pub fn decode_response_frame(frame: &[u8]) -> Result<ResponseFrame, FrameError> {
    let ResponseFrame { id, server_timing, response } = decode_answer_frame(frame)?;
    match response {
        Answer::Client(response) => Ok(ResponseFrame { id, server_timing, response }),
        Answer::Partials(_) => Err(FrameError::Malformed("shard partials on a client hop".into())),
    }
}

/// Decodes a shard backend's `shard_partials` frame into its body and
/// optional envelope keys.
///
/// # Errors
///
/// A typed [`FrameError`] saying why the frame was refused; a client
/// response frame is [`FrameError::Malformed`].
pub fn decode_partials_frame(frame: &[u8]) -> Result<ResponseFrame<ShardPartials>, FrameError> {
    let ResponseFrame { id, server_timing, response } = decode_answer_frame(frame)?;
    match response {
        Answer::Partials(response) => Ok(ResponseFrame { id, server_timing, response }),
        Answer::Client(_) => Err(FrameError::Malformed("not a shard_partials frame".into())),
    }
}

/// Decodes a response frame of either hop: what a client reads its
/// answers with, before it checks they are the kind it asked for.
pub(crate) fn decode_answer_frame(frame: &[u8]) -> Decoded<ResponseFrame<Answer>> {
    let (mut id, mut st, mut kind) = (None, None, None);
    let (mut reported, mut floored, mut too_narrow_warning): (Slot<u64>, Slot<bool>, Slot<bool>) =
        (None, None, None);
    let (mut retry_after_ms, mut generation): (Slot<u64>, Slot<u64>) = (None, None);
    let mut message: Slot<String> = None;
    let mut reaches: Slot<Vec<ReachPoint>> = None;
    let mut chunks: Slot<Vec<u32>> = None;
    let mut values: Slot<Vec<Vec<u64>>> = None;
    let mut stats: Slot<CacheStats> = None;
    let mut registry: Slot<RegistrySnapshot> = None;
    read_frame(frame, |r| {
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
                "reaches" => reaches = r.slot(|r| r.list(key, Cursor::point))?,
                "stats" => stats = r.slot(Cursor::cache_stats)?,
                "registry" => registry = r.slot(Cursor::registry)?,
                "generation" => generation = r.slot(|r| r.u64(key))?,
                "chunks" => chunks = r.slot(|r| r.list(key, |r| r.u32(key)))?,
                _ => values = r.slot(|r| r.list(key, |r| r.list(key, |r| r.u64(key))))?,
            }
            Ok(())
        })
    })?;
    let response = match kind.ok_or_else(|| missing("kind"))? {
        Kind::ShardPartials => {
            return Ok(ResponseFrame {
                id,
                server_timing: st,
                response: Answer::Partials(ShardPartials {
                    generation: need(generation, "generation")?,
                    chunks: need(chunks, "chunks")?,
                    values: need(values, "values")?,
                }),
            })
        }
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
        Kind::Stats => ReachResponse::Stats { stats: need(stats, "stats")? },
        Kind::StatsSnapshot => {
            ReachResponse::StatsSnapshot { registry: need(registry, "registry")? }
        }
        Kind::SampledReach => ReachResponse::SampledReach {
            reported: need(reported, "reported")?,
            floored: need(floored, "floored")?,
            too_narrow_warning: need(too_narrow_warning, "too_narrow_warning")?,
        },
    };
    Ok(ResponseFrame { id, server_timing: st, response: Answer::Client(response) })
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
        let partials = ShardPartials {
            generation: 3,
            chunks: vec![0, 2, 5],
            values: vec![
                vec![1.5f64.to_bits()],
                vec![0.0f64.to_bits()],
                vec![123.456f64.to_bits()],
            ],
        };
        let frame = encode_partials_frame(Some(9), None, &partials);
        let decoded = decode_partials_frame(&frame[..frame.len() - 1]).unwrap();
        assert_eq!(decoded.id, Some(9));
        assert_eq!(decoded.response, partials);
        // Each hop's decoder refuses the other hop's frames.
        assert_eq!(
            decode_response_frame(&frame),
            Err(FrameError::Malformed("shard partials on a client hop".into()))
        );
        let reach = ReachResponse::Reach { reported: 20, floored: true, too_narrow_warning: true };
        assert_eq!(
            decode_partials_frame(&encode_response_frame(Some(9), None, &reach)),
            Err(FrameError::Malformed("not a shard_partials frame".into()))
        );
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
