//! Property-based tests of the wire protocol, and the differential check
//! of its hand-written codec against the serde path it replaced.
//!
//! The reference is `serde_json` over serde-derived mirrors of the
//! protocol types (the production types carry no serde), plus the envelope
//! the wire used around it: `"id":N,` and `"st":[…],` spliced in front of
//! the response body on encode, and on decode a second parse for `id` and
//! the timing echo `st` (the compact array; the trace context is the
//! compact pair likewise). Response frames have two bodies, a client's
//! [`ReachResponse`] and a shard backend's [`ShardPartials`], each with
//! its own encoder and decoder; the reference knows them as one tagged
//! enum, and each decoder must refuse the other's frames.
//!
//! The codec must write the reference's bytes exactly and accept exactly
//! the frames the reference accepts, with the same values. The only frames
//! it may refuse that the reference accepted are listed in
//! [`allowed_disagreement`]. Nesting depth is not among them: both sides
//! cap it at the same `MAX_DEPTH`, and the corpus checks that they agree at
//! the cap.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::prelude::*;
use reach_api::proto::{
    append_request_frame, decode, decode_partials_frame, decode_response_frame, encode,
    encode_partials_frame, encode_response_frame, FrameCodec, FrameError, ReachPoint, ReachRequest,
    ReachResponse, ResponseFrame, ServerTiming, ShardPartials, MAX_DEPTH,
};
use reach_cache::CacheStats;
use uof_telemetry::{
    BucketCount, CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RegistrySnapshot, TraceContext,
};

proptest! {
    #[test]
    fn request_round_trips(
        v in 0u32..5,
        locations in prop::collection::vec("[A-Z]{2}", 0..10),
        interests in prop::collection::vec(any::<u32>(), 0..30),
        has_id in any::<bool>(),
        raw_id in any::<u64>(),
        has_trace in any::<bool>(),
        trace_id in any::<u64>(),
        parent_span_id in any::<u64>(),
    ) {
        let id = has_id.then_some(raw_id);
        let trace = has_trace.then_some(TraceContext { trace_id, parent_span_id });
        let request =
            ReachRequest {
                v,
                locations,
                interests,
                nested: None,
                stats: None,
                snapshot: None,
                sampled: None,
                id,
                shard: None,
                trace,
            };
        let frame = encode(&request);
        let back: ReachRequest = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back, request);
    }

    #[test]
    fn codec_reassembles_arbitrary_chunking(
        requests in prop::collection::vec(prop::collection::vec(any::<u32>(), 0..10), 1..6),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        let originals: Vec<ReachRequest> = requests
            .into_iter()
            .map(|interests| ReachRequest {
                v: 1,
                locations: vec!["US".into()],
                interests,
                nested: None,
                stats: None,
                snapshot: None,
                sampled: None,
                id: None,
                shard: None,
                trace: None,
            })
            .collect();
        for r in &originals {
            wire.extend(encode(r));
        }
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            codec.feed(piece);
            while let Some(frame) = codec.next_frame().unwrap() {
                decoded.push(decode::<ReachRequest>(&frame).unwrap());
            }
        }
        prop_assert_eq!(decoded, originals);
    }

    #[test]
    fn responses_round_trip(reported in any::<u64>(), floored: bool, warn: bool) {
        let response = ReachResponse::Reach { reported, floored, too_narrow_warning: warn };
        let frame = encode(&response);
        let back: ReachResponse = decode(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back, response);
    }

    #[test]
    fn response_frames_round_trip_any_id_and_timing(
        reported in any::<u64>(),
        has_id in any::<bool>(),
        raw_id in any::<u64>(),
        has_timing in any::<bool>(),
        queue_ns in any::<u64>(),
        handler_ns in any::<u64>(),
        cache_hit in any::<bool>(),
        engine_ns in any::<u64>(),
    ) {
        let id = has_id.then_some(raw_id);
        let timing =
            has_timing.then_some(ServerTiming { queue_ns, handler_ns, cache_hit, engine_ns });
        let response =
            ReachResponse::Reach { reported, floored: false, too_narrow_warning: false };
        let frame = encode_response_frame(id, timing.as_ref(), &response);
        let back = decode_response_frame(&frame[..frame.len() - 1]).unwrap();
        prop_assert_eq!(back.id, id);
        prop_assert_eq!(back.server_timing, timing);
        prop_assert_eq!(back.response, response);
    }

    #[test]
    fn garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..200)) {
        let mut codec = FrameCodec::new();
        codec.feed(&data);
        // Draining frames and decoding them must never panic.
        while let Ok(Some(frame)) = codec.next_frame() {
            let _ = decode::<ReachRequest>(&frame);
        }
    }
}

// ------------------------------------------------------------- reference
//
// The production types carry no serde derives. The reference derives them
// on mirror types here instead: the same names, fields and field order, so
// `serde_json` renders each exactly as it rendered the production types
// when they carried the derives. `From` conversions map the production
// values onto their mirrors, and the two paths are compared there.

/// [`ReachRequest`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefRequest {
    v: u32,
    locations: Vec<String>,
    interests: Vec<u32>,
    nested: Option<bool>,
    stats: Option<bool>,
    snapshot: Option<bool>,
    sampled: Option<bool>,
    id: Option<u64>,
    shard: Option<bool>,
    trace: Option<RefTrace>,
}

/// [`TraceContext`]'s mirror: the compact pair `[trace_id, parent_span_id]`.
#[derive(Debug, PartialEq)]
struct RefTrace(TraceContext);

impl serde::Serialize for RefTrace {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Array(vec![Value::U64(self.0.trace_id), Value::U64(self.0.parent_span_id)])
    }
}

impl<'de> serde::Deserialize<'de> for RefTrace {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Array(items) if items.len() == 2 => Ok(RefTrace(TraceContext {
                trace_id: u64::from_value(&items[0])?,
                parent_span_id: u64::from_value(&items[1])?,
            })),
            other => Err(serde::Error::msg(format!("not a trace context: {other:?}"))),
        }
    }
}

/// [`ReachPoint`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefPoint {
    reported: u64,
    floored: bool,
    too_narrow_warning: bool,
}

/// Both hops' response bodies in one internally tagged enum: the
/// [`ReachResponse`] variants, then [`ShardPartials`].
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
enum RefResponse {
    Reach { reported: u64, floored: bool, too_narrow_warning: bool },
    RateLimited { retry_after_ms: u64 },
    Error { message: String },
    Nested { reaches: Vec<RefPoint> },
    Stats { stats: RefCacheStats },
    StatsSnapshot { registry: RefRegistry },
    SampledReach { reported: u64, floored: bool, too_narrow_warning: bool },
    ShardPartials { generation: u64, chunks: Vec<u32>, values: Vec<Vec<u64>> },
}

/// [`CacheStats`]' mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefCacheStats {
    enabled: bool,
    epoch: u64,
    shards: usize,
    capacity: usize,
    entries: usize,
    hits: u64,
    misses: u64,
    single_flight_waits: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
    prefix_entries: usize,
    prefix_hits: u64,
    prefix_misses: u64,
    prefix_extensions: u64,
}

/// [`RegistrySnapshot`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefRegistry {
    counters: Vec<RefCounter>,
    gauges: Vec<RefGauge>,
    histograms: Vec<RefHistogram>,
}

/// [`CounterSnapshot`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefCounter {
    name: String,
    value: u64,
}

/// [`GaugeSnapshot`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefGauge {
    name: String,
    value: i64,
}

/// [`HistogramSnapshot`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefHistogram {
    name: String,
    count: u64,
    sum: u64,
    buckets: Vec<RefBucket>,
}

/// [`BucketCount`]'s mirror.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
struct RefBucket {
    le: u64,
    count: u64,
}

impl From<&ReachRequest> for RefRequest {
    fn from(r: &ReachRequest) -> Self {
        RefRequest {
            v: r.v,
            locations: r.locations.clone(),
            interests: r.interests.clone(),
            nested: r.nested,
            stats: r.stats,
            snapshot: r.snapshot,
            sampled: r.sampled,
            id: r.id,
            shard: r.shard,
            trace: r.trace.map(RefTrace),
        }
    }
}

impl From<&Body> for RefResponse {
    fn from(body: &Body) -> Self {
        let response = match body {
            Body::Client(response) => response,
            Body::Partials(p) => {
                return RefResponse::ShardPartials {
                    generation: p.generation,
                    chunks: p.chunks.clone(),
                    values: p.values.clone(),
                }
            }
        };
        match response.clone() {
            ReachResponse::Reach { reported, floored, too_narrow_warning } => {
                RefResponse::Reach { reported, floored, too_narrow_warning }
            }
            ReachResponse::RateLimited { retry_after_ms } => {
                RefResponse::RateLimited { retry_after_ms }
            }
            ReachResponse::Error { message } => RefResponse::Error { message },
            ReachResponse::Nested { reaches } => RefResponse::Nested {
                reaches: reaches
                    .into_iter()
                    .map(|p| RefPoint {
                        reported: p.reported,
                        floored: p.floored,
                        too_narrow_warning: p.too_narrow_warning,
                    })
                    .collect(),
            },
            ReachResponse::Stats { stats } => RefResponse::Stats { stats: stats.into() },
            ReachResponse::StatsSnapshot { registry } => {
                RefResponse::StatsSnapshot { registry: registry.into() }
            }
            ReachResponse::SampledReach { reported, floored, too_narrow_warning } => {
                RefResponse::SampledReach { reported, floored, too_narrow_warning }
            }
        }
    }
}

impl From<CacheStats> for RefCacheStats {
    fn from(s: CacheStats) -> Self {
        RefCacheStats {
            enabled: s.enabled,
            epoch: s.epoch,
            shards: s.shards,
            capacity: s.capacity,
            entries: s.entries,
            hits: s.hits,
            misses: s.misses,
            single_flight_waits: s.single_flight_waits,
            insertions: s.insertions,
            evictions: s.evictions,
            invalidations: s.invalidations,
            prefix_entries: s.prefix_entries,
            prefix_hits: s.prefix_hits,
            prefix_misses: s.prefix_misses,
            prefix_extensions: s.prefix_extensions,
        }
    }
}

impl From<RegistrySnapshot> for RefRegistry {
    fn from(r: RegistrySnapshot) -> Self {
        RefRegistry {
            counters: r
                .counters
                .into_iter()
                .map(|c| RefCounter { name: c.name, value: c.value })
                .collect(),
            gauges: r
                .gauges
                .into_iter()
                .map(|g| RefGauge { name: g.name, value: g.value })
                .collect(),
            histograms: r
                .histograms
                .into_iter()
                .map(|h| RefHistogram {
                    name: h.name,
                    count: h.count,
                    sum: h.sum,
                    buckets: h
                        .buckets
                        .into_iter()
                        .map(|b| RefBucket { le: b.le, count: b.count })
                        .collect(),
                })
                .collect(),
        }
    }
}

/// A response frame's body on either hop: a client response, or a shard
/// backend's partials.
#[derive(Debug, Clone, PartialEq)]
enum Body {
    Client(ReachResponse),
    Partials(ShardPartials),
}

/// A frame's body mapped onto the reference's mirror.
fn mirror(f: &ResponseFrame<Body>) -> ResponseFrame<RefResponse> {
    ResponseFrame { id: f.id, server_timing: f.server_timing, response: (&f.response).into() }
}

/// Encodes `body` with its hop's encoder.
fn encode_body(id: Option<u64>, timing: Option<&ServerTiming>, body: &Body) -> Vec<u8> {
    match body {
        Body::Client(response) => encode_response_frame(id, timing, response),
        Body::Partials(partials) => encode_partials_frame(id, timing, partials),
    }
}

/// Decodes `frame` with whichever hop's decoder accepts it; each refuses
/// the other's frames, so at most one does.
fn decode_body(frame: &[u8]) -> Result<ResponseFrame<Body>, FrameError> {
    match (decode_response_frame(frame), decode_partials_frame(frame)) {
        (Ok(f), Err(_)) => Ok(ResponseFrame {
            id: f.id,
            server_timing: f.server_timing,
            response: Body::Client(f.response),
        }),
        (Err(_), Ok(f)) => Ok(ResponseFrame {
            id: f.id,
            server_timing: f.server_timing,
            response: Body::Partials(f.response),
        }),
        (Err(e), Err(_)) => Err(e),
        (Ok(client), Ok(partials)) => panic!("both hops accepted {client:?} / {partials:?}"),
    }
}

/// The reference encoder: `serde_json` plus the id/`st` envelope splice.
fn reference_response_frame(
    id: Option<u64>,
    timing: Option<&ServerTiming>,
    body: &Body,
) -> Vec<u8> {
    let body = serde_json::to_vec(&RefResponse::from(body)).unwrap();
    let mut out = b"{".to_vec();
    if let Some(id) = id {
        out.extend_from_slice(format!("\"id\":{id},").as_bytes());
    }
    if let Some(t) = timing {
        let hit = u8::from(t.cache_hit);
        let st = format!("\"st\":[{},{},{hit},{}],", t.queue_ns, t.handler_ns, t.engine_ns);
        out.extend_from_slice(st.as_bytes());
    }
    out.extend_from_slice(&body[1..]);
    out.push(b'\n');
    out
}

/// The timing echo as the serde path decoded it.
struct RefTiming(ServerTiming);

impl<'de> serde::Deserialize<'de> for RefTiming {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        use serde::Value;
        match value {
            Value::Array(items) if items.len() == 4 => Ok(RefTiming(ServerTiming {
                queue_ns: u64::from_value(&items[0])?,
                handler_ns: u64::from_value(&items[1])?,
                cache_hit: u64::from_value(&items[2])? != 0,
                engine_ns: u64::from_value(&items[3])?,
            })),
            other => Err(serde::Error::msg(format!("not a server timing: {other:?}"))),
        }
    }
}

/// The envelope keys, read by a second parse of the frame.
#[derive(serde::Deserialize)]
struct RefEnvelope {
    id: Option<u64>,
    st: Option<RefTiming>,
}

fn reference_decode_response(frame: &[u8]) -> Result<ResponseFrame<RefResponse>, serde::Error> {
    let envelope: RefEnvelope = serde_json::from_slice(frame)?;
    let response: RefResponse = serde_json::from_slice(frame)?;
    let server_timing = envelope.st.map(|t| t.0);
    Ok(ResponseFrame { id: envelope.id, server_timing, response })
}

/// The frames the codec refuses although the serde path accepted them:
///
/// 1. a key of the schema given twice — serde kept the first value and
///    silently dropped the rest;
/// 2. an integer past its type's range (`u64`, or `i64` for a gauge) —
///    serde read it through `f64` and saturated it, silently changing the
///    value.
fn allowed_disagreement(error: &FrameError) -> bool {
    matches!(error, FrameError::DuplicateKey(_) | FrameError::Overflow { .. })
}

/// Decodes `frame` as both messages on both paths and checks they agree.
fn agree(frame: &[u8]) -> Result<(), TestCaseError> {
    let shown = String::from_utf8_lossy(frame);
    match (decode::<ReachRequest>(frame), serde_json::from_slice::<RefRequest>(frame)) {
        (Ok(ours), Ok(theirs)) => {
            prop_assert_eq!(RefRequest::from(&ours), theirs, "request {}", shown)
        }
        (Ok(ours), Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "accepted {ours:?}, serde refused ({e}): {shown}"
            )))
        }
        (Err(e), Ok(_)) => prop_assert!(allowed_disagreement(&e), "refused ({e:?}): {shown}"),
        (Err(_), Err(_)) => {}
    }
    match (decode_body(frame), reference_decode_response(frame)) {
        (Ok(ours), Ok(theirs)) => prop_assert_eq!(mirror(&ours), theirs, "response {}", shown),
        (Ok(ours), Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "accepted {ours:?}, serde refused ({e}): {shown}"
            )))
        }
        (Err(e), Ok(_)) => prop_assert!(allowed_disagreement(&e), "refused ({e:?}): {shown}"),
        (Err(_), Err(_)) => {}
    }
    Ok(())
}

// ------------------------------------------------------------ generators

/// Characters that stress string escaping: quotes, backslashes, every
/// short escape, other controls, DEL, and multi-byte UTF-8.
const CHARS: [char; 16] = [
    'U', 's', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
    '\u{2028}', '😀',
];

fn text(rng: &mut StdRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| if rng.gen_bool(0.5) { 'A' } else { CHARS[rng.gen_range(0..CHARS.len())] })
        .collect()
}

fn big(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..10u64),
        1 => u64::MAX - rng.gen_range(0..3u64),
        _ => rng.gen::<u64>() >> rng.gen_range(0..64u32),
    }
}

fn opt_bool(rng: &mut StdRng) -> Option<bool> {
    [None, Some(true), Some(false)][rng.gen_range(0..3usize)]
}

fn gen_request(rng: &mut StdRng) -> ReachRequest {
    ReachRequest {
        v: if rng.gen_bool(0.8) { 1 } else { rng.gen::<u32>() },
        locations: (0..rng.gen_range(0..4)).map(|_| text(rng, 4)).collect(),
        interests: (0..rng.gen_range(0..6)).map(|_| big(rng) as u32).collect(),
        nested: opt_bool(rng),
        stats: opt_bool(rng),
        snapshot: opt_bool(rng),
        sampled: opt_bool(rng),
        id: rng.gen_bool(0.5).then(|| big(rng)),
        shard: opt_bool(rng),
        trace: rng
            .gen_bool(0.5)
            .then(|| TraceContext { trace_id: big(rng), parent_span_id: big(rng) }),
    }
}

fn gen_timing(rng: &mut StdRng) -> ServerTiming {
    ServerTiming {
        queue_ns: big(rng),
        handler_ns: big(rng),
        cache_hit: rng.gen(),
        engine_ns: big(rng),
    }
}

fn gen_response(rng: &mut StdRng) -> Body {
    let point = |rng: &mut StdRng| ReachPoint {
        reported: big(rng),
        floored: rng.gen(),
        too_narrow_warning: rng.gen(),
    };
    Body::Client(match rng.gen_range(0..8u32) {
        0 => {
            let p = point(rng);
            ReachResponse::Reach {
                reported: p.reported,
                floored: p.floored,
                too_narrow_warning: p.too_narrow_warning,
            }
        }
        1 => ReachResponse::RateLimited { retry_after_ms: big(rng) },
        2 => ReachResponse::Error { message: text(rng, 12) },
        3 => ReachResponse::Nested {
            reaches: (0..rng.gen_range(0..26)).map(|_| point(rng)).collect(),
        },
        4 => ReachResponse::Stats { stats: gen_cache_stats(rng) },
        5 => ReachResponse::StatsSnapshot { registry: gen_registry(rng) },
        6 => {
            let p = point(rng);
            ReachResponse::SampledReach {
                reported: p.reported,
                floored: p.floored,
                too_narrow_warning: p.too_narrow_warning,
            }
        }
        _ => {
            let chunks: Vec<u32> = (0..rng.gen_range(0..4)).map(|_| big(rng) as u32).collect();
            let values = chunks
                .iter()
                .map(|_| (0..rng.gen_range(0..4)).map(|_| big(rng)).collect())
                .collect();
            return Body::Partials(ShardPartials { generation: big(rng), chunks, values });
        }
    })
}

fn gen_cache_stats(rng: &mut StdRng) -> CacheStats {
    CacheStats {
        enabled: rng.gen(),
        epoch: big(rng),
        shards: big(rng) as usize,
        capacity: big(rng) as usize,
        entries: big(rng) as usize,
        hits: big(rng),
        misses: big(rng),
        single_flight_waits: big(rng),
        insertions: big(rng),
        evictions: big(rng),
        invalidations: big(rng),
        prefix_entries: big(rng) as usize,
        prefix_hits: big(rng),
        prefix_misses: big(rng),
        prefix_extensions: big(rng),
    }
}

/// A registry dump with hostile names and gauges of either sign,
/// `i64::MIN` and `i64::MAX` included.
fn gen_registry(rng: &mut StdRng) -> RegistrySnapshot {
    RegistrySnapshot {
        counters: (0..rng.gen_range(0..4))
            .map(|_| CounterSnapshot { name: text(rng, 8), value: big(rng) })
            .collect(),
        gauges: (0..rng.gen_range(0..4))
            .map(|_| GaugeSnapshot { name: text(rng, 8), value: big(rng) as i64 })
            .collect(),
        histograms: (0..rng.gen_range(0..3))
            .map(|_| HistogramSnapshot {
                name: text(rng, 8),
                count: big(rng),
                sum: big(rng),
                buckets: (0..rng.gen_range(0..5))
                    .map(|_| BucketCount { le: big(rng), count: big(rng) })
                    .collect(),
            })
            .collect(),
    }
}

// ------------------------------------------------- hand-written JSON frames

/// A JSON value to render with random (but valid) spelling.
enum J {
    Null,
    Bool(bool),
    Int(u64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
    /// Text copied as is (a number form `Int` does not cover).
    Raw(String),
}

const WS: [&str; 5] = ["", "", " ", "\t", "\r\n "];

fn ws(rng: &mut StdRng, out: &mut String) {
    out.push_str(WS[rng.gen_range(0..WS.len())]);
}

/// Writes `s` as a JSON string, escaping what must be escaped and, at
/// random, anything else as `\uXXXX` (a surrogate pair outside the BMP).
fn render_str(rng: &mut StdRng, s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        let must = c == '"' || c == '\\' || (c as u32) < 0x20;
        if !must && !rng.gen_bool(0.2) {
            out.push(c);
            continue;
        }
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\r' => Some("\\r"),
            '\t' => Some("\\t"),
            '\u{8}' => Some("\\b"),
            '\u{c}' => Some("\\f"),
            _ => None,
        };
        match short {
            Some(esc) if rng.gen_bool(0.5) => out.push_str(esc),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let hex = format!("\\u{:04x}", unit);
                    out.push_str(&if rng.gen_bool(0.5) {
                        hex.to_uppercase().replace("\\U", "\\u")
                    } else {
                        hex
                    });
                }
            }
        }
    }
    out.push('"');
}

/// Writes `n` in one of the JSON number forms serde_json reads as a whole
/// number.
fn render_int(rng: &mut StdRng, n: u64, out: &mut String) {
    let exact = n < 1 << 53;
    match rng.gen_range(0..5u32) {
        0 if exact => out.push_str(&format!("{n}.0")),
        1 if exact => out.push_str(&format!("{n}e0")),
        2 if exact && n > 0 => out.push_str(&format!("{}E+1", n as f64 / 10.0)),
        3 if n == 0 => out.push_str("-0"),
        _ => out.push_str(&n.to_string()),
    }
}

fn render(rng: &mut StdRng, j: &J, out: &mut String) {
    match j {
        J::Null => out.push_str("null"),
        J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        J::Int(n) => render_int(rng, *n, out),
        J::Str(s) => render_str(rng, s, out),
        J::Raw(text) => out.push_str(text),
        J::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                ws(rng, out);
                if i > 0 {
                    out.push(',');
                    ws(rng, out);
                }
                render(rng, item, out);
            }
            ws(rng, out);
            out.push(']');
        }
        J::Obj(pairs) => {
            out.push('{');
            for (i, (key, value)) in pairs.iter().enumerate() {
                ws(rng, out);
                if i > 0 {
                    out.push(',');
                    ws(rng, out);
                }
                render_str(rng, key, out);
                ws(rng, out);
                out.push(':');
                ws(rng, out);
                render(rng, value, out);
            }
            ws(rng, out);
            out.push('}');
        }
    }
}

/// Any JSON value, at most `depth` containers deep.
fn junk(rng: &mut StdRng, depth: u32) -> J {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => J::Null,
        1 => J::Bool(rng.gen()),
        2 => J::Int(big(rng)),
        3 => J::Str(text(rng, 6)),
        4 => {
            J::Raw(["-3", "1.5e-7", "-0.25", "1e400", "[]", "{}"][rng.gen_range(0..6usize)].into())
        }
        5 => J::Arr((0..rng.gen_range(0..4)).map(|_| junk(rng, depth - 1)).collect()),
        _ => J::Obj(
            (0..rng.gen_range(0..4)).map(|k| (format!("k{k}"), junk(rng, depth - 1))).collect(),
        ),
    }
}

/// Renders `pairs` as a top-level object with shuffled keys, unknown keys
/// mixed in, and `None` fields either `null` or left out.
fn frame_of(rng: &mut StdRng, pairs: Vec<(&str, Option<J>)>) -> Vec<u8> {
    let mut object: Vec<(String, J)> = Vec::new();
    for (key, value) in pairs {
        match value {
            Some(value) => object.push((key.into(), value)),
            None if rng.gen_bool(0.5) => object.push((key.into(), J::Null)),
            None => {}
        }
    }
    for k in 0..rng.gen_range(0..3) {
        object.push((format!("x-unknown-{k}"), junk(rng, 3)));
    }
    object.shuffle(rng);
    let mut out = String::new();
    ws(rng, &mut out);
    render(rng, &J::Obj(object), &mut out);
    ws(rng, &mut out);
    out.into_bytes()
}

fn ints(values: &[u64]) -> J {
    J::Arr(values.iter().map(|&v| J::Int(v)).collect())
}

/// An object of `pairs` in random key order, now and then with an
/// unknown key mixed in.
fn obj(rng: &mut StdRng, mut pairs: Vec<(&str, J)>) -> J {
    if rng.gen_bool(0.25) {
        pairs.push(("x-extra", junk(rng, 2)));
    }
    pairs.shuffle(rng);
    J::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A signed integer: negative ones as plain digits after a minus.
fn signed(n: i64) -> J {
    if n < 0 {
        J::Raw(n.to_string())
    } else {
        J::Int(n as u64)
    }
}

fn stats_json(rng: &mut StdRng, s: &CacheStats) -> J {
    let size = |n: usize| J::Int(n as u64);
    let pairs = vec![
        ("enabled", J::Bool(s.enabled)),
        ("epoch", J::Int(s.epoch)),
        ("shards", size(s.shards)),
        ("capacity", size(s.capacity)),
        ("entries", size(s.entries)),
        ("hits", J::Int(s.hits)),
        ("misses", J::Int(s.misses)),
        ("single_flight_waits", J::Int(s.single_flight_waits)),
        ("insertions", J::Int(s.insertions)),
        ("evictions", J::Int(s.evictions)),
        ("invalidations", J::Int(s.invalidations)),
        ("prefix_entries", size(s.prefix_entries)),
        ("prefix_hits", J::Int(s.prefix_hits)),
        ("prefix_misses", J::Int(s.prefix_misses)),
        ("prefix_extensions", J::Int(s.prefix_extensions)),
    ];
    obj(rng, pairs)
}

fn registry_json(rng: &mut StdRng, r: &RegistrySnapshot) -> J {
    let counters = r
        .counters
        .iter()
        .map(|c| obj(rng, vec![("name", J::Str(c.name.clone())), ("value", J::Int(c.value))]))
        .collect();
    let gauges = r
        .gauges
        .iter()
        .map(|g| obj(rng, vec![("name", J::Str(g.name.clone())), ("value", signed(g.value))]))
        .collect();
    let histograms = r
        .histograms
        .iter()
        .map(|h| {
            let buckets = h
                .buckets
                .iter()
                .map(|b| obj(rng, vec![("le", J::Int(b.le)), ("count", J::Int(b.count))]))
                .collect();
            let pairs = vec![
                ("name", J::Str(h.name.clone())),
                ("count", J::Int(h.count)),
                ("sum", J::Int(h.sum)),
                ("buckets", J::Arr(buckets)),
            ];
            obj(rng, pairs)
        })
        .collect();
    let pairs = vec![
        ("counters", J::Arr(counters)),
        ("gauges", J::Arr(gauges)),
        ("histograms", J::Arr(histograms)),
    ];
    obj(rng, pairs)
}

fn timing_json(rng: &mut StdRng, t: &ServerTiming) -> J {
    let hit = if t.cache_hit { rng.gen_range(1..9u64) } else { 0 };
    ints(&[t.queue_ns, t.handler_ns, hit, t.engine_ns])
}

fn request_frame(rng: &mut StdRng, r: &ReachRequest) -> Vec<u8> {
    let flag = |b: Option<bool>| b.map(J::Bool);
    let interests: Vec<u64> = r.interests.iter().map(|&i| u64::from(i)).collect();
    let trace = r.trace.map(|t| ints(&[t.trace_id, t.parent_span_id]));
    let pairs = vec![
        ("v", Some(J::Int(u64::from(r.v)))),
        ("locations", Some(J::Arr(r.locations.iter().map(|l| J::Str(l.clone())).collect()))),
        ("interests", Some(ints(&interests))),
        ("nested", flag(r.nested)),
        ("stats", flag(r.stats)),
        ("snapshot", flag(r.snapshot)),
        ("sampled", flag(r.sampled)),
        ("id", r.id.map(J::Int)),
        ("shard", flag(r.shard)),
        ("trace", trace),
    ];
    frame_of(rng, pairs)
}

fn point_fields(reported: u64, floored: bool, warn: bool) -> Vec<(&'static str, J)> {
    vec![
        ("reported", J::Int(reported)),
        ("floored", J::Bool(floored)),
        ("too_narrow_warning", J::Bool(warn)),
    ]
}

/// Every variant field name: keys of other variants ride along as strays.
const VARIANT_KEYS: [&str; 11] = [
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

fn response_frame(rng: &mut StdRng, f: &ResponseFrame<Body>) -> Vec<u8> {
    let response = match &f.response {
        Body::Client(response) => response,
        Body::Partials(ShardPartials { generation, chunks, values }) => {
            let chunks: Vec<u64> = chunks.iter().map(|&c| u64::from(c)).collect();
            let fields = vec![
                ("generation", J::Int(*generation)),
                ("chunks", ints(&chunks)),
                ("values", J::Arr(values.iter().map(|row| ints(row)).collect())),
            ];
            return envelope_frame(rng, f, "shard_partials", fields);
        }
    };
    let (kind, fields) = match response {
        ReachResponse::Reach { reported, floored, too_narrow_warning } => {
            ("reach", point_fields(*reported, *floored, *too_narrow_warning))
        }
        ReachResponse::SampledReach { reported, floored, too_narrow_warning } => {
            ("sampled_reach", point_fields(*reported, *floored, *too_narrow_warning))
        }
        ReachResponse::RateLimited { retry_after_ms } => {
            ("rate_limited", vec![("retry_after_ms", J::Int(*retry_after_ms))])
        }
        ReachResponse::Error { message } => ("error", vec![("message", J::Str(message.clone()))]),
        ReachResponse::Nested { reaches } => {
            let points = reaches
                .iter()
                .map(|p| obj(rng, point_fields(p.reported, p.floored, p.too_narrow_warning)))
                .collect();
            ("nested", vec![("reaches", J::Arr(points))])
        }
        ReachResponse::Stats { stats } => ("stats", vec![("stats", stats_json(rng, stats))]),
        ReachResponse::StatsSnapshot { registry } => {
            ("stats_snapshot", vec![("registry", registry_json(rng, registry))])
        }
    };
    envelope_frame(rng, f, kind, fields)
}

/// Renders a response frame of `kind` with `fields`, a stray variant key
/// now and then, and `f`'s envelope.
fn envelope_frame(
    rng: &mut StdRng,
    f: &ResponseFrame<Body>,
    kind: &str,
    fields: Vec<(&'static str, J)>,
) -> Vec<u8> {
    let strays: Vec<&str> =
        VARIANT_KEYS.into_iter().filter(|k| fields.iter().all(|(f, _)| f != k)).collect();
    let stray = strays[rng.gen_range(0..strays.len())];
    let mut pairs = vec![("kind", Some(J::Str(kind.into())))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k, Some(v))));
    if rng.gen_bool(0.5) {
        pairs.push((stray, Some(junk(rng, 2))));
    }
    pairs.push(("id", f.id.map(J::Int)));
    if let Some(t) = f.server_timing {
        pairs.push(("st", Some(timing_json(rng, &t))));
    }
    if rng.gen_bool(0.25) {
        // The retired named key is no envelope key: both paths skip it.
        let decoy = gen_timing(rng);
        pairs.push(("server_timing", Some(timing_json(rng, &decoy))));
    }
    frame_of(rng, pairs)
}

// ----------------------------------------------------------- properties

proptest! {
    #[test]
    fn encoder_writes_the_serde_bytes(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = gen_request(&mut rng);
        let mut want = serde_json::to_vec(&RefRequest::from(&request)).unwrap();
        want.push(b'\n');
        prop_assert_eq!(encode(&request), want);
        let response = gen_response(&mut rng);
        for (id, timing) in [
            (None, None),
            (Some(big(&mut rng)), None),
            (None, Some(gen_timing(&mut rng))),
            (Some(big(&mut rng)), Some(gen_timing(&mut rng))),
        ] {
            let frame = encode_body(id, timing.as_ref(), &response);
            prop_assert_eq!(
                String::from_utf8(frame.clone()).unwrap(),
                String::from_utf8(reference_response_frame(id, timing.as_ref(), &response)).unwrap()
            );
            let back = decode_body(&frame).unwrap();
            prop_assert_eq!(back, ResponseFrame { id, server_timing: timing, response: response.clone() });
        }
        prop_assert_eq!(decode::<ReachRequest>(&encode(&request)).unwrap(), request);
        // In-place stamping, as a client queues a frame: the bytes of the
        // cloned-and-stamped request, appended after what is queued.
        let id = big(&mut rng);
        let trace = rng
            .gen_bool(0.5)
            .then(|| TraceContext { trace_id: big(&mut rng), parent_span_id: big(&mut rng) });
        let mut queue = b"queued\n".to_vec();
        append_request_frame(&mut queue, &request, id, trace);
        let mut want = b"queued\n".to_vec();
        want.extend(encode(&request.clone().with_id(id).with_trace(trace)));
        prop_assert_eq!(queue, want);
    }

    #[test]
    fn stats_payloads_encode_like_serde_and_round_trip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for response in [
            ReachResponse::Stats { stats: gen_cache_stats(&mut rng) },
            ReachResponse::StatsSnapshot { registry: gen_registry(&mut rng) },
        ] {
            let id = rng.gen_bool(0.5).then(|| big(&mut rng));
            let frame = encode_response_frame(id, None, &response);
            let body = Body::Client(response.clone());
            prop_assert_eq!(
                String::from_utf8(frame.clone()).unwrap(),
                String::from_utf8(reference_response_frame(id, None, &body)).unwrap()
            );
            let back = decode_response_frame(&frame).unwrap();
            prop_assert_eq!(back, ResponseFrame { id, server_timing: None, response });
        }
    }

    #[test]
    fn decoder_agrees_with_serde_on_respelled_frames(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = gen_request(&mut rng);
        let frame = request_frame(&mut rng, &request);
        agree(&frame)?;
        prop_assert_eq!(decode::<ReachRequest>(&frame).unwrap(), request);
        let response = ResponseFrame {
            id: rng.gen_bool(0.5).then(|| big(&mut rng)),
            server_timing: rng.gen_bool(0.5).then(|| gen_timing(&mut rng)),
            response: gen_response(&mut rng),
        };
        let frame = response_frame(&mut rng, &response);
        agree(&frame)?;
        prop_assert_eq!(decode_body(&frame).unwrap(), response);
    }

    #[test]
    fn decoder_agrees_with_serde_on_damaged_frames(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = gen_request(&mut rng);
        let mut frame = if rng.gen_bool(0.5) {
            request_frame(&mut rng, &request)
        } else {
            let response = ResponseFrame {
                id: rng.gen_bool(0.5).then(|| big(&mut rng)),
                server_timing: rng.gen_bool(0.5).then(|| gen_timing(&mut rng)),
                response: gen_response(&mut rng),
            };
            response_frame(&mut rng, &response)
        };
        // Every truncation, then a handful of byte-level edits.
        for end in 0..frame.len() {
            agree(&frame[..end])?;
        }
        const BYTES: &[u8] = b"{}[]\",:\\ -.0e9tfnu\x01\xff\xc3\x80";
        for _ in 0..8 {
            let at = rng.gen_range(0..frame.len());
            match rng.gen_range(0..3u32) {
                0 => frame[at] = BYTES[rng.gen_range(0..BYTES.len())],
                1 => frame.insert(at, BYTES[rng.gen_range(0..BYTES.len())]),
                _ => {
                    frame.remove(at);
                }
            }
            if frame.is_empty() {
                break;
            }
            agree(&frame)?;
        }
    }
}

/// Hand-picked hostile frames: deep nesting, long and 20-digit integers,
/// truncation, CRLF, lone surrogates, invalid UTF-8, duplicate keys and
/// spellings outside JSON's grammar.
/// None may panic, each refusal is a typed error, and the codec agrees
/// with the serde path on all of them but the listed disagreements.
#[test]
fn adversarial_corpus_yields_typed_errors() {
    let base = r#"{"v":1,"locations":["US"],"interests":[3]"#;
    let body = r#""kind":"reach","reported":20,"floored":true,"too_narrow_warning":false"#;
    let nest = |levels: usize| {
        format!("{base},\"x\":{}{}}}", "[".repeat(levels), "]".repeat(levels)).into_bytes()
    };
    let mut corpus: Vec<(Vec<u8>, Option<FrameError>)> = vec![
        // Depth: the outer object is level 1, so `MAX_DEPTH - 1` arrays fit.
        (nest(MAX_DEPTH - 1), None),
        (nest(MAX_DEPTH), Some(FrameError::TooDeep)),
        (vec![b'['; 1 << 16], None),
        (format!("{base},\"x\":{}", "{\"a\":".repeat(1 << 14)).into_bytes(), Some(FrameError::TooDeep)),
        // Integers at and past the u64 boundary.
        (format!("{base},\"id\":18446744073709551615}}").into_bytes(), None),
        (format!("{base},\"id\":18446744073709551616}}").into_bytes(), Some(FrameError::Overflow { key: "id" })),
        (format!("{base},\"id\":99999999999999999999}}").into_bytes(), Some(FrameError::Overflow { key: "id" })),
        (format!("{base},\"id\":1.8446744073709552e19}}").into_bytes(), Some(FrameError::Overflow { key: "id" })),
        (r#"{"v":1,"locations":["US"],"interests":[4294967296]}"#.into(), Some(FrameError::Overflow { key: "interests" })),
        (format!("{{{body},\"reported\":00000000000000000001}}").into_bytes(), Some(FrameError::Malformed("leading zero in number at byte 83".into()))),
        (format!("{base},\"id\":-1}}").into_bytes(), None),
        (format!("{base},\"id\":1e400}}").into_bytes(), None),
        (format!("{base},\"id\":1.5}}").into_bytes(), None),
        // Truncated and CRLF-terminated frames.
        (base.into(), None),
        (format!("{base}}}\r").into_bytes(), None),
        (format!("{base}}}\r\n").into_bytes(), None),
        (format!("{{{body}}}\r").into_bytes(), None),
        // Lone surrogates and invalid UTF-8.
        (format!("{base},\"locations\":[\"\\ud800\"]}}").into_bytes(), None),
        (r#"{"v":1,"locations":["\ud800"],"interests":[]}"#.into(), Some(FrameError::InvalidUtf8 { at: 21 })),
        (r#"{"v":1,"locations":["\udc00"],"interests":[]}"#.into(), Some(FrameError::InvalidUtf8 { at: 21 })),
        (r#"{"v":1,"locations":["\ud800\u0041"],"interests":[]}"#.into(), Some(FrameError::InvalidUtf8 { at: 21 })),
        (r#"{"v":1,"locations":["\ud83d\ude00"],"interests":[]}"#.into(), None),
        (b"{\"v\":1,\"locations\":[\"\xff\"],\"interests\":[]}".to_vec(), Some(FrameError::InvalidUtf8 { at: 21 })),
        (b"{\"v\":1,\"locations\":[\"\xc0\xaf\"],\"interests\":[]}".to_vec(), Some(FrameError::InvalidUtf8 { at: 21 })),
        (b"{\"v\":1,\"locations\":[],\"interests\":[],\"x\":\"\xe2\x82\"}".to_vec(), Some(FrameError::InvalidUtf8 { at: 42 })),
        (b"{\"v\":1,\xff\"locations\":[],\"interests\":[]}".to_vec(), None),
        // Duplicate keys, at the top level and inside nested objects.
        (format!("{base},\"v\":2}}").into_bytes(), Some(FrameError::DuplicateKey("v"))),
        (format!("{base},\"i\\u0064\":1,\"id\":2}}").into_bytes(), Some(FrameError::DuplicateKey("id"))),
        (format!("{{{body},\"kind\":\"reach\"}}").into_bytes(), Some(FrameError::DuplicateKey("kind"))),
        (r#"{"kind":"nested","reaches":[{"reported":1,"reported":2,"floored":true,"too_narrow_warning":false}]}"#.into(), Some(FrameError::DuplicateKey("reported"))),
        (format!("{base},\"x\":1,\"x\":2}}").into_bytes(), None),
        // Wrong types and missing keys.
        (r#"{"v":1,"locations":[7],"interests":[0]}"#.into(), Some(FrameError::WrongType { key: "locations", expected: "a string" })),
        (r#"{"v":1,"locations":["US"]}"#.into(), Some(FrameError::Malformed("missing key `interests`".into()))),
        (format!("{base},\"trace\":{{\"trace_id\":1,\"parent_span_id\":3}}}}").into_bytes(), Some(FrameError::WrongType { key: "trace", expected: "an array" })),
        (format!("{{{body},\"st\":{{\"queue_ns\":1,\"handler_ns\":2,\"cache_hit\":true,\"engine_ns\":3}}}}").into_bytes(), Some(FrameError::WrongType { key: "st", expected: "an array" })),
        // Spellings outside JSON's grammar: leading zeros, a bare point or
        // sign, a signed `\u` escape and a raw control character.
        (format!("{base},\"locations\":[\"\\u+041\"]}}").into_bytes(), Some(FrameError::Malformed("expected four hex digits at byte 58, found '+'".into()))),
        (r#"{"v":1,"locations":["\u+041S"],"interests":[]}"#.into(), Some(FrameError::Malformed("expected four hex digits at byte 23, found '+'".into()))),
        (r#"{"v":1,"locations":["\u+055S"],"interests":[]}"#.into(), Some(FrameError::Malformed("expected four hex digits at byte 23, found '+'".into()))),
        (r#"{"v":1,"locations":["US"],"interests":[007]}"#.into(), Some(FrameError::Malformed("leading zero in number at byte 39".into()))),
        (r#"{"v":1,"locations":["US"],"interests":[7.]}"#.into(), Some(FrameError::Malformed("expected a digit at byte 41, found ']'".into()))),
        (r#"{"v":1.,"locations":["US"],"interests":[]}"#.into(), Some(FrameError::Malformed("expected a digit at byte 7, found ','".into()))),
        (format!("{base},\"id\":-.5}}").into_bytes(), Some(FrameError::Malformed("expected a digit at byte 48, found '.'".into()))),
        (b"{\"v\":1,\"locations\":[\"U\x01S\"],\"interests\":[]}".to_vec(), Some(FrameError::Malformed("control character in string at byte 22".into()))),
        // Odd spellings both paths refuse together.
        (format!("{base},}}").into_bytes(), None),
        (format!("{base}}} {{}}").into_bytes(), None),
        (b"".to_vec(), None),
        (b"null".to_vec(), None),
        (b"{}".to_vec(), None),
        (r#"{"kind":"bogus"}"#.into(), None),
        (r#"{"kind":7}"#.into(), None),
        (r#"{"kind":"stats","stats":{"enabled":true}}"#.into(), Some(FrameError::Malformed("missing key `epoch`".into()))),
        // Malformed stats and registry payloads.
        (r#"{"kind":"stats","stats":[]}"#.into(), Some(FrameError::WrongType { key: "stats", expected: "an object" })),
        (r#"{"kind":"stats_snapshot","registry":null}"#.into(), Some(FrameError::WrongType { key: "registry", expected: "an object" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[]}}"#.into(), Some(FrameError::Malformed("missing key `histograms`".into()))),
        (r#"{"kind":"stats_snapshot","registry":{"counters":{},"gauges":[],"histograms":[]}}"#.into(), Some(FrameError::WrongType { key: "counters", expected: "an array" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[7],"gauges":[],"histograms":[]}}"#.into(), Some(FrameError::WrongType { key: "counters", expected: "an array of objects" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[{"name":"c","value":-1}],"gauges":[],"histograms":[]}}"#.into(), Some(FrameError::WrongType { key: "value", expected: "a non-negative integer" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":"g","value":-9223372036854775808}],"histograms":[]}}"#.into(), None),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":"g","value":9223372036854775808}],"histograms":[]}}"#.into(), Some(FrameError::Overflow { key: "value" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":"g","value":-9223372036854775809}],"histograms":[]}}"#.into(), Some(FrameError::Overflow { key: "value" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":"g","value":-1e300}],"histograms":[]}}"#.into(), Some(FrameError::Overflow { key: "value" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":"g","value":-2.5}],"histograms":[]}}"#.into(), Some(FrameError::WrongType { key: "value", expected: "an integer" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[{"name":7,"value":1}],"histograms":[]}}"#.into(), Some(FrameError::WrongType { key: "name", expected: "a string" })),
        (r#"{"kind":"stats_snapshot","registry":{"counters":[],"gauges":[],"histograms":[{"name":"h","count":1,"sum":2,"buckets":[{"le":1}]}]}}"#.into(), Some(FrameError::Malformed("missing key `count`".into()))),
        (format!(r#"{{"kind":"stats_snapshot","registry":{{"counters":[],"gauges":[],"histograms":[{{"name":"h","count":1,"sum":2,"buckets":[{{"le":1,"count":0,"x":{}{}}}]}}]}}}}"#, "[".repeat(MAX_DEPTH - 6), "]".repeat(MAX_DEPTH - 6)).into_bytes(), None),
        (format!(r#"{{"kind":"stats_snapshot","registry":{{"counters":[],"gauges":[],"histograms":[{{"name":"h","count":1,"sum":2,"buckets":[{{"le":1,"count":0,"x":{}{}}}]}}]}}}}"#, "[".repeat(MAX_DEPTH - 5), "]".repeat(MAX_DEPTH - 5)).into_bytes(), Some(FrameError::TooDeep)),
        (r#"{"kind":"reach","reported":1,"floored":true,"too_narrow_warning":false,"stats":{"enabled":1}}"#.into(), None),
        // Shard partials: a whole frame is refused on the client hop, a
        // broken one on both.
        (r#"{"id":3,"kind":"shard_partials","generation":1,"chunks":[0],"values":[[7]]}"#.into(), Some(FrameError::Malformed("shard partials on a client hop".into()))),
        (r#"{"kind":"shard_partials","generation":1,"chunks":[0]}"#.into(), Some(FrameError::Malformed("missing key `values`".into()))),
        (r#"{"kind":"shard_partials","generation":1,"chunks":[0],"values":[7]}"#.into(), Some(FrameError::WrongType { key: "values", expected: "an array" })),
    ];
    corpus.push((
        br#"{"kind":"reach","reported":1,"floored":tru,"too_narrow_warning":false}"#.to_vec(),
        None,
    ));
    for (frame, expected) in &corpus {
        let shown = String::from_utf8_lossy(&frame[..frame.len().min(120)]);
        if let Err(e) = agree(frame) {
            panic!("{e:?} on {shown}");
        }
        let errors = [decode::<ReachRequest>(frame).err(), decode_response_frame(frame).err()];
        if let Some(want) = expected {
            assert!(errors.contains(&Some(want.clone())), "{shown}: {errors:?}, want {want:?}");
        }
        for error in errors.into_iter().flatten() {
            assert_ne!(error, FrameError::Oversized, "{shown}");
            assert!(error.to_string().starts_with("malformed frame: "), "{error}");
        }
    }
}
