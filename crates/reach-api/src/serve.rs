//! The serving core both tiers share: one acceptor and one connection
//! loop, generic over a tier's [`FrameHandler`].
//!
//! [`crate::server::ReachServer`] answers frames from the engine, the query
//! cache and the index; [`crate::router::ReachRouter`] fans them out to
//! shard backends and merges the partials. Everything else a connection
//! does lives here once: socket timeouts, the pipelined read/drain/write
//! loop, the token bucket, per-frame and per-opcode telemetry, the timing
//! echo, the version and opcode checks, and request validation. So the two
//! tiers make every serving decision the same way.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_population::countries::CountryCode;
use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, World};
use parking_lot::Mutex;
use reach_cache::key::canonical_interests;
use uof_telemetry::metrics::{Counter, Gauge};
use uof_telemetry::{SpanSource, Telemetry, TraceContext};

use crate::proto::{
    append_answer_frame, decode, Answer, FrameCodec, FrameError, Op, QueryKind, ReachRequest,
    ReachResponse, ServerTiming, PROTOCOL_VERSION,
};
use crate::server::{RateLimitConfig, TokenBucket};

/// How long a connection thread blocks in `read` before it checks for
/// shutdown again.
const STOP_POLL: Duration = Duration::from_millis(100);

/// Longest location prefix, in bytes, an error message echoes back.
const ECHO_BYTES: usize = 16;

/// One tier's answers. [`serve_connection`] has already checked the
/// protocol version, decoded the opcode and admitted the frame through the
/// token bucket; the handler only computes the answer.
pub(crate) trait FrameHandler {
    /// Name of the per-frame span (`server.frame`, `router.frame`).
    const FRAME_SPAN: &'static str;
    /// Whether the tier runs the engine itself. If so, [`serve_connection`]
    /// reports the [`TimingProbe`]: `engine_ns` on the frame and handler
    /// spans, `cache_hit` on the handler span, and both in the timing
    /// echo. Otherwise the echo carries `cache_hit: false` and
    /// `engine_ns: 0` and the spans carry no engine fields.
    const RUNS_ENGINE: bool;

    /// Answers `request`, whose opcode is `op`: a client response, or a
    /// shard backend's partials. `parent` is the handler span's trace
    /// context, for the tier's own outgoing hops. An `Err` is sent as
    /// [`ReachResponse::Error`].
    fn answer(
        &mut self,
        request: &ReachRequest,
        op: Op,
        parent: Option<TraceContext>,
        probe: &mut TimingProbe,
    ) -> Result<Answer, String>;
}

/// State a listener shares with its accept thread and its connections.
struct Shared {
    stop: AtomicBool,
    served: AtomicU64,
    /// `None`: the process-global telemetry instance.
    telemetry: Option<Telemetry>,
    rate_limit: RateLimitConfig,
    write_timeout: Duration,
    /// Live connection-thread handles: finished ones are reaped on each
    /// accept, the rest are joined at shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn telemetry(&self) -> &Telemetry {
        self.telemetry.as_ref().unwrap_or_else(|| uof_telemetry::global())
    }
}

/// One accepted connection, handed to the tier's serve function.
pub(crate) struct Connection<'c> {
    stream: TcpStream,
    shared: &'c Shared,
}

impl<'c> Connection<'c> {
    /// The telemetry domain the connection records into.
    pub(crate) fn telemetry(&self) -> &'c Telemetry {
        self.shared.telemetry()
    }
}

/// A listener on `127.0.0.1` whose accept thread serves every connection
/// on a thread of its own. Dropping it shuts it down.
pub(crate) struct Acceptor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Binds an OS-assigned port and starts accepting. `telemetry` is a
    /// pinned domain, or `None` for the process global. `serve` runs each
    /// connection, normally by building the tier's handler and calling
    /// [`serve_connection`]; its error ends only that connection.
    pub(crate) fn start<F>(
        rate_limit: RateLimitConfig,
        write_timeout: Duration,
        telemetry: Option<Telemetry>,
        serve: F,
    ) -> std::io::Result<Self>
    where
        F: Fn(Connection<'_>) -> std::io::Result<()> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            telemetry,
            rate_limit,
            write_timeout,
            handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let serve = Arc::new(serve);
        let thread = std::thread::spawn(move || accept(&listener, &accept_shared, &serve));
        Ok(Self { addr, shared, thread: Some(thread) })
    }

    /// The bound address.
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames answered with anything but an error or a rate limit.
    pub(crate) fn served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Connection-thread handles currently tracked.
    pub(crate) fn connection_handles(&self) -> usize {
        self.shared.handles.lock().len()
    }

    /// The telemetry domain every connection records into.
    pub(crate) fn telemetry(&self) -> &Telemetry {
        self.shared.telemetry()
    }

    /// Stops accepting and joins the accept thread, which joins every
    /// connection thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else { return };
        // `SeqCst`, paired with the accept thread's load: the flag must be
        // visible once the wake-up connection below is accepted.
        self.shared.stop.store(true, Ordering::SeqCst);
        // `accept` blocks; one loopback connect wakes it to see the flag.
        // If the connect fails, the accept thread has already exited.
        drop(TcpStream::connect(self.addr));
        let _ = thread.join();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The accept loop: one thread per connection, reaping finished ones on
/// each accept, joining the rest at shutdown.
fn accept<F>(listener: &TcpListener, shared: &Arc<Shared>, serve: &Arc<F>)
where
    F: Fn(Connection<'_>) -> std::io::Result<()> + Send + Sync + 'static,
{
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let (conn_shared, serve) = (Arc::clone(shared), Arc::clone(serve));
        let handle = std::thread::spawn(move || {
            let _ = serve(Connection { stream, shared: &conn_shared });
        });
        // Joining only *finished* threads is non-blocking, and it bounds
        // the vector by the number of live connections instead of every
        // connection ever accepted.
        let mut handles = shared.handles.lock();
        let (done, live): (Vec<_>, Vec<_>) = handles.drain(..).partition(|h| h.is_finished());
        *handles = live;
        handles.push(handle);
        drop(handles);
        for finished in done {
            let _ = finished.join();
        }
    }
    for handle in shared.handles.lock().drain(..) {
        let _ = handle.join();
    }
}

/// Serves one connection until EOF, error, or shutdown.
pub(crate) fn serve_connection<H: FrameHandler>(
    conn: Connection<'_>,
    mut handler: H,
) -> std::io::Result<()> {
    let Connection { mut stream, shared } = conn;
    let telemetry = shared.telemetry();
    stream.set_read_timeout(Some(STOP_POLL))?;
    // A bounded write: a client that stops reading (full TCP window) would
    // otherwise wedge `write_all` forever, and shutdown with it. A
    // timed-out write is a disconnect, handled below.
    stream.set_write_timeout(Some(shared.write_timeout))?;
    // Pipelined responses go out as back-to-back batches; with Nagle on,
    // every batch after the first stalls behind the peer's delayed ACK
    // (~40ms), making pipelining *slower* than one request per round trip.
    stream.set_nodelay(true)?;
    let mut codec = FrameCodec::new();
    let mut bucket = TokenBucket::new(shared.rate_limit);
    let metrics = ConnectionMetrics::new(H::FRAME_SPAN);
    // Sized for a full pipelined request batch in one read: a deep-pipelining
    // client sends ~10 KiB back-to-back, and a smaller buffer splits the
    // batch into extra read syscalls.
    let mut buf = [0u8; 16384];
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // EOF
            Ok(n) => codec.feed(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
        // Drain every complete frame this read delivered before touching
        // the socket again — the server half of pipelining. Frames are
        // decoded and stamped up front, then handled in order: the stamp
        // is when the request became runnable, so each frame's measured
        // queue wait covers the time it spent parked behind earlier frames
        // of the same pipelined batch. Responses are batched into one
        // write so N pipelined requests cost one syscall and one TCP
        // segment train, not N.
        let mut pending: Vec<(Instant, Result<ReachRequest, FrameError>)> = Vec::new();
        let mut oversized = false;
        loop {
            match codec.next_frame() {
                Ok(Some(frame)) => pending.push((Instant::now(), decode::<ReachRequest>(&frame))),
                Ok(None) => break,
                Err(_) => {
                    // Oversized frame: tell the client and drop them (after
                    // flushing answers to the frames before it).
                    telemetry.count("reach.requests.oversized", 1);
                    oversized = true;
                    break;
                }
            }
        }
        let mut out: Vec<u8> = Vec::new();
        for (decoded_at, parsed) in pending.drain(..) {
            let (id, timing, response) = match parsed {
                Err(e) => {
                    telemetry.count("reach.requests.error", 1);
                    (None, None, Answer::Client(ReachResponse::Error { message: e.to_string() }))
                }
                Ok(request) => {
                    let queue_ns = saturating_ns(decoded_at.elapsed());
                    // One span per wire frame, adopting the client's trace
                    // context when the request carries one — the hop a
                    // trace tree hangs handler spans off. It starts at the
                    // frame's decode stamp (no extra clock read) so its
                    // duration covers decode, queue wait, and handling.
                    let mut frame_span = telemetry
                        .span_via(&metrics.frame_span)
                        .child_of(request.trace)
                        .field("queue_ns", queue_ns.into())
                        .start_at(decoded_at);
                    let handler_start = Instant::now();
                    let mut probe = TimingProbe::default();
                    let response = match bucket.try_take() {
                        Err(wait) => {
                            telemetry.count("reach.requests.rate_limited", 1);
                            let retry_after_ms = wait.as_millis().max(1) as u64;
                            Answer::Client(ReachResponse::RateLimited { retry_after_ms })
                        }
                        Ok(()) => {
                            let r = answer_instrumented(
                                &mut handler,
                                telemetry,
                                &metrics,
                                &request,
                                frame_span.trace_context(),
                                handler_start,
                                &mut probe,
                            );
                            if !matches!(
                                r,
                                Answer::Client(
                                    ReachResponse::Error { .. } | ReachResponse::RateLimited { .. }
                                )
                            ) {
                                shared.served.fetch_add(1, Ordering::Relaxed);
                            }
                            r
                        }
                    };
                    // The timing echo is opt-in: only requests that carried
                    // a trace context get one, so v1 clients (and v2 clients
                    // that never opted into tracing) see byte-identical
                    // response frames.
                    let timing = request.trace.is_some().then(|| ServerTiming {
                        queue_ns,
                        handler_ns: saturating_ns(handler_start.elapsed()),
                        cache_hit: H::RUNS_ENGINE && !probe.engine_ran,
                        engine_ns: probe.engine_ns,
                    });
                    if H::RUNS_ENGINE {
                        frame_span.annotate("engine_ns", probe.engine_ns.into());
                    }
                    drop(frame_span);
                    (request.id, timing, response)
                }
            };
            append_answer_frame(&mut out, id, timing.as_ref(), &response);
        }
        if oversized {
            let response = ReachResponse::Error { message: "frame too large".into() };
            append_answer_frame(&mut out, None, None, &Answer::Client(response));
        }
        if !out.is_empty() {
            match stream.write_all(&out) {
                Ok(()) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // The client is not reading; treat as a disconnect so
                    // the thread (and shutdown) cannot hang on its window.
                    telemetry.count("reach.connections.write_timeout", 1);
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        if oversized {
            return Ok(());
        }
    }
}

/// Wraps [`dispatch`] in per-opcode telemetry: an opcode counter, the
/// in-flight gauge, and a latency span (which records into the
/// `reach.request.<opcode>` histogram and traces when a sink is attached).
/// The handler span is parented under the frame span via `parent` and
/// starts at the caller's `started_at` stamp — the same instant the timing
/// echo's `handler_ns` measures from — so the span and the echo agree
/// without a second clock read. A frame that names no single opcode is
/// counted only as an error. When telemetry is disabled this adds one
/// relaxed load over a bare `dispatch` call.
fn answer_instrumented<H: FrameHandler>(
    handler: &mut H,
    telemetry: &Telemetry,
    metrics: &ConnectionMetrics,
    request: &ReachRequest,
    parent: Option<TraceContext>,
    started_at: Instant,
    probe: &mut TimingProbe,
) -> Answer {
    let op = request.op();
    if !telemetry.is_enabled() {
        return dispatch(handler, request, op, parent, probe);
    }
    let response = match op {
        Err(_) => dispatch(handler, request, op, parent, probe),
        Ok(op) => {
            let (counter, span_source) = metrics.opcode(telemetry, op);
            counter.incr();
            let in_flight = metrics.in_flight(telemetry);
            // Incremented before the request is handled, so a snapshot
            // request deterministically observes itself in flight (the
            // gauge is >= 1 in its own dump).
            in_flight.incr();
            let response = {
                let mut span = telemetry
                    .span_via(span_source)
                    .child_of(parent)
                    .field("locations", request.locations.len().into())
                    .field("interests", request.interests.len().into())
                    .start_at(started_at);
                let response = dispatch(handler, request, Ok(op), span.trace_context(), probe);
                if H::RUNS_ENGINE {
                    span.annotate("engine_ns", probe.engine_ns.into());
                    span.annotate("cache_hit", (!probe.engine_ran).into());
                }
                response
            };
            in_flight.decr();
            response
        }
    };
    if matches!(response, Answer::Client(ReachResponse::Error { .. })) {
        telemetry.registry().counter("reach.requests.error").incr();
    }
    response
}

/// Checks the protocol version, then the opcode, then asks the handler:
/// the precedence both tiers answer in.
fn dispatch<H: FrameHandler>(
    handler: &mut H,
    request: &ReachRequest,
    op: Result<Op, &'static str>,
    parent: Option<TraceContext>,
    probe: &mut TimingProbe,
) -> Answer {
    let answered = if request.v == PROTOCOL_VERSION {
        op.map_err(String::from).and_then(|op| handler.answer(request, op, parent, probe))
    } else {
        Err(format!("unsupported protocol version {}", request.v))
    };
    answered.unwrap_or_else(|message| Answer::Client(ReachResponse::Error { message }))
}

/// Validates a query's locations, interests and country filter and builds
/// its spec. Both tiers call it, so a router rejects exactly what a single
/// node rejects, with the same message, before any backend sees the query.
///
/// Scalar and sampled interests are canonicalized (sorted and
/// deduplicated): permuted or duplicated spellings of one audience are the
/// same query, share one cache entry, and — because the engine then
/// evaluates the same interest order — report bit-identical values. Nested
/// interests are order-significant and never reordered; spec validation
/// rejects duplicates and over-long sequences there.
pub(crate) fn validate(
    request: &ReachRequest,
    kind: QueryKind,
    world: &World,
) -> Result<(TargetingSpec, CountryFilter), String> {
    let mut builder = TargetingSpec::builder();
    for code in &request.locations {
        let bytes = code.as_bytes();
        if bytes.len() != 2 || !bytes.iter().all(u8::is_ascii_uppercase) {
            return Err(bad_country_code(code));
        }
        builder = builder.location(CountryCode([bytes[0], bytes[1]]));
    }
    let interests: Vec<u32> = if kind == QueryKind::Nested {
        request.interests.clone()
    } else {
        canonical_interests(&request.interests)
    };
    builder = builder.interests(interests.iter().map(|&i| InterestId(i)));
    let spec = builder.build().map_err(|e| e.to_string())?;
    if let Some(id) = spec.interests().iter().find(|&&id| world.catalog().get(id).is_none()) {
        return Err(format!("unknown interest {}", id.0));
    }
    // `checked_of`, not `of`: an out-of-universe index must degrade to an
    // error frame, never panic the connection thread.
    let filter = CountryFilter::checked_of(&spec.location_indices())
        .map_err(|i| format!("country index {i} outside the 50-country universe"))?;
    Ok((spec, filter))
}

/// The refusal for a location that is not a two-letter code. It echoes at
/// most [`ECHO_BYTES`] of the code plus its length, so a hostile location
/// cannot make the error frame as large as the request.
fn bad_country_code(code: &str) -> String {
    if code.len() <= ECHO_BYTES {
        return format!("bad country code {code:?}");
    }
    let mut end = ECHO_BYTES;
    while !code.is_char_boundary(end) {
        end -= 1;
    }
    format!("bad country code {:?}... ({} bytes)", &code[..end], code.len())
}

/// Per-opcode metric names: `(counter, latency-span)` pairs. The span name
/// doubles as the histogram name the duration lands in.
const OPCODE_NAMES: [(&str, &str); 6] = [
    ("reach.requests.shard", "reach.request.shard"),
    ("reach.requests.snapshot", "reach.request.snapshot"),
    ("reach.requests.stats", "reach.request.stats"),
    ("reach.requests.nested", "reach.request.nested"),
    ("reach.requests.sampled", "reach.request.sampled"),
    ("reach.requests.scalar", "reach.request.scalar"),
];

/// Per-connection handles to the metrics the frame loop touches on every
/// request, resolved once per name instead of per frame. A by-name
/// registry lookup takes a read lock and a map walk; at pipelined request
/// rates that is a measurable share of the warm path, and the registry's
/// contract is that hot loops hoist lookups. Handles resolve lazily on
/// first **enabled** use, so a connection on a disabled-telemetry server
/// registers nothing (and a server enabled at runtime resolves them on the
/// next request).
struct ConnectionMetrics {
    frame_span: SpanSource,
    in_flight: OnceLock<Arc<Gauge>>,
    /// One slot per [`OPCODE_NAMES`] row.
    opcodes: [OpcodeMetrics; OPCODE_NAMES.len()],
}

struct OpcodeMetrics {
    counter_name: &'static str,
    counter: OnceLock<Arc<Counter>>,
    span: SpanSource,
}

impl ConnectionMetrics {
    fn new(frame_span_name: &'static str) -> Self {
        Self {
            frame_span: SpanSource::new(frame_span_name),
            in_flight: OnceLock::new(),
            opcodes: OPCODE_NAMES.map(|(counter_name, span_name)| OpcodeMetrics {
                counter_name,
                counter: OnceLock::new(),
                span: SpanSource::new(span_name),
            }),
        }
    }

    /// The request counter and handler-span source for `op`.
    fn opcode(&self, telemetry: &Telemetry, op: Op) -> (&Counter, &SpanSource) {
        let row = match op {
            Op::Query { shard: true, .. } => 0,
            Op::Snapshot => 1,
            Op::Stats => 2,
            Op::Query { kind: QueryKind::Nested, .. } => 3,
            Op::Query { kind: QueryKind::Sampled, .. } => 4,
            Op::Query { kind: QueryKind::Scalar, .. } => 5,
        };
        let op = &self.opcodes[row];
        // lint:allow(dynamic-metric-name) — per-opcode names from the static OPCODE_NAMES table
        let counter = op.counter.get_or_init(|| telemetry.registry().counter(op.counter_name));
        (counter, &op.span)
    }

    /// The `reach.requests.in_flight` gauge.
    fn in_flight(&self, telemetry: &Telemetry) -> &Gauge {
        self.in_flight.get_or_init(|| telemetry.registry().gauge("reach.requests.in_flight"))
    }
}

/// Saturating nanosecond reading of an elapsed interval (a duration past
/// ~584 years would overflow `u64`; clamp instead of truncating).
pub(crate) fn saturating_ns(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

/// Accumulates where a request's handler time actually went, for the
/// opt-in [`ServerTiming`] echo and the handler span's annotations.
/// `engine_ns` covers the compute sections — cache-miss closures, index
/// lookups, shard partial evaluation — and `engine_ran` records whether
/// any ran at all (a warm scalar request answers purely from cache and
/// reports `cache_hit` on the wire). Purely observational: nothing in the
/// answer path reads it back.
#[derive(Default, Clone, Copy)]
pub(crate) struct TimingProbe {
    pub(crate) engine_ns: u64,
    pub(crate) engine_ran: bool,
}

impl TimingProbe {
    /// Runs `compute` and folds its wall time into the engine total.
    pub(crate) fn time<T>(&mut self, compute: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = compute();
        self.engine_ns = self.engine_ns.saturating_add(saturating_ns(start.elapsed()));
        self.engine_ran = true;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_country_echo_is_bounded_and_char_safe() {
        assert_eq!(bad_country_code("Spain"), r#"bad country code "Spain""#);
        let long = "A".repeat(60_000);
        assert_eq!(
            bad_country_code(&long),
            r#"bad country code "AAAAAAAAAAAAAAAA"... (60000 bytes)"#
        );
        // A multi-byte character straddling the cut is dropped whole.
        let accented = format!("{}é{}", "A".repeat(15), "B".repeat(10));
        assert_eq!(
            bad_country_code(&accented),
            format!(r#"bad country code "{}"... (27 bytes)"#, "A".repeat(15))
        );
    }
}
