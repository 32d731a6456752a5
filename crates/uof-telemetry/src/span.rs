//! Structured spans: scoped timers with attached fields.
//!
//! A span is a guard object covering a region of work. On drop it records
//! the elapsed wall time into the latency histogram named after the span
//! and, when a trace sink is attached, emits one JSONL [`TraceEvent`]
//! carrying the call site's structured fields. When telemetry is disabled
//! the guard is inert — construction reads no clock and drop does nothing —
//! so instrumentation can stay in place unconditionally.
//!
//! The usual spelling is the [`span!`](crate::span!) macro against the
//! process-global instance:
//!
//! ```
//! let _span = uof_telemetry::span!("reach.scalar", interests = 3u64);
//! // ... timed work ...
//! ```
//!
//! Code holding an explicit [`Telemetry`](crate::Telemetry) (the reach
//! server with a pinned test instance) uses the method form:
//! `telemetry.span("reach.scalar").field("interests", 3u64.into()).start()`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::metrics::Histogram;
use crate::trace::{TraceEvent, TraceField};
use crate::Telemetry;

/// Next raw span/trace id (process-wide). Ids are the splitmix64 mix of
/// this counter, so they are unique within a process and well-spread
/// without any randomness source — observation-only identity, never read
/// by simulation code.
static NEXT_RAW_ID: AtomicU64 = AtomicU64::new(0);

/// Allocates a fresh nonzero span id: one relaxed fetch-add plus a
/// splitmix64 finalizer. Zero is reserved to mean "no id / no parent".
fn next_span_id() -> u64 {
    let raw = NEXT_RAW_ID.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    let mixed = splitmix64(raw);
    if mixed == 0 {
        1
    } else {
        mixed
    }
}

/// splitmix64 finalizer (Steele et al.); the same mix the population
/// crate uses for seed derivation, duplicated here because telemetry must
/// not depend on simulation crates.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The wire-propagable identity of a span: the trace it belongs to and the
/// span that should become the parent of any child started under it.
///
/// A context travels across process and socket boundaries (the reach wire
/// protocol carries it as an optional request field) so that spans recorded
/// on different hops of one logical request reconstruct into a single
/// parent→child tree. Strictly observational: nothing ever branches on an
/// id.
///
/// On the wire a context serializes as the compact pair
/// `[trace_id, parent_span_id]` — it is attached to **every** frame of a
/// traced run, and a two-element array parses in a fraction of the time a
/// named object takes, which keeps context propagation cheap on the warm
/// request path. It is the only form: an object is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace the span belongs to (the root span's own id).
    pub trace_id: u64,
    /// Id of the span that children should attach under.
    pub parent_span_id: u64,
}

/// A hoisted span descriptor: a span name plus a lazily resolved handle to
/// its latency histogram.
///
/// Looking a histogram up by name takes a registry read lock and a map
/// walk; at pipelined request rates that lookup — paid by every
/// [`SpanGuard`] drop — is a measurable share of a server's warm path.
/// Hot loops build one `SpanSource` per span name outside the loop and
/// start spans through [`Telemetry::span_via`](crate::Telemetry::span_via);
/// each drop then records through the held handle.
///
/// The handle is resolved by the first span that actually records (so a
/// source built while telemetry is disabled registers nothing) and is
/// cached for the source's lifetime. That pins the source to the first
/// [`Telemetry`] instance it records through — don't share one source
/// across telemetry domains.
pub struct SpanSource {
    name: &'static str,
    histogram: OnceLock<Arc<Histogram>>,
}

impl SpanSource {
    /// A source for spans named `name`.
    pub const fn new(name: &'static str) -> Self {
        Self { name, histogram: OnceLock::new() }
    }

    /// The span name this source was built with.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The cached histogram handle, resolved in `telemetry`'s registry on
    /// first use.
    pub(crate) fn histogram(&self, telemetry: &Telemetry) -> Arc<Histogram> {
        Arc::clone(self.histogram.get_or_init(|| telemetry.registry().latency_histogram(self.name)))
    }
}

/// A structured field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point value.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Text (kept owned so call sites can pass computed labels).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Builder for a [`SpanGuard`]; produced by
/// [`Telemetry::span`](crate::Telemetry::span).
#[must_use = "a span builder times nothing until start() is called"]
pub struct SpanBuilder<'a> {
    /// `None` when telemetry is disabled: fields are discarded and the
    /// guard is inert.
    active: Option<SpanSetup<'a>>,
}

struct SpanSetup<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    /// Histogram handle hoisted via a [`SpanSource`]; `None` falls back to
    /// a by-name registry lookup at drop.
    histogram: Option<Arc<Histogram>>,
    /// Whether a trace sink was attached at build time. Fields exist only
    /// for the sink — when nobody is listening they are discarded at the
    /// call site instead of allocated and dropped unread.
    collect_fields: bool,
    fields: Vec<TraceField>,
    parent: Option<TraceContext>,
}

impl<'a> SpanBuilder<'a> {
    pub(crate) fn new(telemetry: &'a Telemetry, name: &'static str) -> Self {
        Self::with_histogram(telemetry, name, None)
    }

    pub(crate) fn via(telemetry: &'a Telemetry, source: &SpanSource) -> Self {
        // Resolve only when the span will actually record, so sources on
        // disabled telemetry never register their histogram.
        let histogram = telemetry.is_enabled().then(|| source.histogram(telemetry));
        Self::with_histogram(telemetry, source.name, histogram)
    }

    fn with_histogram(
        telemetry: &'a Telemetry,
        name: &'static str,
        histogram: Option<Arc<Histogram>>,
    ) -> Self {
        let active = telemetry.is_enabled().then(|| SpanSetup {
            telemetry,
            name,
            histogram,
            collect_fields: telemetry.is_tracing(),
            fields: Vec::new(),
            parent: None,
        });
        Self { active }
    }

    /// Attaches a structured `key = value` field. Fields feed only the
    /// trace sink, so this is a no-op when telemetry is disabled **or** no
    /// sink is attached — the metrics path carries no fields.
    pub fn field(mut self, key: &'static str, value: FieldValue) -> Self {
        if let Some(setup) = self.active.as_mut() {
            if setup.collect_fields {
                setup.fields.push(TraceField { key, value });
            }
        }
        self
    }

    /// Makes the span a child of `parent` (typically a [`TraceContext`]
    /// received over the wire). `None` leaves the span a root, so call
    /// sites can pass an optional context through unconditionally.
    pub fn child_of(mut self, parent: Option<TraceContext>) -> Self {
        if let Some(setup) = self.active.as_mut() {
            setup.parent = parent;
        }
        self
    }

    /// Starts the clock; the returned guard records on drop.
    ///
    /// Span/trace ids are allocated only when they can matter: when the
    /// telemetry instance has a trace sink attached or a parent context was
    /// adopted (so a child on another hop can still join the trace). The
    /// metrics-only path pays no id allocation.
    pub fn start(self) -> SpanGuard<'a> {
        let start = self.active.is_some().then(Instant::now);
        self.into_guard(start)
    }

    /// Starts the span's clock at `start` — for regions that began before
    /// the builder existed, like a server frame span measured from the
    /// stamp taken when the frame came off the socket. The caller's
    /// existing stamp substitutes for the clock read [`SpanBuilder::start`]
    /// would make, which matters at pipelined frame rates.
    pub fn start_at(self, start: Instant) -> SpanGuard<'a> {
        self.into_guard(Some(start))
    }

    fn into_guard(self, start: Option<Instant>) -> SpanGuard<'a> {
        SpanGuard {
            active: self.active.map(|setup| {
                let identity =
                    (setup.telemetry.is_tracing() || setup.parent.is_some()).then(|| {
                        match setup.parent {
                            Some(ctx) => SpanIdentity {
                                trace_id: ctx.trace_id,
                                span_id: next_span_id(),
                                parent_span_id: ctx.parent_span_id,
                            },
                            None => {
                                // Roots use their own span id as the trace id.
                                let span_id = next_span_id();
                                SpanIdentity { trace_id: span_id, span_id, parent_span_id: 0 }
                            }
                        }
                    });
                ActiveSpan {
                    telemetry: setup.telemetry,
                    name: setup.name,
                    histogram: setup.histogram,
                    collect_fields: setup.collect_fields,
                    fields: setup.fields,
                    identity,
                    // `start()` always passes `Some` for an active builder;
                    // the fallback is unreachable but harmless.
                    start: start.unwrap_or_else(Instant::now),
                }
            }),
        }
    }
}

/// A running span; records duration (and optionally a trace event) when
/// dropped.
#[must_use = "dropping the guard immediately records a zero-length span"]
pub struct SpanGuard<'a> {
    active: Option<ActiveSpan<'a>>,
}

/// The allocated identity of a recording span (absent on the
/// metrics-only path).
#[derive(Debug, Clone, Copy)]
struct SpanIdentity {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
}

struct ActiveSpan<'a> {
    telemetry: &'a Telemetry,
    name: &'static str,
    histogram: Option<Arc<Histogram>>,
    collect_fields: bool,
    fields: Vec<TraceField>,
    identity: Option<SpanIdentity>,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Whether this guard is actually timing (false when telemetry was
    /// disabled at construction).
    pub fn is_recording(&self) -> bool {
        self.active.is_some()
    }

    /// The context a child span (possibly on another hop) should adopt to
    /// land under this span: same trace, this span as parent. `None` when
    /// the span has no identity (disabled, or metrics-only with no parent).
    pub fn trace_context(&self) -> Option<TraceContext> {
        let identity = self.active.as_ref()?.identity?;
        Some(TraceContext { trace_id: identity.trace_id, parent_span_id: identity.span_id })
    }

    /// Attaches a structured field after the span has started — for values
    /// only known mid-flight, like a server-timing block echoed on a
    /// response. Like [`SpanBuilder::field`], a no-op when disabled or when
    /// no trace sink was attached at span creation.
    pub fn annotate(&mut self, key: &'static str, value: FieldValue) {
        if let Some(span) = self.active.as_mut() {
            if span.collect_fields {
                span.fields.push(TraceField { key, value });
            }
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else { return };
        let dur_ns = clamp_ns(span.start.elapsed().as_nanos());
        let ActiveSpan { telemetry, name, histogram, collect_fields: _, fields, identity, start } =
            span;
        match histogram {
            Some(histogram) => histogram.observe(dur_ns),
            None => telemetry.registry().latency_histogram(name).observe(dur_ns),
        }
        let identity =
            identity.unwrap_or(SpanIdentity { trace_id: 0, span_id: 0, parent_span_id: 0 });
        telemetry.emit_trace(move |seq, origin| TraceEvent {
            span: name.to_string(),
            seq,
            trace_id: identity.trace_id,
            span_id: identity.span_id,
            parent_span_id: identity.parent_span_id,
            start_ns: clamp_ns(start.saturating_duration_since(origin).as_nanos()),
            dur_ns,
            fields,
        });
    }
}

/// Saturates a nanosecond count into `u64` (584 years of headroom).
fn clamp_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}
