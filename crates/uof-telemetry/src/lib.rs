//! Workspace-wide observability: a process-global metric registry and
//! structured spans with optional JSONL tracing.
//!
//! The north-star system serves reach queries under heavy traffic, and the
//! nanotargeting methodology itself leans on instrumentation — the paper's
//! campaigns were validated through three independent delivery signals
//! (dashboard, click log, ad snapshot). This crate is the simulator's
//! equivalent window: named **counters**, **gauges**, and fixed-bucket
//! **histograms** behind a [`Registry`], plus [`span!`] guards that time
//! regions of work into latency histograms and, when a trace sink is
//! attached, emit one JSONL event per completed span.
//!
//! # The cardinal rule: observation only
//!
//! Telemetry never feeds back into computation. Every reach, fit, and
//! bootstrap output is bit-identical (`f64::to_bits`) with telemetry
//! disabled, enabled, or tracing to a file, at any `UOF_THREADS` — the
//! workspace's determinism tests enforce this. Concretely: instrumented
//! code may *record* into telemetry but must never *read* a metric to make
//! a decision, and the recording path allocates nothing and takes no lock
//! when disabled.
//!
//! # Hot-path discipline
//!
//! Recording through a held handle ([`Counter::add`](metrics::Counter),
//! [`Histogram::observe`](metrics::Histogram)) is a relaxed atomic RMW —
//! no locks. Looking a metric up by name takes a read lock; hoist lookups
//! out of loops. A disabled [`Telemetry`] short-circuits on one relaxed
//! atomic load before any of that.
//!
//! # Configuration
//!
//! Nothing in this crate reads the environment. The process-global
//! instance ([`global`]) starts disabled; explicit instances
//! ([`Telemetry::new`]) take the [`TelemetryConfig`] their caller builds.
//! Runtime toggles ([`Telemetry::set_enabled`],
//! [`Telemetry::attach_trace_writer`]) switch an instance into recording or
//! tracing — perfbench's `--trace` run and the determinism tests flip them
//! between runs of one process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;

pub use config::TelemetryConfig;
pub use metrics::{BucketCount, Histogram, HistogramSnapshot, LATENCY_BOUNDS_NS};
pub use registry::{CounterSnapshot, GaugeSnapshot, Registry, RegistrySnapshot};
pub use span::{FieldValue, SpanBuilder, SpanGuard, SpanSource, TraceContext};
pub use trace::{TraceEvent, Tracer};

/// Counter of trace events that failed to reach the attached sink (an I/O
/// error). Tracing stays best-effort — nothing ever blocks or panics on a
/// full disk — but drops are no longer silent: the count lands in every
/// registry snapshot.
pub const TRACE_DROPPED_COUNTER: &str = "telemetry.trace.dropped";

/// One telemetry domain: an enabled flag, a metric registry, and an
/// optional trace sink.
///
/// Most code uses the process-global instance through [`global`] and the
/// [`span!`] macro; the reach server can also carry a private instance
/// so loopback tests observe their own metrics apart from the global.
pub struct Telemetry {
    enabled: AtomicBool,
    registry: Registry,
    tracer: Mutex<Option<Tracer>>,
    /// Set (relaxed) whenever a tracer is attached/detached so the span
    /// drop path can skip the mutex in the common no-tracer case.
    tracing: AtomicBool,
    /// Zero point for trace-event timestamps.
    origin: Instant,
    /// Trace-event sequence numbers (total order of span completions).
    seq: AtomicU64,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.tracing.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(&TelemetryConfig::default())
    }
}

impl Telemetry {
    /// An instance honouring `config`, with no trace sink attached.
    pub fn new(config: &TelemetryConfig) -> Self {
        Self {
            enabled: AtomicBool::new(config.enabled),
            registry: Registry::new(),
            tracing: AtomicBool::new(false),
            tracer: Mutex::new(None),
            origin: Instant::now(),
            seq: AtomicU64::new(0),
        }
    }

    /// Whether recording is on (one relaxed load; the short-circuit every
    /// instrumentation site goes through first).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime. Already-issued metric handles
    /// keep working — this gates span creation and the convenience
    /// recorders, not the registry itself.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The metric registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether a trace sink is attached (one relaxed load). Spans started
    /// while this is true allocate trace/span ids; callers that propagate
    /// [`TraceContext`] over the wire use it to skip the work when nobody
    /// is listening.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Starts building a span named `name` (see [`span!`] for the macro
    /// spelling). Inert when disabled.
    pub fn span(&self, name: &'static str) -> SpanBuilder<'_> {
        SpanBuilder::new(self, name)
    }

    /// Starts building a span through a hoisted [`SpanSource`]: the drop
    /// path records into the source's cached histogram handle instead of
    /// re-resolving the span name in the registry. The hot-loop spelling
    /// of [`Telemetry::span`].
    pub fn span_via(&self, source: &SpanSource) -> SpanBuilder<'_> {
        SpanBuilder::via(self, source)
    }

    /// Adds `n` to the named counter when enabled. Convenience for cold
    /// call sites; hot loops should hold the `Arc` from
    /// [`Registry::counter`] instead.
    #[inline]
    pub fn count(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.registry.counter(name).add(n);
        }
    }

    /// Attaches a JSONL trace sink at runtime, replacing (and flushing)
    /// any previous one. Used by the determinism tests to switch a live
    /// process into tracing mode; also enables recording, since trace
    /// events only flow from recorded spans.
    pub fn attach_trace_writer(&self, sink: Box<dyn std::io::Write + Send>) {
        let mut slot = self.tracer.lock();
        if let Some(old) = slot.take() {
            old.flush();
        }
        *slot = Some(Tracer::new(sink));
        self.tracing.store(true, Ordering::Relaxed);
        self.set_enabled(true);
    }

    /// Detaches and flushes the trace sink, if any. Recording stays in
    /// whatever state it was.
    pub fn detach_trace_writer(&self) {
        let mut slot = self.tracer.lock();
        self.tracing.store(false, Ordering::Relaxed);
        if let Some(old) = slot.take() {
            old.flush();
        }
    }

    /// Flushes the trace sink without detaching it.
    pub fn flush_traces(&self) {
        if let Some(tracer) = self.tracer.lock().as_ref() {
            tracer.flush();
        }
    }

    /// A dump of every registered metric (see [`Registry::snapshot`]).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Runs `build` and emits the resulting event iff a tracer is
    /// attached. `build` receives the event's sequence number and the
    /// instance origin for timestamping. Called from span drops — must
    /// never panic. Events the sink rejects (I/O error, full disk) are
    /// counted into [`TRACE_DROPPED_COUNTER`] instead of vanishing.
    pub(crate) fn emit_trace(&self, build: impl FnOnce(u64, Instant) -> TraceEvent) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let delivered = {
            let guard = self.tracer.lock();
            let Some(tracer) = guard.as_ref() else { return };
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            tracer.emit(&build(seq, self.origin))
        };
        if !delivered {
            self.registry.counter(TRACE_DROPPED_COUNTER).incr();
        }
    }
}

/// The process-global telemetry instance, disabled until a caller turns it
/// on ([`Telemetry::set_enabled`], [`Telemetry::attach_trace_writer`]).
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::default)
}

/// A shared handle to an explicit telemetry instance — what the reach
/// server stores when a test pins its own domain instead of using the
/// process [`global`].
pub type SharedTelemetry = Arc<Telemetry>;

/// Times the enclosed scope into the latency histogram named by the first
/// argument, recording against the [process-global](global) instance.
///
/// ```
/// # let n = 3usize;
/// let _span = uof_telemetry::span!("reach.scalar", interests = n);
/// // ... timed work; histogram updated when `_span` drops ...
/// ```
///
/// Additional `key = value` pairs become structured fields on the JSONL
/// trace event (values go through [`FieldValue::from`]); they cost nothing
/// unless a trace sink is attached. When telemetry is disabled the guard
/// is fully inert.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::global()
            .span($name)
            $(.field(stringify!($key), $crate::FieldValue::from($value)))*
            .start()
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;

    /// A `Write` proxy into shared memory for inspecting trace output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<PlMutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        {
            let guard = telemetry.span("quiet").field("k", 1u64.into()).start();
            assert!(!guard.is_recording());
        }
        telemetry.count("quiet.events", 1);
        let snap = telemetry.snapshot();
        assert!(snap.histograms.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn enabled_spans_feed_their_histogram() {
        let telemetry = Telemetry::new(&TelemetryConfig::enabled());
        for _ in 0..3 {
            let guard = telemetry.span("work").start();
            assert!(guard.is_recording());
        }
        let snap = telemetry.snapshot();
        let hist = snap.histogram("work").expect("span histogram registered");
        assert_eq!(hist.count, 3);
        assert!(hist.populated_buckets() >= 1);
    }

    #[test]
    fn runtime_toggle_gates_recording() {
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        drop(telemetry.span("toggled").start());
        telemetry.set_enabled(true);
        drop(telemetry.span("toggled").start());
        telemetry.set_enabled(false);
        drop(telemetry.span("toggled").start());
        assert_eq!(telemetry.snapshot().histogram("toggled").map(|h| h.count), Some(1));
    }

    #[test]
    fn attached_tracer_receives_span_events_in_sequence() {
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        let buf = SharedBuf::default();
        telemetry.attach_trace_writer(Box::new(buf.clone()));
        assert!(telemetry.is_enabled(), "attaching a tracer enables recording");

        drop(telemetry.span("traced").field("interests", 20usize.into()).start());
        drop(telemetry.span("traced").start());
        telemetry.detach_trace_writer();
        // Events after detach are not emitted.
        drop(telemetry.span("traced").start());

        let bytes = buf.0.lock().clone();
        let text = String::from_utf8(bytes).expect("trace output is utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"seq\":0"));
        assert!(lines[0].contains("\"interests\":20"));
        assert!(lines[1].contains("\"seq\":1"));
        // Histogram still saw all three spans (recording stayed enabled).
        assert_eq!(telemetry.snapshot().histogram("traced").map(|h| h.count), Some(3));
    }

    #[test]
    fn failing_sink_counts_trace_drops() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        telemetry.attach_trace_writer(Box::new(Failing));
        drop(telemetry.span("doomed").start());
        drop(telemetry.span("doomed").start());
        let snap = telemetry.snapshot();
        // Both events were dropped, both drops are visible in the snapshot,
        // and the histogram still recorded the spans (metrics are
        // independent of the sink).
        assert_eq!(snap.counter(TRACE_DROPPED_COUNTER), Some(2), "{snap:?}");
        assert_eq!(snap.histogram("doomed").map(|h| h.count), Some(2));
    }

    #[test]
    fn traced_spans_carry_ids_and_parent_links() {
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        let buf = SharedBuf::default();
        telemetry.attach_trace_writer(Box::new(buf.clone()));

        let parent = telemetry.span("outer").start();
        let context = parent.trace_context().expect("tracing spans have identity");
        assert_ne!(context.trace_id, 0);
        assert_ne!(context.parent_span_id, 0);
        drop(telemetry.span("inner").child_of(Some(context)).start());
        drop(parent);
        telemetry.detach_trace_writer();

        let bytes = buf.0.lock().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // The child (dropped first) carries the parent's trace id and span
        // id; the parent is a root of its own trace.
        let trace = format!("\"trace_id\":{}", context.trace_id);
        let parent_link = format!("\"parent_span_id\":{}", context.parent_span_id);
        assert!(lines[0].contains("\"span\":\"inner\""), "{}", lines[0]);
        assert!(lines[0].contains(&trace), "{}", lines[0]);
        assert!(lines[0].contains(&parent_link), "{}", lines[0]);
        assert!(lines[1].contains("\"span\":\"outer\""), "{}", lines[1]);
        assert!(lines[1].contains("\"parent_span_id\":0"), "{}", lines[1]);
        assert!(lines[1].contains(&trace), "{}", lines[1]);
    }

    #[test]
    fn metrics_only_spans_allocate_no_identity() {
        let telemetry = Telemetry::new(&TelemetryConfig::enabled());
        let guard = telemetry.span("plain").start();
        assert!(guard.is_recording());
        assert_eq!(guard.trace_context(), None);
        // Adopting a wire context gives the span identity even without a
        // local sink, so downstream hops can keep the chain alive.
        let ctx = TraceContext { trace_id: 42, parent_span_id: 7 };
        let adopted = telemetry.span("adopted").child_of(Some(ctx)).start();
        let child_ctx = adopted.trace_context().expect("adopted spans have identity");
        assert_eq!(child_ctx.trace_id, 42);
        assert_ne!(child_ctx.parent_span_id, 0);
    }

    #[test]
    fn span_via_source_records_into_cached_histogram() {
        let telemetry = Telemetry::new(&TelemetryConfig::enabled());
        let source = SpanSource::new("sourced");
        for _ in 0..2 {
            drop(telemetry.span_via(&source).start());
        }
        assert_eq!(telemetry.snapshot().histogram("sourced").map(|h| h.count), Some(2));
    }

    #[test]
    fn span_source_on_disabled_telemetry_registers_nothing() {
        let telemetry = Telemetry::new(&TelemetryConfig::disabled());
        let source = SpanSource::new("quiet.sourced");
        drop(telemetry.span_via(&source).start());
        assert!(telemetry.snapshot().histograms.is_empty());
        // Enabling later resolves the handle on the next span through the
        // same source.
        telemetry.set_enabled(true);
        drop(telemetry.span_via(&source).start());
        assert_eq!(telemetry.snapshot().histogram("quiet.sourced").map(|h| h.count), Some(1));
    }

    #[test]
    fn fields_are_discarded_when_no_sink_is_attached_at_span_creation() {
        let telemetry = Telemetry::new(&TelemetryConfig::enabled());
        // Span built before the sink attaches: fields are discarded at the
        // call site (they exist only for the sink), so the event this
        // boundary span emits carries none of them.
        let mut span = telemetry.span("boundary").field("early", 1u64.into()).start();
        let buf = SharedBuf::default();
        telemetry.attach_trace_writer(Box::new(buf.clone()));
        span.annotate("late", 2u64.into());
        drop(span);
        telemetry.detach_trace_writer();
        let bytes = buf.0.lock().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"span\":\"boundary\""), "{text}");
        assert!(!text.contains("early"), "{text}");
        assert!(!text.contains("late"), "{text}");
    }

    #[test]
    fn count_convenience_registers_and_accumulates() {
        let telemetry = Telemetry::new(&TelemetryConfig::enabled());
        telemetry.count("events", 2);
        telemetry.count("events", 3);
        assert_eq!(telemetry.snapshot().counter("events"), Some(5));
    }

    #[test]
    fn global_span_macro_compiles_against_global_instance() {
        // Other tests may have switched the global on; either way the guard
        // must construct and drop cleanly.
        let guard = span!("telemetry.selftest", n = 1u64, label = "unit");
        drop(guard);
        let _ = global().snapshot();
    }
}
