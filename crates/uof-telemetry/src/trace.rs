//! The JSONL trace sink.
//!
//! A [`Tracer`] owns a buffered writer and serializes one JSON object per
//! completed span. Tracing is strictly best-effort: I/O errors are
//! swallowed (a full disk must never take down the reach service or, worse,
//! panic inside a `Drop`), and the sink lives behind a mutex because trace
//! emission is off the hot path — only spans that actually close while a
//! tracer is attached pay for it.

use std::io::Write;

use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::span::FieldValue;

/// A single trace event, one per completed span.
#[derive(Debug, Clone, Serialize)]
pub struct TraceEvent {
    /// Span name (also the histogram the duration was recorded into).
    pub span: String,
    /// Process-wide emission sequence number (total order of completions
    /// as observed by the sink).
    pub seq: u64,
    /// Trace the span belongs to (0 = no identity was allocated).
    pub trace_id: u64,
    /// This span's own id (0 = no identity was allocated).
    pub span_id: u64,
    /// Parent span id (0 = root of its trace).
    pub parent_span_id: u64,
    /// Span start, nanoseconds since the telemetry instance's origin.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Structured fields attached at the call site.
    pub fields: Vec<TraceField>,
}

/// One `key = value` field on a trace event.
#[derive(Debug, Clone)]
pub struct TraceField {
    /// Field name.
    pub key: &'static str,
    /// Field value.
    pub value: FieldValue,
}

impl Serialize for TraceField {
    fn to_value(&self) -> Value {
        Value::Object(vec![(self.key.to_string(), self.value.to_value())])
    }
}

/// A best-effort JSONL writer for trace events.
pub struct Tracer {
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    /// A tracer over an arbitrary writer (tests pass a `Vec<u8>` proxy;
    /// perfbench passes a buffered file).
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        Self { sink: Mutex::new(sink) }
    }

    /// Serializes `event` as one JSON line. Errors (serialization or I/O)
    /// never propagate — trace output is advisory and must never disturb
    /// the instrumented computation — but the return value reports whether
    /// the event actually reached the sink, so the caller can count drops
    /// (see the `telemetry.trace.dropped` counter).
    pub fn emit(&self, event: &TraceEvent) -> bool {
        let Ok(mut line) = serde_json::to_vec(event) else { return false };
        line.push(b'\n');
        let mut sink = self.sink.lock();
        sink.write_all(&line).is_ok()
    }

    /// Flushes the underlying writer (called on detach so tests reading
    /// the file back see every event).
    pub fn flush(&self) {
        let _ = self.sink.lock().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A `Write` proxy into shared memory, so tests can read back what the
    /// tracer wrote after handing ownership of the sink away.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emits_one_json_line_per_event() {
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()));
        for seq in 0..3 {
            let delivered = tracer.emit(&TraceEvent {
                span: "test.span".into(),
                seq,
                trace_id: 7,
                span_id: seq + 1,
                parent_span_id: 0,
                start_ns: 10 * seq,
                dur_ns: 5,
                fields: vec![TraceField { key: "interests", value: FieldValue::U64(seq) }],
            });
            assert!(delivered);
        }
        tracer.flush();
        let bytes = buf.0.lock().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"span\":\"test.span\""));
        assert!(lines[2].contains("\"seq\":2"));
        assert!(lines[1].contains("interests"));
    }

    #[test]
    fn write_errors_are_swallowed_but_reported() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk full"))
            }
        }
        let tracer = Tracer::new(Box::new(Failing));
        // Must not panic, but must report that the line was dropped.
        let delivered = tracer.emit(&TraceEvent {
            span: "s".into(),
            seq: 0,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            start_ns: 0,
            dur_ns: 1,
            fields: Vec::new(),
        });
        assert!(!delivered);
        tracer.flush();
    }
}
