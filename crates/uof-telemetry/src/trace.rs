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

use crate::json::{push_f64, push_i64, push_string, push_u64};
use crate::span::FieldValue;

/// A single trace event, one per completed span.
#[derive(Debug, Clone)]
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

impl TraceEvent {
    /// Appends the event as one JSON object: the scalar keys in declaration
    /// order, then `fields` as an array of one-member objects
    /// (`[{"key":value},…]`).
    fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"span\":");
        push_string(out, &self.span);
        for (key, n) in [
            (&b",\"seq\":"[..], self.seq),
            (b",\"trace_id\":", self.trace_id),
            (b",\"span_id\":", self.span_id),
            (b",\"parent_span_id\":", self.parent_span_id),
            (b",\"start_ns\":", self.start_ns),
            (b",\"dur_ns\":", self.dur_ns),
        ] {
            out.extend_from_slice(key);
            push_u64(out, n);
        }
        out.extend_from_slice(b",\"fields\":[");
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.push(b'{');
            push_string(out, field.key);
            out.push(b':');
            match &field.value {
                FieldValue::U64(v) => push_u64(out, *v),
                FieldValue::I64(v) => push_i64(out, *v),
                FieldValue::F64(v) => push_f64(out, *v),
                FieldValue::Bool(v) => out.extend_from_slice(if *v { b"true" } else { b"false" }),
                FieldValue::Str(v) => push_string(out, v),
            }
            out.push(b'}');
        }
        out.extend_from_slice(b"]}");
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

    /// Writes `event` as one JSON line. I/O errors never propagate —
    /// trace output is advisory and must never disturb the instrumented
    /// computation — but the return value reports whether the event
    /// actually reached the sink, so the caller can count drops (see the
    /// `telemetry.trace.dropped` counter).
    pub fn emit(&self, event: &TraceEvent) -> bool {
        let mut line = Vec::new();
        event.write_json(&mut line);
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

    /// Byte-for-byte the lines the serde-derived writer produced for the
    /// same events: every `FieldValue` variant, non-finite and signed-zero
    /// floats, a float whose `Display` has 22 digits, and strings holding
    /// every kind of escape, DEL, U+2028 and a 4-byte character.
    #[test]
    fn lines_match_the_golden_bytes() {
        const GOLDEN: &str = "{\"span\":\"golden.all\",\"seq\":1,\"trace_id\":18446744073709551615,\"span_id\":2,\"parent_span_id\":0,\"start_ns\":123,\"dur_ns\":456,\"fields\":[{\"u64\":18446744073709551615},{\"i64\":-42},{\"i64_min\":-9223372036854775808},{\"i64_pos\":7},{\"f64\":0.1},{\"nan\":null},{\"inf\":null},{\"neg_zero\":-0},{\"big\":1000000000000000000000},{\"tiny\":0.0000001},{\"whole\":3},{\"yes\":true},{\"no\":false},{\"text\":\"q\\\"b\\\\s/\\n\\r\\t\\b\\f\\u0000\\u0001\\u000b\\u001f\u{7f}é\u{2028}😀\"}]}\n{\"span\":\"odd\\bname\\\"\",\"seq\":0,\"trace_id\":0,\"span_id\":0,\"parent_span_id\":0,\"start_ns\":0,\"dur_ns\":0,\"fields\":[]}\n";
        let buf = SharedBuf::default();
        let tracer = Tracer::new(Box::new(buf.clone()));
        let f = |key, value| TraceField { key, value };
        tracer.emit(&TraceEvent {
            span: "golden.all".into(),
            seq: 1,
            trace_id: u64::MAX,
            span_id: 2,
            parent_span_id: 0,
            start_ns: 123,
            dur_ns: 456,
            fields: vec![
                f("u64", FieldValue::U64(u64::MAX)),
                f("i64", FieldValue::I64(-42)),
                f("i64_min", FieldValue::I64(i64::MIN)),
                f("i64_pos", FieldValue::I64(7)),
                f("f64", FieldValue::F64(0.1)),
                f("nan", FieldValue::F64(f64::NAN)),
                f("inf", FieldValue::F64(f64::INFINITY)),
                f("neg_zero", FieldValue::F64(-0.0)),
                f("big", FieldValue::F64(1e21)),
                f("tiny", FieldValue::F64(1e-7)),
                f("whole", FieldValue::F64(3.0)),
                f("yes", FieldValue::Bool(true)),
                f("no", FieldValue::Bool(false)),
                f(
                    "text",
                    FieldValue::Str(
                        "q\"b\\s/\n\r\t\u{8}\u{c}\u{0}\u{1}\u{b}\u{1f}\u{7f}é\u{2028}😀".into(),
                    ),
                ),
            ],
        });
        tracer.emit(&TraceEvent {
            span: "odd\u{8}name\"".into(),
            seq: 0,
            trace_id: 0,
            span_id: 0,
            parent_span_id: 0,
            start_ns: 0,
            dur_ns: 0,
            fields: Vec::new(),
        });
        assert_eq!(String::from_utf8(buf.0.lock().clone()).unwrap(), GOLDEN);
    }
}
