//! Offline trace analysis for the JSONL span sink (`uof-telemetry`).
//!
//! `cargo run -p xtask -- trace-report <FILE>` reads a trace file, rebuilds
//! the parent→child span trees from the `trace_id` / `span_id` /
//! `parent_span_id` links, and reports:
//!
//! * per-span-name duration percentiles (p50/p95/p99, nearest-rank) and
//!   counts;
//! * per-hop latency decomposition for `client.request` spans that carry a
//!   server-timing echo — wire time, server queue, engine time, and cache /
//!   handler overhead, each as a percentile distribution;
//! * frame-queue distributions per frame span (`server.frame`,
//!   `router.frame`), from their `queue_ns` field;
//! * critical-path attribution for fan-outs: when one parent has shard-
//!   labelled `client.request` children, which shard straggled and by how
//!   much (the gap to the second-slowest shard — the time a perfect
//!   rebalance of that one request would have saved);
//! * slowest complete-trace exemplars.
//!
//! All output is deterministic: spans are ordered by `(start_ns, seq)`,
//! ties broken by explicit keys, and the JSON form is canonical ([`json`])
//! so the same trace file always produces the same bytes. The input parser
//! is the *lenient* JSON reader — span fields may be `f64` — but every
//! reported quantity is an integer nanosecond count or a plain count, so
//! the report itself round-trips through the strict parser.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// One span record parsed from a trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Span name.
    pub span: String,
    /// Sink emission sequence number.
    pub seq: u64,
    /// Trace the span belongs to (0 = no identity allocated).
    pub trace_id: u64,
    /// The span's own id (0 = no identity allocated).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
    /// Start, ns since the process's telemetry origin.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Structured fields (key → raw JSON value), in emission order.
    pub fields: Vec<(String, Value)>,
}

impl SpanRec {
    /// Looks up a field as a `u64` (integer-valued fields only).
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        })
    }

    /// Looks up a boolean field.
    pub fn field_bool(&self, key: &str) -> Option<bool> {
        self.fields.iter().find(|(k, _)| k == key).and_then(|(_, v)| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }
}

/// Parses a JSONL trace document into span records.
///
/// Blank lines are skipped. A torn final line (the tracer is best-effort
/// and a process may die mid-write) is tolerated **only** at end-of-input;
/// a malformed line elsewhere is an error carrying the 1-based line number.
///
/// # Errors
///
/// A description of the first malformed interior line.
pub fn parse_trace(text: &str) -> Result<Vec<SpanRec>, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut spans = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line) {
            Ok(rec) => spans.push(rec),
            Err(err) if idx + 1 == lines.len() => {
                // Torn tail write: ignore, the rest of the file stands.
                let _ = err;
            }
            Err(err) => return Err(format!("line {}: {err}", idx + 1)),
        }
    }
    Ok(spans)
}

fn parse_line(line: &str) -> Result<SpanRec, String> {
    let value = json::parse_lenient(line)?;
    let span = match value.get("span") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err("missing span name".into()),
    };
    let num = |key: &str| -> Result<u64, String> {
        match value.get(key) {
            Some(Value::Num(raw)) => raw.parse().map_err(|_| format!("non-u64 `{key}`: {raw}")),
            _ => Err(format!("missing `{key}`")),
        }
    };
    let fields = match value.get("fields") {
        Some(Value::Arr(items)) => items
            .iter()
            .filter_map(|item| match item {
                Value::Obj(members) => members.first().cloned(),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    Ok(SpanRec {
        span,
        seq: num("seq")?,
        trace_id: num("trace_id")?,
        span_id: num("span_id")?,
        parent_span_id: num("parent_span_id")?,
        start_ns: num("start_ns")?,
        dur_ns: num("dur_ns")?,
        fields,
    })
}

/// One reconstructed trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceTree {
    /// The shared trace id.
    pub trace_id: u64,
    /// Indexes into the analysis's span vector, ordered `(start_ns, seq)`.
    pub spans: Vec<usize>,
    /// Index of the root span (`parent_span_id == 0`), if exactly one.
    pub root: Option<usize>,
    /// Spans whose non-zero parent id is absent from this trace.
    pub orphans: usize,
    /// Complete: one root, every parent link resolves, and at least one
    /// child — the wire actually carried the context to another hop.
    pub complete: bool,
}

/// A fan-out observed in a trace: one parent with shard-labelled
/// `client.request` children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fanout {
    /// Trace it occurred in.
    pub trace_id: u64,
    /// The parent span's name (e.g. `reach.request.scalar`).
    pub parent_span: String,
    /// Number of shard children.
    pub width: usize,
    /// Shard index of the slowest child.
    pub straggler_shard: u64,
    /// The straggler's duration.
    pub straggler_dur_ns: u64,
    /// Gap to the second-slowest shard — the critical-path excess the
    /// straggler alone contributed.
    pub excess_ns: u64,
}

/// The full analysis of a parsed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// All parsed spans, ordered `(trace_id, start_ns, seq)`.
    pub spans: Vec<SpanRec>,
    /// Spans with `trace_id == 0` (no identity was allocated — tracing was
    /// enabled mid-run or the span predates context adoption).
    pub identityless: usize,
    /// Reconstructed trees, ordered by trace id.
    pub traces: Vec<TraceTree>,
    /// Fan-outs, ordered `(trace_id, parent span id)`.
    pub fanouts: Vec<Fanout>,
}

impl Analysis {
    /// Number of complete traces.
    pub fn complete_traces(&self) -> usize {
        self.traces.iter().filter(|t| t.complete).count()
    }
}

/// Reconstructs trace trees and fan-outs from parsed spans.
pub fn analyze(mut spans: Vec<SpanRec>) -> Analysis {
    spans.sort_by_key(|s| (s.trace_id, s.start_ns, s.seq));
    let identityless = spans.iter().filter(|s| s.trace_id == 0).count();

    let mut by_trace: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if span.trace_id != 0 {
            by_trace.entry(span.trace_id).or_default().push(i);
        }
    }

    let mut traces = Vec::new();
    let mut fanouts = Vec::new();
    for (trace_id, members) in by_trace {
        let ids: BTreeMap<u64, usize> = members.iter().map(|&i| (spans[i].span_id, i)).collect();
        let roots: Vec<usize> =
            members.iter().copied().filter(|&i| spans[i].parent_span_id == 0).collect();
        let orphans = members
            .iter()
            .filter(|&&i| {
                spans[i].parent_span_id != 0 && !ids.contains_key(&spans[i].parent_span_id)
            })
            .count();
        let root = if roots.len() == 1 { Some(roots[0]) } else { None };
        let complete = root.is_some() && orphans == 0 && members.len() > 1;

        // Fan-outs: group shard-labelled client.request children by parent.
        let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for &i in &members {
            let s = &spans[i];
            if s.span == "client.request" && s.field_u64("shard").is_some() {
                children.entry(s.parent_span_id).or_default().push(i);
            }
        }
        for (parent_id, kids) in children {
            if kids.len() < 2 {
                continue;
            }
            // Slowest first; ties broken by shard index so attribution is
            // stable even for identical durations.
            let mut by_dur: Vec<(u64, u64)> = kids
                .iter()
                .map(|&i| (spans[i].dur_ns, spans[i].field_u64("shard").unwrap_or(u64::MAX)))
                .collect();
            by_dur.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
            let parent_span = ids
                .get(&parent_id)
                .map_or_else(|| "<missing parent>".to_string(), |&i| spans[i].span.clone());
            fanouts.push(Fanout {
                trace_id,
                parent_span,
                width: by_dur.len(),
                straggler_shard: by_dur[0].1,
                straggler_dur_ns: by_dur[0].0,
                excess_ns: by_dur[0].0 - by_dur[1].0,
            });
        }

        traces.push(TraceTree { trace_id, spans: members, root, orphans, complete });
    }

    Analysis { spans, identityless, traces, fanouts }
}

/// Nearest-rank percentile of a **sorted** slice; 0 for empty input.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * pct).div_ceil(100).max(1);
    sorted[rank - 1]
}

fn dist(label: &str, mut values: Vec<u64>) -> Value {
    values.sort_unstable();
    Value::Obj(vec![
        ("name".into(), Value::Str(label.into())),
        ("count".into(), Value::int(values.len())),
        ("p50_ns".into(), Value::Num(percentile(&values, 50).to_string())),
        ("p95_ns".into(), Value::Num(percentile(&values, 95).to_string())),
        ("p99_ns".into(), Value::Num(percentile(&values, 99).to_string())),
        ("max_ns".into(), Value::Num(values.last().copied().unwrap_or(0).to_string())),
    ])
}

/// Renders the canonical JSON report for an analysis.
///
/// `exemplars` bounds the slowest-complete-trace list.
pub fn report_json(analysis: &Analysis, exemplars: usize) -> String {
    let spans = &analysis.spans;

    // Per-span-name duration distributions.
    let mut per_span: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        per_span.entry(&s.span).or_default().push(s.dur_ns);
    }
    let per_span: Vec<Value> = per_span.into_iter().map(|(name, durs)| dist(name, durs)).collect();

    // Hop decomposition over echo-carrying client.request spans.
    let mut wire = Vec::new();
    let mut server_queue = Vec::new();
    let mut engine = Vec::new();
    let mut cache_layer = Vec::new();
    let mut cache_hits = 0usize;
    let mut echoes = 0usize;
    for s in spans.iter().filter(|s| s.span == "client.request") {
        let (Some(queue), Some(handler)) =
            (s.field_u64("server_queue_ns"), s.field_u64("server_handler_ns"))
        else {
            continue;
        };
        echoes += 1;
        let eng = s.field_u64("server_engine_ns").unwrap_or(0);
        wire.push(s.dur_ns.saturating_sub(queue + handler));
        server_queue.push(queue);
        engine.push(eng);
        cache_layer.push(handler.saturating_sub(eng));
        if s.field_bool("server_cache_hit") == Some(true) {
            cache_hits += 1;
        }
    }
    let hops = Value::Obj(vec![
        ("echoes".into(), Value::int(echoes)),
        ("cache_hits".into(), Value::int(cache_hits)),
        (
            "decomposition".into(),
            Value::Arr(vec![
                dist("wire", wire),
                dist("server_queue", server_queue),
                dist("engine", engine),
                dist("cache_layer", cache_layer),
            ]),
        ),
    ]);

    // Frame-queue distributions (the `queue_ns` field on *.frame spans).
    let mut queues: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        if let Some(q) = s.field_u64("queue_ns") {
            queues.entry(&s.span).or_default().push(q);
        }
    }
    let queues: Vec<Value> = queues.into_iter().map(|(name, qs)| dist(name, qs)).collect();

    // Fan-out / straggler attribution, aggregated per shard.
    let mut per_shard: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for f in &analysis.fanouts {
        let entry = per_shard.entry(f.straggler_shard).or_default();
        entry.0 += 1;
        entry.1 += f.excess_ns;
    }
    let stragglers: Vec<Value> = per_shard
        .into_iter()
        .map(|(shard, (count, excess))| {
            Value::Obj(vec![
                ("shard".into(), Value::Num(shard.to_string())),
                ("straggler_count".into(), Value::int(count)),
                ("excess_ns".into(), Value::Num(excess.to_string())),
            ])
        })
        .collect();
    let mut worst_fanouts: Vec<&Fanout> = analysis.fanouts.iter().collect();
    worst_fanouts.sort_by(|a, b| (b.excess_ns, a.trace_id).cmp(&(a.excess_ns, b.trace_id)));
    let worst_fanouts: Vec<Value> = worst_fanouts
        .iter()
        .take(exemplars)
        .map(|f| {
            Value::Obj(vec![
                ("trace_id".into(), Value::Num(f.trace_id.to_string())),
                ("parent".into(), Value::Str(f.parent_span.clone())),
                ("width".into(), Value::int(f.width)),
                ("straggler_shard".into(), Value::Num(f.straggler_shard.to_string())),
                ("straggler_dur_ns".into(), Value::Num(f.straggler_dur_ns.to_string())),
                ("excess_ns".into(), Value::Num(f.excess_ns.to_string())),
            ])
        })
        .collect();

    // Slowest complete-trace exemplars, by root duration.
    let mut complete: Vec<&TraceTree> = analysis.traces.iter().filter(|t| t.complete).collect();
    complete.sort_by(|a, b| {
        let da = a.root.map_or(0, |i| spans[i].dur_ns);
        let db = b.root.map_or(0, |i| spans[i].dur_ns);
        (db, a.trace_id).cmp(&(da, b.trace_id))
    });
    let exemplar_values: Vec<Value> = complete
        .iter()
        .take(exemplars)
        .map(|t| {
            let root = t.root.map(|i| &spans[i]);
            Value::Obj(vec![
                ("trace_id".into(), Value::Num(t.trace_id.to_string())),
                ("root".into(), Value::Str(root.map_or(String::new(), |r| r.span.clone()))),
                ("dur_ns".into(), Value::Num(root.map_or(0, |r| r.dur_ns).to_string())),
                ("spans".into(), Value::int(t.spans.len())),
            ])
        })
        .collect();

    let summary = Value::Obj(vec![
        ("spans".into(), Value::int(spans.len())),
        ("identityless".into(), Value::int(analysis.identityless)),
        ("traces".into(), Value::int(analysis.traces.len())),
        ("complete".into(), Value::int(analysis.complete_traces())),
        ("orphans".into(), Value::int(analysis.traces.iter().map(|t| t.orphans).sum())),
        ("fanouts".into(), Value::int(analysis.fanouts.len())),
    ]);
    Value::Obj(vec![
        ("summary".into(), summary),
        ("per_span".into(), Value::Arr(per_span)),
        ("hops".into(), hops),
        ("queues".into(), Value::Arr(queues)),
        ("stragglers".into(), Value::Arr(stragglers)),
        ("worst_fanouts".into(), Value::Arr(worst_fanouts)),
        ("exemplars".into(), Value::Arr(exemplar_values)),
    ])
    .to_json_string()
}

/// Renders the human-readable report.
pub fn report_text(analysis: &Analysis, exemplars: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let spans = &analysis.spans;
    let _ = writeln!(
        out,
        "trace-report: {} span(s), {} trace(s) ({} complete), {} identityless, {} fan-out(s)",
        spans.len(),
        analysis.traces.len(),
        analysis.complete_traces(),
        analysis.identityless,
        analysis.fanouts.len(),
    );

    let mut per_span: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        per_span.entry(&s.span).or_default().push(s.dur_ns);
    }
    for (name, mut durs) in per_span {
        durs.sort_unstable();
        let _ = writeln!(
            out,
            "  {name}: n={} p50={}ns p95={}ns p99={}ns max={}ns",
            durs.len(),
            percentile(&durs, 50),
            percentile(&durs, 95),
            percentile(&durs, 99),
            durs.last().copied().unwrap_or(0),
        );
    }

    let mut per_shard: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for f in &analysis.fanouts {
        let entry = per_shard.entry(f.straggler_shard).or_default();
        entry.0 += 1;
        entry.1 += f.excess_ns;
    }
    for (shard, (count, excess)) in per_shard {
        let _ = writeln!(
            out,
            "  straggler shard {shard}: {count} fan-out(s), {excess}ns critical-path excess"
        );
    }

    let mut complete: Vec<&TraceTree> = analysis.traces.iter().filter(|t| t.complete).collect();
    complete.sort_by(|a, b| {
        let da = a.root.map_or(0, |i| spans[i].dur_ns);
        let db = b.root.map_or(0, |i| spans[i].dur_ns);
        (db, a.trace_id).cmp(&(da, b.trace_id))
    });
    for t in complete.iter().take(exemplars) {
        let root = t.root.map(|i| &spans[i]);
        let _ = writeln!(
            out,
            "  exemplar trace {}: root {} {}ns, {} span(s)",
            t.trace_id,
            root.map_or("?", |r| r.span.as_str()),
            root.map_or(0, |r| r.dur_ns),
            t.spans.len(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(
        span: &str,
        seq: u64,
        ids: (u64, u64, u64),
        start_ns: u64,
        dur_ns: u64,
        fields: &str,
    ) -> String {
        format!(
            "{{\"span\":\"{span}\",\"seq\":{seq},\"trace_id\":{},\"span_id\":{},\
             \"parent_span_id\":{},\"start_ns\":{start_ns},\"dur_ns\":{dur_ns},\
             \"fields\":[{fields}]}}",
            ids.0, ids.1, ids.2
        )
    }

    #[test]
    fn parses_spans_fields_and_tolerates_torn_tail() {
        let text = format!(
            "{}\n{}\n{{\"span\":\"torn",
            line("client.request", 0, (9, 1, 0), 5, 100, "{\"id\":4},{\"f\":1.5}"),
            line("server.frame", 1, (9, 2, 1), 10, 50, "{\"queue_ns\":7}"),
        );
        let spans = parse_trace(&text).expect("parses");
        assert_eq!(spans.len(), 2, "torn tail line skipped");
        assert_eq!(spans[0].field_u64("id"), Some(4));
        assert_eq!(spans[0].field_u64("f"), None, "floats are not u64 fields");
        assert_eq!(spans[1].field_u64("queue_ns"), Some(7));
        // The same torn line in the interior is a hard error.
        let bad = format!("{{\"span\":\"torn\n{}", line("a", 0, (1, 1, 0), 0, 1, ""));
        assert!(parse_trace(&bad).is_err());
    }

    #[test]
    fn reconstructs_trees_and_flags_completeness() {
        let text = [
            line("client.request", 0, (9, 1, 0), 0, 100, ""),
            line("server.frame", 1, (9, 2, 1), 10, 80, ""),
            line("reach.request.scalar", 2, (9, 3, 2), 20, 60, ""),
            // A second trace with an unresolved parent link: not complete.
            line("server.frame", 3, (11, 5, 4), 0, 10, ""),
            // An identityless span joins no trace.
            line("lonely", 4, (0, 0, 0), 0, 1, ""),
        ]
        .join("\n");
        let analysis = analyze(parse_trace(&text).expect("parses"));
        assert_eq!(analysis.identityless, 1);
        assert_eq!(analysis.traces.len(), 2);
        assert_eq!(analysis.complete_traces(), 1);
        let t9 = &analysis.traces[0];
        assert_eq!(t9.trace_id, 9);
        assert!(t9.complete && t9.orphans == 0);
        assert_eq!(t9.spans.len(), 3);
        assert_eq!(analysis.spans[t9.root.expect("root")].span, "client.request");
        let t11 = &analysis.traces[1];
        assert!(!t11.complete);
        assert_eq!(t11.orphans, 1);
    }

    #[test]
    fn attributes_the_fanout_straggler() {
        let text = [
            line("reach.request.scalar", 0, (9, 1, 0), 0, 900, ""),
            line("client.request", 1, (9, 2, 1), 10, 300, "{\"shard\":0}"),
            line("client.request", 2, (9, 3, 1), 10, 700, "{\"shard\":1}"),
            line("client.request", 3, (9, 4, 1), 10, 250, "{\"shard\":2}"),
        ]
        .join("\n");
        let analysis = analyze(parse_trace(&text).expect("parses"));
        assert_eq!(analysis.fanouts.len(), 1);
        let f = &analysis.fanouts[0];
        assert_eq!(f.parent_span, "reach.request.scalar");
        assert_eq!(f.width, 3);
        assert_eq!(f.straggler_shard, 1);
        assert_eq!(f.straggler_dur_ns, 700);
        assert_eq!(f.excess_ns, 400, "gap to the second-slowest shard");
    }

    #[test]
    fn report_json_is_canonical_and_integer_only() {
        let text = [
            line(
                "client.request",
                0,
                (9, 1, 0),
                0,
                100,
                concat!(
                    "{\"id\":1},{\"server_queue_ns\":5},{\"server_handler_ns\":40},",
                    "{\"server_engine_ns\":30},{\"server_cache_hit\":false}"
                ),
            ),
            line("server.frame", 1, (9, 2, 1), 10, 80, "{\"queue_ns\":5}"),
            line("reach.request.scalar", 2, (9, 3, 2), 20, 60, "{\"engine_ns\":30}"),
        ]
        .join("\n");
        let analysis = analyze(parse_trace(&text).expect("parses"));
        let report = report_json(&analysis, 3);
        // The report round-trips through the STRICT parser: everything in
        // it is an integer, and the bytes are canonical.
        let value = json::parse(&report).expect("strict parse");
        assert_eq!(value.to_json_string(), report);
        let summary = value.get("summary").expect("summary");
        assert_eq!(summary.get("complete"), Some(&Value::Num("1".into())));
        let hops = value.get("hops").expect("hops");
        assert_eq!(hops.get("echoes"), Some(&Value::Num("1".into())));
        // wire = 100 - 5 - 40 = 55; cache_layer = 40 - 30 = 10.
        let decomposition = match hops.get("decomposition") {
            Some(Value::Arr(items)) => items,
            other => panic!("decomposition: {other:?}"),
        };
        assert_eq!(decomposition[0].get("p50_ns"), Some(&Value::Num("55".into())));
        assert_eq!(decomposition[3].get("p50_ns"), Some(&Value::Num("10".into())));
        let text_report = report_text(&analysis, 3);
        assert!(text_report.contains("1 complete"), "{text_report}");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[7], 99), 7);
        assert_eq!(percentile(&[], 50), 0);
    }
}
