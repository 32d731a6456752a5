//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <table1|wire-hot|wire-cold|wire-routed|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--scale medium|test]
//! ```
//!
//! Each run sets the workload up several times (`setup_s` is the median of
//! their CPU time), measures for `--seconds`, checks every answer outside
//! the timed phase, prints a header line and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the gated end-to-end metrics (the
//! wall-clock figures go in the header); `--trace 1` makes a separate
//! traced run that reports the per-layer metrics (see `README.md`).
//! `--workload all` runs every workload, each in its own process.

mod check;
mod inputs;
mod layers;
mod measure;
mod table1;
mod wire;

use std::collections::BTreeSet;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::{Kind, Scale};
use measure::{
    cpu_seconds, json_num, median_of, peak_rss_mb, result_line, steal_seconds, Metrics, Samples,
    Slice, Timeline,
};
use reach_api::ReachRequest;
use wire::{Shape, Wire};
use xtask::json::Value;
use xtask::trace_report::SpanRec;

/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUP_REPEATS: usize = 3;
/// Requests in the per-layer probe sample of a wire workload.
const PROBE_OPS: usize = 24;
/// Cohort users in the per-layer probes of `uniqueness` and of `table1`'s
/// requests.
const PROBE_USERS: usize = 8;

pub const WORKLOADS: [&str; 4] = ["table1", "wire-hot", "wire-cold", "wire-routed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scale) =
        (None, 2021u64, 10.0f64, false, Scale::Medium);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => trace = value == "1",
            "--scale" => {
                scale = Scale::parse(&value).ok_or_else(|| format!("bad --scale {value}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?} or all"));
    }
    Ok(Args { workload, seed, seconds, trace, scale })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Pin the process-global telemetry off, whatever UOF_TELEMETRY* says;
    // only the traced phase switches it on.
    let telemetry = uof_telemetry::global();
    telemetry.detach_trace_writer();
    telemetry.set_enabled(false);

    let outcome = if args.trace { traced(&args) } else { untraced(&args) };
    let mut header = header(&args);
    header.extend(outcome.facts);
    println!("{}", Value::Obj(vec![("header".into(), Value::Obj(header))]).to_json_string());
    println!(
        "{}",
        result_line(outcome.failed == 0, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}

/// A finished run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    facts: Vec<(String, Value)>,
}

fn fact(facts: &mut Vec<(String, Value)>, key: &str, value: f64) {
    facts.push((key.to_string(), json_num(value)));
}

/// A figure with its unit, in the shape of a result-line metric.
fn measured(facts: &mut Vec<(String, Value)>, key: &str, value: f64, unit: &str) {
    let figure = vec![("value".into(), json_num(value)), ("unit".into(), Value::Str(unit.into()))];
    facts.push((key.to_string(), Value::Obj(figure)));
}

/// The run header: what was measured, on what.
fn header(args: &Args) -> Vec<(String, Value)> {
    let parallelism =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(0);
    vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("scale".into(), Value::Str(args.scale.name().into())),
        ("seed".into(), Value::Num(args.seed.to_string())),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("rayon_threads".into(), Value::int(rayon::current_num_threads())),
        ("available_parallelism".into(), Value::int(parallelism)),
        ("git_rev".into(), Value::Str(git_rev())),
    ]
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_rev() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(root.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(root.join(reference))
        .or_else(|| {
            read(root.join("packed-refs"))?.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where traced runs write their JSONL span files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One set-up workload.
enum Setup {
    Table1(table1::Table1),
    Wire(Box<Wire>),
}

impl Setup {
    fn new(args: &Args, traced: bool) -> Self {
        match args.workload.as_str() {
            "table1" => Setup::Table1(table1::Table1::setup(args.scale, args.seed)),
            name => {
                let shape = match name {
                    "wire-hot" => Shape::Hot,
                    "wire-cold" => Shape::Cold,
                    _ => Shape::Routed,
                };
                Setup::Wire(Box::new(Wire::setup(
                    shape,
                    args.scale,
                    args.seed,
                    args.seconds,
                    traced,
                )))
            }
        }
    }

    fn setup_parts(&self) -> (f64, f64, f64) {
        match self {
            Setup::Table1(t) => (t.pop.world_s, t.pop.cohort_s, t.warmup_s),
            Setup::Wire(w) => (w.pop.world_s, w.pop.cohort_s, w.warmup_s),
        }
    }

    fn shutdown(self) {
        if let Setup::Wire(w) = self {
            w.shutdown();
        }
    }
}

/// End-to-end figures of one measured phase.
struct EndToEnd {
    ops: usize,
    throughput: f64,
    p50: f64,
    p99: f64,
    cpu_us_per_op: f64,
    samples: Samples,
    slices: Vec<Slice>,
    /// Slices the medians are taken over.
    used: usize,
}

impl EndToEnd {
    /// Medians over the quiet slices of `timeline`.
    fn of(timeline: &Timeline) -> Self {
        let quiet = timeline.quiet();
        Self {
            ops: timeline.ops(),
            throughput: median_of(&quiet, |s| s.throughput),
            p50: median_of(&quiet, |s| s.p50),
            p99: median_of(&quiet, |s| s.p99),
            cpu_us_per_op: median_of(&quiet, |s| s.cpu_us_per_op),
            samples: timeline.samples(),
            slices: timeline.slices(),
            used: quiet.len(),
        }
    }

    fn report(&self, m: &mut Metrics, facts: &mut Vec<(String, Value)>) {
        m.set("cpu_us_per_op", self.cpu_us_per_op, "us");
        // Wall-clock figures are printed with their units, not gated: on a
        // virtual machine whose CPUs the hypervisor takes away for minutes
        // at a time they follow the stolen time more than the program
        // (see README).
        measured(facts, "throughput_ops_s", self.throughput, "1/s");
        measured(facts, "latency_p50_us", self.p50, "us");
        measured(facts, "latency_p99_us", self.p99, "us");
        fact(facts, "latency_samples", self.samples.len() as f64);
        fact(facts, "latency_credible_percentile", self.samples.credible_percentile());
        fact(facts, "latency_p50_us_whole_run", self.samples.median());
        fact(facts, "latency_p99_us_whole_run", self.samples.percentile(0.99));
        let list = |f: &dyn Fn(&Slice) -> f64| {
            Value::Arr(self.slices.iter().map(|s| Value::Num(format!("{:.3}", f(s)))).collect())
        };
        fact(facts, "slices.used", self.used as f64);
        facts.push(("slices.ops".into(), list(&|s| s.ops as f64)));
        facts.push(("slices.throughput_ops_s".into(), list(&|s| s.throughput)));
        facts.push(("slices.latency_p50_us".into(), list(&|s| s.p50)));
        facts.push(("slices.latency_p99_us".into(), list(&|s| s.p99)));
        facts.push(("slices.cpu_us_per_op".into(), list(&|s| s.cpu_us_per_op)));
        facts.push(("slices.steal".into(), list(&|s| s.steal)));
    }
}

fn wire_e2e(phase: &wire::Phase) -> EndToEnd {
    EndToEnd::of(&phase.timeline)
}

/// Table 1: latency from the quiet slices of `collect` calls. Throughput
/// counts the fit: the quiet slices' call rate gives the collect time, to
/// which the fit's time is added. CPU is over the whole phase.
fn table1_e2e(phase: &table1::Phase) -> EndToEnd {
    let mut e2e = EndToEnd::of(&phase.timeline);
    let ops = phase.calls.len() as f64;
    if e2e.throughput > 0.0 {
        e2e.throughput = ops / (ops / e2e.throughput + phase.fit_s);
    }
    e2e.cpu_us_per_op = phase.cpu_s * 1e6 / ops.max(1.0);
    e2e
}

/// Per-class p50s and cache behaviour of a wire phase, for the header.
fn wire_facts(w: &Wire, phase: &wire::Phase, facts: &mut Vec<(String, Value)>) {
    for kind in [Kind::Scalar, Kind::Nested, Kind::Sampled] {
        let mut s = Samples::new();
        for (&op, &latency) in phase.ops.iter().zip(phase.timeline.samples().values()) {
            if w.ops[op as usize].kind == kind {
                s.push(latency);
            }
        }
        if s.len() > 0 {
            fact(facts, &format!("{}.ops", kind.name()), s.len() as f64);
            fact(facts, &format!("{}.latency_p50_us", kind.name()), s.median());
        }
    }
    let (hit, prefix_hit, evictions, extension) = cache_ratios(phase);
    fact(facts, "cache.hit_ratio", hit);
    fact(facts, "cache.prefix_hit_ratio", prefix_hit);
    fact(facts, "cache.evictions", evictions);
    fact(facts, "cache.prefix_extension_share", extension);
    for (k, v) in &w.facts {
        fact(facts, k, *v);
    }
}

/// `(hit ratio, prefix hit ratio, evictions, prefix extension share)` of
/// the measured node's cache over a phase; zeros with no cache on the path.
fn cache_ratios(phase: &wire::Phase) -> (f64, f64, f64, f64) {
    let (Some(a), Some(b)) = (&phase.cache_before, &phase.cache_after) else {
        return (0.0, 0.0, 0.0, 0.0);
    };
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let (hits, misses) = (b.hits - a.hits, b.misses - a.misses);
    let (p_hits, p_misses) = (b.prefix_hits - a.prefix_hits, b.prefix_misses - a.prefix_misses);
    (
        ratio(hits, hits + misses),
        ratio(p_hits, p_hits + p_misses),
        (b.evictions - a.evictions) as f64,
        ratio(b.prefix_extensions - a.prefix_extensions, p_misses),
    )
}

/// An untraced run: repeated set-up, one measured phase, checks.
fn untraced(args: &Args) -> Outcome {
    let (mut wall_s, mut cpu_s, mut steal_s) = (Samples::new(), Samples::new(), Samples::new());
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous set-up first so peak memory is one set-up's.
        if let Some(previous) = kept.take() {
            Setup::shutdown(previous);
        }
        let (t, cpu, steal) = (Instant::now(), cpu_seconds(), steal_seconds());
        kept = Some(Setup::new(args, false));
        wall_s.push(t.elapsed().as_secs_f64());
        cpu_s.push(cpu_seconds() - cpu);
        steal_s.push(steal_seconds() - steal);
    }
    // `setup_s` is CPU time: set-up is compute-bound on every CPU, so its
    // wall time grows with the time the hypervisor steals (see README).
    let setup_s = cpu_s.median();
    let mut setup = kept.expect("at least one set-up");
    let mut metrics = Metrics::default();
    let mut facts = Vec::new();
    let (attempted, failed) = match &mut setup {
        Setup::Table1(t1) => {
            let phase = t1.run(args.seconds, false);
            table1_e2e(&phase).report(&mut metrics, &mut facts);
            metrics.set("setup_s", setup_s, "s");
            metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
            table1_facts(&phase, &mut facts);
            t1.check(&phase)
        }
        Setup::Wire(w) => {
            let phase = w.run(args.seconds, false);
            wire_e2e(&phase).report(&mut metrics, &mut facts);
            metrics.set("setup_s", setup_s, "s");
            metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
            wire_facts(w, &phase, &mut facts);
            (phase.ops.len() as u64, w.check(&[&phase]))
        }
    };
    measured(&mut facts, "setup.wall_s", wall_s.median(), "s");
    fact(&mut facts, "setup.wall_min_s", wall_s.percentile(0.0));
    fact(&mut facts, "setup.wall_max_s", wall_s.percentile(1.0));
    fact(&mut facts, "setup.steal_s", steal_s.median());
    setup.shutdown();
    Outcome { attempted, failed, metrics, facts }
}

fn table1_facts(phase: &table1::Phase, facts: &mut Vec<(String, Value)>) {
    let sweeps: usize = phase.calls.iter().map(|c| c.vectors.len()).sum();
    let audiences: usize = phase.calls.iter().flat_map(|c| c.vectors.rows()).map(Vec::len).sum();
    fact(facts, "sweeps", sweeps as f64);
    fact(facts, "reported_audiences", audiences as f64);
    fact(facts, "fit_s", phase.fit_s);
    if let Ok(table) = &phase.table {
        let values = table1::table_values(table).into_iter().map(json_num).collect();
        facts.push(("np_lp_then_r".into(), Value::Arr(values)));
    }
}

/// The probe sample of `table1`: the first `PROBE_USERS` users' LP and R
/// sequences, as the worldwide nested requests the wire would carry.
fn table1_requests(t1: &table1::Table1, seed: u64) -> Vec<ReachRequest> {
    let mut out = Vec::new();
    for (i, user) in t1.pop.profiles().into_iter().take(PROBE_USERS).enumerate() {
        if user.interests.is_empty() {
            continue;
        }
        for strategy in inputs::STRATEGIES {
            let sequence = inputs::selected_sequence(&t1.pop.world, user, strategy, seed, i);
            out.push(ReachRequest::nested(inputs::worldwide(), sequence));
        }
    }
    out
}

/// The first `PROBE_OPS` distinct requests a wire phase issued.
fn wire_requests(w: &Wire, phase: &wire::Phase) -> Vec<ReachRequest> {
    let mut seen = BTreeSet::new();
    phase
        .ops
        .iter()
        .filter(|&&op| seen.insert(op))
        .take(PROBE_OPS)
        .map(|&op| w.ops[op as usize].request.clone())
        .collect()
}

/// Distinct sampled interests `b` issued that neither set-up nor `a` had
/// already built: the posting lists the server's index had to build.
fn index_builds(w: &Wire, a: &wire::Phase, b: &wire::Phase) -> usize {
    let sampled = |ops: &mut dyn Iterator<Item = usize>| -> BTreeSet<u32> {
        ops.filter(|&op| w.ops[op].kind == Kind::Sampled)
            .flat_map(|op| w.ops[op].request.interests.clone())
            .collect()
    };
    let warm: Vec<usize> = match w.shape {
        Shape::Cold => (0..wire::COLD_WARMUP.min(w.ops.len())).collect(),
        Shape::Hot | Shape::Routed => (0..w.ops.len()).collect(),
    };
    let mut before = sampled(&mut warm.into_iter().chain(a.ops.iter().map(|&op| op as usize)));
    let after = sampled(&mut b.ops.iter().map(|&op| op as usize));
    after.into_iter().filter(|i| before.insert(*i)).count()
}

/// Sum of every echoed engine time in a trace file (client hops to a node
/// or, behind a router, to each shard backend).
fn traced_engine_ns(spans: &[SpanRec]) -> f64 {
    spans
        .iter()
        .filter(|s| s.span == "client.request")
        .filter_map(|s| s.field_u64("server_engine_ns"))
        .map(|ns| ns as f64)
        .sum()
}

/// Total duration of the program's own spans named in `names`.
fn span_ns(spans: &[SpanRec], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.span.as_str()))
        .fold(0.0, |total, s| total + s.dur_ns as f64)
}

/// The reach engine's entry-point spans (`ReachEngine`).
const ENGINE_SPANS: [&str; 3] =
    ["engine.conjunction_reach", "engine.nested_reaches", "engine.sweep_extend"];
/// The posting-list index's spans.
const INDEX_SPANS: [&str; 3] =
    ["engine.index_count", "engine.index_extend", "engine.index_count_blocks"];

/// A traced run: one set-up, an untraced then a traced half of the
/// measured time, then the isolated layer probes.
fn traced(args: &Args) -> Outcome {
    let mut setup = Setup::new(args, true);
    let (world_s, cohort_s, warmup_s) = setup.setup_parts();
    let half = args.seconds / 2.0;
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let sink = std::fs::File::create(&path).expect("create the trace file");
    let telemetry = uof_telemetry::global();

    let mut m = Metrics::default();
    let mut facts = Vec::new();
    let (untraced_e2e, traced_e2e, traced_elapsed_s, requests, attempted, failed);
    let (lp_s, r_s, fit_s);
    let mut echoes = Vec::new();
    let is_wire = matches!(setup, Setup::Wire(_));
    let pop = match &mut setup {
        Setup::Table1(t1) => {
            let a = t1.run(half, false);
            telemetry.attach_trace_writer(Box::new(std::io::BufWriter::new(sink)));
            let b = t1.run(half, true);
            requests = table1_requests(t1, args.seed);
            let replay = layers::traced_replay(&t1.pop, &requests);
            telemetry.detach_trace_writer();
            telemetry.set_enabled(false);
            let engine_ns: f64 = replay.iter().map(|(_, t)| t.engine_ns as f64).sum();
            layers::server_split(&replay, engine_ns, &mut m);
            let call_s = |strategy| {
                let mut s = Samples::new();
                for c in b.calls.iter().filter(|c| c.strategy == strategy) {
                    s.push(c.latency_us / 1e6);
                }
                s.median()
            };
            lp_s = call_s(uniqueness::SelectionStrategy::LeastPopular);
            r_s = call_s(uniqueness::SelectionStrategy::Random);
            fit_s = b.fit_s;
            for (k, v) in [("cache.hit_ratio", 0.0), ("cache.prefix_hit_ratio", 0.0)] {
                m.set(k, v, "ratio");
            }
            m.set("cache.evictions", 0.0, "count");
            m.set("cache.prefix_extension_share", 0.0, "ratio");
            m.set("index.builds", 0.0, "count");
            untraced_e2e = table1_e2e(&a);
            traced_e2e = table1_e2e(&b);
            traced_elapsed_s = b.elapsed_s;
            let (a_att, a_fail) = t1.check(&a);
            let (b_att, b_fail) = t1.check(&b);
            (attempted, failed) = (a_att + b_att, a_fail + b_fail);
            &t1.pop
        }
        Setup::Wire(w) => {
            let a = w.run(half, false);
            telemetry.attach_trace_writer(Box::new(std::io::BufWriter::new(sink)));
            let b = w.run(half, true);
            telemetry.detach_trace_writer();
            telemetry.set_enabled(false);
            echoes = b.echoes.clone();
            (lp_s, r_s, fit_s) = layers::uniqueness(&w.pop, args.scale, args.seed, PROBE_USERS);
            let (hit, prefix_hit, evictions, extension) = cache_ratios(&b);
            m.set("cache.hit_ratio", hit, "ratio");
            m.set("cache.prefix_hit_ratio", prefix_hit, "ratio");
            m.set("cache.evictions", evictions, "count");
            m.set("cache.prefix_extension_share", extension, "ratio");
            m.set("index.builds", index_builds(w, &a, &b) as f64, "count");
            wire_facts(w, &b, &mut facts);
            requests = wire_requests(w, &b);
            untraced_e2e = wire_e2e(&a);
            traced_e2e = wire_e2e(&b);
            traced_elapsed_s = b.elapsed_s;
            attempted = (a.ops.len() + b.ops.len()) as u64;
            failed = w.check(&[&a, &b]);
            &w.pop
        }
    };

    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let spans = xtask::trace_report::parse_trace(&text).unwrap_or_default();
    if is_wire {
        layers::server_split(&echoes, traced_engine_ns(&spans), &mut m);
    }
    // Shares of the traced phase's wall time spent in the program's own
    // engine and index spans (the table1 probe replay runs after the phase
    // and is left out).
    let phase_ns = traced_elapsed_s * 1e9;
    let traced_end_ns = spans
        .iter()
        .filter(|s| s.span == "bench.window" || s.span == "bench.np_table")
        .map(|s| s.start_ns + s.dur_ns)
        .max()
        .unwrap_or(u64::MAX);
    let phase_spans: Vec<SpanRec> =
        spans.iter().filter(|s| s.start_ns <= traced_end_ns).cloned().collect();
    m.set("engine.share_of_op", span_ns(&phase_spans, &ENGINE_SPANS) / phase_ns, "ratio");
    m.set("index.share_of_op", span_ns(&phase_spans, &INDEX_SPANS) / phase_ns, "ratio");
    let analysis = xtask::trace_report::analyze(spans);

    let answers = layers::router(pop, &requests, &mut m);
    layers::proto(&requests, &answers, &mut m);
    layers::engine(pop, &requests, &mut m);
    layers::cache(pop, &requests, &mut m);
    layers::index(pop, &requests, &mut m);
    m.set("uniqueness.collect_lp_s", lp_s, "s");
    m.set("uniqueness.collect_r_s", r_s, "s");
    m.set("uniqueness.np_table_s", fit_s, "s");
    m.set("setup.world_s", world_s, "s");
    m.set("setup.cohort_s", cohort_s, "s");
    m.set("setup.warmup_s", warmup_s, "s");
    m.set(
        "trace.overhead_cpu_us_per_op",
        traced_e2e.cpu_us_per_op - untraced_e2e.cpu_us_per_op,
        "us",
    );
    m.set("trace.overhead_p50_us", traced_e2e.p50 - untraced_e2e.p50, "us");
    m.set("trace.complete_traces", analysis.complete_traces() as f64, "count");
    fact(&mut facts, "untraced.ops", untraced_e2e.ops as f64);
    fact(&mut facts, "untraced.latency_p50_us", untraced_e2e.p50);
    fact(&mut facts, "untraced.cpu_us_per_op", untraced_e2e.cpu_us_per_op);
    fact(&mut facts, "traced.ops", traced_e2e.ops as f64);
    fact(&mut facts, "traced.throughput_ops_s", traced_e2e.throughput);
    fact(&mut facts, "traced.latency_p50_us", traced_e2e.p50);
    fact(&mut facts, "traced.cpu_us_per_op", traced_e2e.cpu_us_per_op);
    fact(&mut facts, "trace.spans", analysis.spans.len() as f64);
    fact(&mut facts, "trace.traces", analysis.traces.len() as f64);
    fact(&mut facts, "probe.requests", requests.len() as f64);
    facts.push(("trace.file".into(), Value::Str(path.display().to_string())));
    setup.shutdown();
    Outcome { attempted, failed, metrics: m, facts }
}

/// `--workload all`: every workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .args(["--scale", args.scale.name()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let Ok(output) = output else {
            eprintln!("perfbench: could not run {workload}");
            return ExitCode::FAILURE;
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let _ = std::io::stdout().flush();
        let result = stdout.lines().last().and_then(|last| xtask::json::parse_lenient(last).ok());
        match result {
            Some(result) if output.status.success() => lines.push((workload.to_string(), result)),
            _ => {
                eprintln!("perfbench: {workload} failed ({})", output.status);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", Value::Obj(vec![("workloads".into(), Value::Obj(lines))]).to_json_string());
    ExitCode::SUCCESS
}
