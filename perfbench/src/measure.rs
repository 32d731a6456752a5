//! Raw-sample statistics, process counters and the result line.

use std::time::Instant;

use xtask::json::Value;

/// Raw per-operation samples. Percentiles are exact nearest-rank values
/// over every sample, never histogram bucket edges.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`: the smallest sample with
    /// at least `q` of all samples at or below it. `0.0` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }

    /// The highest percentile (in percent) that still has at least ten
    /// samples beyond it; `0.0` when there are ten samples or fewer.
    pub fn credible_percentile(&self) -> f64 {
        let n = self.0.len() as f64;
        if n <= 10.0 {
            0.0
        } else {
            100.0 * (1.0 - 10.0 / n)
        }
    }
}

/// A measured phase's op completions, cut into time slices of
/// `seconds / SLICES`.
///
/// The machine is a virtual one whose hypervisor takes CPU time away at
/// times (the `steal` column of `/proc/stat`); the reach engine forks and
/// joins across both CPUs, so a slice with stolen time runs markedly
/// slower. End-to-end figures are therefore medians over the quiet slices
/// (see [`Timeline::quiet`]), and every slice's figures and steal are
/// printed in the run header.
pub struct Timeline {
    start: Instant,
    seconds: f64,
    slice_s: f64,
    next_boundary: f64,
    /// `(ops recorded, seconds, cpu seconds, machine steal seconds)` at
    /// each slice boundary.
    marks: Vec<(usize, f64, f64, f64)>,
    latency_us: Vec<f64>,
}

/// One time slice's figures.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops: usize,
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
    pub cpu_us_per_op: f64,
    /// Machine CPU seconds stolen per second of the slice.
    pub steal: f64,
}

impl Timeline {
    pub const SLICES: usize = 20;
    /// The fewest slices the end-to-end figures are taken over.
    pub const QUIET: usize = 5;
    /// Stolen CPU seconds per second up to which a slice counts as quiet:
    /// at most one 100 Hz steal tick in a slice of a 6-second phase.
    pub const QUIET_STEAL: f64 = 0.05;

    pub fn start(seconds: f64) -> Self {
        let slice_s = seconds / Self::SLICES as f64;
        let (cpu, steal) = (cpu_seconds(), steal_seconds());
        let start = Instant::now();
        Self {
            start,
            seconds,
            slice_s,
            next_boundary: slice_s,
            marks: vec![(0, 0.0, cpu, steal)],
            latency_us: Vec::new(),
        }
    }

    /// Whether the phase should issue another op: until `seconds` have
    /// passed.
    pub fn measuring(&self) -> bool {
        self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Records one completed op.
    pub fn record(&mut self, latency_us: f64) {
        self.latency_us.push(latency_us);
        let t = self.start.elapsed().as_secs_f64();
        if t >= self.next_boundary {
            self.mark(t);
            while self.next_boundary <= t {
                self.next_boundary += self.slice_s;
            }
        }
    }

    fn mark(&mut self, t: f64) {
        self.marks.push((self.latency_us.len(), t, cpu_seconds(), steal_seconds()));
    }

    /// Closes the last slice; returns the phase's wall seconds.
    pub fn finish(&mut self) -> f64 {
        let t = self.start.elapsed().as_secs_f64();
        if self.marks.last().is_some_and(|m| m.0 < self.latency_us.len()) {
            self.mark(t);
        }
        t
    }

    pub fn ops(&self) -> usize {
        self.latency_us.len()
    }

    /// Every op's latency, for sample counts.
    pub fn samples(&self) -> Samples {
        Samples(self.latency_us.clone())
    }

    /// Every slice with ops, skipping a final stub shorter than half a slice.
    pub fn slices(&self) -> Vec<Slice> {
        let mut out = Vec::new();
        for pair in self.marks.windows(2) {
            let ((i0, t0, c0, s0), (i1, t1, c1, s1)) = (pair[0], pair[1]);
            if i1 == i0 || t1 - t0 < self.slice_s / 2.0 {
                continue;
            }
            let n = (i1 - i0) as f64;
            let latency = Samples(self.latency_us[i0..i1].to_vec());
            out.push(Slice {
                ops: i1 - i0,
                throughput: n / (t1 - t0),
                p50: latency.median(),
                p99: latency.percentile(0.99),
                cpu_us_per_op: (c1 - c0) * 1e6 / n,
                steal: (s1 - s0) / (t1 - t0),
            });
        }
        out
    }

    /// The slices the end-to-end figures are taken over: every quiet slice
    /// (steal at most [`Timeline::QUIET_STEAL`]) when there are at least
    /// [`Timeline::QUIET`] of them, else the [`Timeline::QUIET`] least
    /// stolen, ties included.
    pub fn quiet(&self) -> Vec<Slice> {
        let slices = self.slices();
        let calm = slices.iter().filter(|s| s.steal <= Self::QUIET_STEAL).count();
        let mut steal: Vec<f64> = slices.iter().map(|s| s.steal).collect();
        steal.sort_by(f64::total_cmp);
        let Some(&cut) = steal.get(calm.max(Self::QUIET).min(steal.len()).saturating_sub(1)) else {
            return slices;
        };
        slices.into_iter().filter(|s| s.steal <= cut).collect()
    }
}

/// The median of `field` over `slices`.
pub fn median_of(slices: &[Slice], field: impl Fn(&Slice) -> f64) -> f64 {
    Samples(slices.iter().map(field).collect()).median()
}

/// Process user+system CPU seconds, all threads included (Linux
/// `/proc/self/stat`, in `USER_HZ` = 100 ticks per second).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Seconds of CPU time the hypervisor took from this machine's CPUs
/// (the `steal` column of `/proc/stat`, in `USER_HZ` ticks).
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list; a name is set once.
#[derive(Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(self.0.iter().all(|m| m.name != name), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_num(value: f64) -> Value {
    Value::Num(if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    })
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = vec![
                ("value".to_string(), json_num(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Obj(value))
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(attempted.to_string())),
        ("failed".into(), Value::Num(failed.to_string())),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .to_json_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.percentile(0.99), 99.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert_eq!(s.credible_percentile(), 90.0);
    }

    /// A timeline of one-second slices of ten ops, with the given steal.
    fn timeline(steal: &[f64]) -> Timeline {
        let mut marks = vec![(0, 0.0, 0.0, 0.0)];
        let mut total = 0.0;
        for (k, s) in steal.iter().enumerate() {
            total += s;
            marks.push((10 * (k + 1), (k + 1) as f64, 0.0, total));
        }
        Timeline {
            start: Instant::now(),
            seconds: steal.len() as f64,
            slice_s: 1.0,
            next_boundary: 0.0,
            marks,
            latency_us: vec![1.0; 10 * steal.len()],
        }
    }

    #[test]
    fn quiet_slices_are_the_calm_ones_or_else_the_least_stolen() {
        // Six calm slices: every one of them.
        let calm = timeline(&[0.0, 0.5, 0.02, 0.0, 0.3, 0.04, 0.0, 0.01, 0.9, 0.2]);
        assert_eq!(calm.quiet().len(), 6);
        assert!(calm.quiet().iter().all(|s| s.steal <= Timeline::QUIET_STEAL));
        // Two calm slices: the five least stolen.
        let stormy = timeline(&[0.0, 0.5, 0.6, 0.7, 0.3, 0.4, 0.8, 0.01, 0.9, 0.2]);
        let quiet = stormy.quiet();
        assert_eq!(quiet.len(), 5);
        assert!(quiet.iter().all(|s| s.steal < 0.45), "{quiet:?}");
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("a_ms", 1.25, "ms");
        m.set("b", 3.0, "count");
        assert_eq!(
            result_line(true, 5, 0, &m),
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":\
             {\"a_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"b\":{\"value\":3.0,\"unit\":\"count\"}}}"
        );
    }
}
