//! The three metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! All three are **lock-free on the hot path**: recording is one or two
//! relaxed atomic RMW operations, never a lock. Counters are additionally
//! *sharded* across cache-line-padded cells (the same contention-avoidance
//! move as `reach-cache`'s per-shard counters) so that many connection
//! threads incrementing one hot counter do not serialize on a single cache
//! line; each thread is pinned to a cell at first use and reads sum the
//! cells.
//!
//! Like the reach cache's counters, reads are **tear-tolerant**: a snapshot
//! taken while writers are active may be a few events behind, and distinct
//! metrics read as a group are not a consistent cut. After quiescence
//! (writers joined), every read is exact. Observability only — metric
//! values must never feed back into control flow.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of counter cells; a power of two so the thread-slot modulo is a
/// mask. Eight covers the thread counts this workspace runs (pool threads +
/// a handful of connection threads) without making reads expensive.
const CELLS: usize = 8;

/// Next thread slot to hand out (process-wide, monotonically increasing).
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's counter cell, assigned round-robin at first use.
    static THREAD_CELL: usize = NEXT_SLOT.fetch_add(1, Ordering::Relaxed) & (CELLS - 1);
}

/// One counter cell on its own cache line, so increments from threads
/// pinned to different cells never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Cell(AtomicU64);

/// A monotonically increasing event counter, sharded across padded cells.
#[derive(Debug, Default)]
pub struct Counter {
    cells: [Cell; CELLS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events (one relaxed RMW on this thread's cell).
    #[inline]
    pub fn add(&self, n: u64) {
        THREAD_CELL.with(|&cell| self.cells[cell].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Adds one event.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total across all cells (tear-tolerant; exact after
    /// quiescence).
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A point-in-time signed value (in-flight requests, open connections,
/// mirrored residency counts). Unlike a [`Counter`] it can move both ways
/// and be set outright, so it is a single atomic — gauge updates are rare
/// enough that sharding would only blur the value.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Decrements by one.
    #[inline]
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Overwrites the value (mirroring an externally maintained figure,
    /// e.g. cache residency).
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default histogram bucket bounds for durations, in **nanoseconds**:
/// a 1-2-5 ladder from 1 µs to 1 s. Observations above the last bound land
/// in the explicit trailing overflow bucket (`le = u64::MAX` in snapshots)
/// and remain visible through the per-histogram recorded maximum, so a
/// multi-second stall can never hide inside the ladder. Spans record into
/// histograms with these bounds unless the histogram was registered with
/// explicit ones.
pub const LATENCY_BOUNDS_NS: [u64; 19] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

/// A fixed-bucket histogram of `u64` observations (durations in
/// nanoseconds, sizes in bytes, …).
///
/// Bucket bounds are fixed at registration; recording is a linear probe of
/// at most `bounds.len()` comparisons (the bound ladders here are short)
/// plus four relaxed RMWs — no locks, no allocation. The last bucket is an
/// **explicit overflow bucket** for observations above every bound
/// (snapshots report it with `le = u64::MAX`), and the histogram
/// additionally tracks the largest value ever observed so out-of-ladder
/// observations keep their magnitude instead of collapsing into "≥ last
/// bound".
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Box<[u64]>,
    /// One count per bound, plus the trailing overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Largest observed value (0 before any observation).
    max: AtomicU64,
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds. Bounds must be
    /// strictly increasing; out-of-order or duplicate bounds are dropped
    /// rather than rejected (the registry cannot fail registration).
    pub fn new(bounds: &[u64]) -> Self {
        let mut cleaned: Vec<u64> = Vec::with_capacity(bounds.len());
        for &b in bounds {
            if cleaned.last().is_none_or(|&last| b > last) {
                cleaned.push(b);
            }
        }
        let buckets = (0..cleaned.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds: cleaned.into_boxed_slice(),
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// A histogram with the default duration ladder
    /// ([`LATENCY_BOUNDS_NS`]).
    pub fn latency() -> Self {
        Self::new(&LATENCY_BOUNDS_NS)
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// The registered bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest value ever observed (0 before any observation). This is the
    /// figure the registry mirrors into a `<name>.max` gauge so snapshots
    /// keep the magnitude of observations past the last bucket bound.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Snapshots the per-bucket counts (tear-tolerant, like every read
    /// here).
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, c)| BucketCount {
                le: self.bounds.get(i).copied().unwrap_or(u64::MAX),
                count: c.load(Ordering::Relaxed),
            })
            .collect();
        HistogramSnapshot { name: name.to_string(), count: self.count(), sum: self.sum(), buckets }
    }
}

/// One bucket of a serialized histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket (`u64::MAX` = overflow bucket).
    pub le: u64,
    /// Observations that landed in this bucket.
    pub count: u64,
}

/// A serialized histogram, as shipped in a registry snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts, in bound order, overflow last.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Mean observed value, `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Count of non-empty buckets (a quick "did latency data land" probe).
    pub fn populated_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| b.count > 0).count()
    }

    /// Observations that exceeded every registered bound and landed in the
    /// explicit trailing overflow bucket (`le = u64::MAX`).
    pub fn overflow_count(&self) -> u64 {
        self.buckets.last().map(|b| b.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let counter = Arc::new(Counter::new());
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        counter.incr();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        // Quiescent: the sharded read is exact.
        assert_eq!(counter.value(), 8_000);
    }

    #[test]
    fn counter_add_accumulates() {
        let counter = Counter::new();
        counter.add(3);
        counter.add(0);
        counter.add(7);
        assert_eq!(counter.value(), 10);
    }

    #[test]
    fn gauge_moves_both_ways_and_sets() {
        let gauge = Gauge::new();
        gauge.incr();
        gauge.incr();
        gauge.decr();
        assert_eq!(gauge.value(), 1);
        gauge.add(-5);
        assert_eq!(gauge.value(), -4);
        gauge.set(42);
        assert_eq!(gauge.value(), 42);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5_000] {
            h.observe(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1 + 10 + 11 + 100 + 5_000);
        let counts: Vec<u64> = snap.buckets.iter().map(|b| b.count).collect();
        // le=10 gets {1, 10}; le=100 gets {11, 100}; le=1000 empty; overflow
        // gets {5000}.
        assert_eq!(counts, vec![2, 2, 0, 1]);
        assert_eq!(snap.buckets.last().unwrap().le, u64::MAX);
        assert_eq!(snap.populated_buckets(), 3);
        let mean = snap.mean().unwrap();
        assert!((mean - 1024.4).abs() < 1e-9);
    }

    #[test]
    fn histogram_drops_unordered_bounds() {
        let h = Histogram::new(&[10, 5, 10, 20]);
        assert_eq!(h.bounds(), &[10, 20]);
    }

    #[test]
    fn empty_histogram_has_no_mean() {
        let h = Histogram::latency();
        assert_eq!(h.snapshot("t").mean(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn latency_ladder_covers_microseconds_to_seconds() {
        let h = Histogram::latency();
        h.observe(1); // below the first bound
        h.observe(3_000_000_000); // 3 s, overflow
        let snap = h.snapshot("t");
        assert_eq!(snap.buckets.first().unwrap().count, 1);
        assert_eq!(snap.buckets.last().unwrap().count, 1);
    }

    #[test]
    fn out_of_range_observations_overflow_explicitly_and_keep_their_max() {
        // Pins the snapshot semantics for observations past the last
        // bound: they are counted in the explicit overflow bucket
        // (le = u64::MAX), included in count/sum, and their magnitude
        // survives via the recorded max instead of collapsing to "≥ 1 s".
        let h = Histogram::latency();
        assert_eq!(h.max(), 0, "no observation yet");
        h.observe(500); // in-ladder
        h.observe(7_000_000_000); // 7 s: past every bound
        h.observe(2_500_000_000); // 2.5 s: also overflow, smaller
        assert_eq!(h.max(), 7_000_000_000);

        let snap = h.snapshot("t");
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 500 + 7_000_000_000 + 2_500_000_000);
        assert_eq!(snap.overflow_count(), 2);
        assert_eq!(snap.buckets.last().unwrap().le, u64::MAX);
        let in_ladder: u64 = snap.buckets[..snap.buckets.len() - 1].iter().map(|b| b.count).sum();
        assert_eq!(in_ladder, 1, "every non-overflow observation stays in the ladder");
    }
}
