//! The process-global metric registry.
//!
//! A [`Registry`] maps stable string names to shared metric instances.
//! Registration (first use of a name) takes a write lock; every subsequent
//! lookup takes a read lock and clones an `Arc`, and instrumented code is
//! expected to hoist that lookup out of loops — hold the `Arc<Counter>`,
//! not the name. Recording through the held handle touches no lock at all.
//!
//! Names are period-separated paths (`reach.requests.scalar`,
//! `reach_cache.hits`). The registry stores them in sorted order so a
//! [`RegistrySnapshot`] is deterministic: two snapshots of registries that
//! saw the same events compare equal field for field.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// A named collection of counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(found) = self.counters.read().get(name) {
            return Arc::clone(found);
        }
        let mut map = self.counters.write();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Counter::new())))
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(found) = self.gauges.read().get(name) {
            return Arc::clone(found);
        }
        let mut map = self.gauges.write();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Gauge::new())))
    }

    /// The histogram registered under `name`, creating it with `bounds` on
    /// first use. The bounds of an already-registered histogram win — the
    /// first registration fixes the bucket layout for the process lifetime.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(found) = self.histograms.read().get(name) {
            return Arc::clone(found);
        }
        let mut map = self.histograms.write();
        Arc::clone(map.entry(name.to_string()).or_insert_with(|| Arc::new(Histogram::new(bounds))))
    }

    /// The histogram registered under `name` with the default
    /// nanosecond-latency ladder (what `span!` records into).
    pub fn latency_histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &crate::metrics::LATENCY_BOUNDS_NS)
    }

    /// A point-in-time dump of every registered metric, sorted by name.
    /// Tear-tolerant like the underlying counters: values lag in-flight
    /// writers but are exact after quiescence.
    ///
    /// Every histogram additionally contributes a synthesized `<name>.max`
    /// gauge carrying its largest observed value (saturated into `i64`),
    /// so observations past the last bucket bound keep their magnitude in
    /// the snapshot instead of collapsing into the overflow bucket.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .iter()
            .map(|(name, c)| CounterSnapshot { name: name.clone(), value: c.value() })
            .collect();
        let mut gauges: Vec<GaugeSnapshot> = self
            .gauges
            .read()
            .iter()
            .map(|(name, g)| GaugeSnapshot { name: name.clone(), value: g.value() })
            .collect();
        let histograms: Vec<HistogramSnapshot> =
            self.histograms.read().iter().map(|(name, h)| h.snapshot(name)).collect();
        for (name, h) in self.histograms.read().iter() {
            let value = i64::try_from(h.max()).unwrap_or(i64::MAX);
            gauges.push(GaugeSnapshot { name: format!("{name}.max"), value });
        }
        gauges.sort_by(|a, b| a.name.cmp(&b.name));
        RegistrySnapshot { counters, gauges, histograms }
    }
}

/// A serialized counter reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered name.
    pub name: String,
    /// Total at snapshot time.
    pub value: u64,
}

/// A serialized gauge reading.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Registered name.
    pub name: String,
    /// Value at snapshot time.
    pub value: i64,
}

/// A point-in-time dump of a [`Registry`], as shipped over the reach-api
/// wire by the `StatsSnapshot` opcode. Entries are sorted by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// The value of the named counter, `None` if never registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The value of the named gauge, `None` if never registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram, `None` if never registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_instance() {
        let registry = Registry::new();
        let a = registry.counter("reach.requests");
        let b = registry.counter("reach.requests");
        a.incr();
        b.incr();
        assert_eq!(a.value(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn first_histogram_bounds_win() {
        let registry = Registry::new();
        let a = registry.histogram("lat", &[10, 20]);
        let b = registry.histogram("lat", &[999]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.bounds(), &[10, 20]);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let registry = Registry::new();
        registry.counter("z.last").add(3);
        registry.counter("a.first").add(1);
        registry.gauge("mid").set(-7);
        registry.latency_histogram("lat").observe(1_500);

        let snap = registry.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        assert_eq!(snap.counter("z.last"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("mid"), Some(-7));
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.populated_buckets(), 1);
        // The histogram mirrors its recorded max into a synthesized gauge,
        // and the gauge list stays sorted with the mirror in place.
        assert_eq!(snap.gauge("lat.max"), Some(1_500));
        let gauge_names: Vec<&str> = snap.gauges.iter().map(|g| g.name.as_str()).collect();
        let mut sorted = gauge_names.clone();
        sorted.sort_unstable();
        assert_eq!(gauge_names, sorted);
    }
}
