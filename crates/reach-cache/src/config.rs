//! Cache configuration knobs and the stats snapshot reported to clients.

/// Tuning knobs for the reach cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Whether the cache is consulted at all.
    pub enabled: bool,
    /// Max resident entries of each conjunction namespace: the scalar
    /// reaches (one `f64` each) and, separately, the sampled per-block
    /// counts (one `u64` per panel block each).
    pub capacity: usize,
    /// Max resident prefix-sweep entries. Each holds a per-panel-user
    /// product vector (8 bytes × panel size), so the budget is small.
    pub prefix_capacity: usize,
    /// Number of independent shards (locks) per namespace.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self { enabled: true, capacity: 4_096, prefix_capacity: 64, shards: 8 }
    }
}

impl CacheConfig {
    /// Checks the knobs describe a usable cache.
    ///
    /// # Errors
    ///
    /// A human-readable description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("cache capacity must be at least 1".into());
        }
        if self.prefix_capacity == 0 {
            return Err("prefix cache capacity must be at least 1".into());
        }
        if self.shards == 0 {
            return Err("cache shard count must be at least 1".into());
        }
        Ok(())
    }

    /// A disabled configuration (every query recomputes; answers are
    /// bit-identical either way).
    pub fn disabled() -> Self {
        Self { enabled: false, ..Self::default() }
    }
}

/// A point-in-time snapshot of the cache's state and event counters, as
/// reported over the wire by the reach server's `stats` endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whether caching is enabled.
    pub enabled: bool,
    /// Current invalidation epoch (bumped on world mutation).
    pub epoch: u64,
    /// Shard count per namespace.
    pub shards: usize,
    /// Configured conjunction-entry capacity.
    pub capacity: usize,
    /// Resident conjunction entries.
    pub entries: usize,
    /// Conjunction lookups served from cache.
    pub hits: u64,
    /// Conjunction lookups that ran the engine (single-flight leaders).
    pub misses: u64,
    /// Scalar and prefix lookups that blocked on another thread's in-flight
    /// computation.
    pub single_flight_waits: u64,
    /// Conjunction entries written.
    pub insertions: u64,
    /// Conjunction entries displaced by capacity pressure.
    pub evictions: u64,
    /// Stale-epoch entries discarded on access (scalar and prefix
    /// namespaces; the sampled namespace reports through
    /// `ReachCache::sampled_counters`).
    pub invalidations: u64,
    /// Resident prefix-sweep entries.
    pub prefix_entries: usize,
    /// Nested queries answered from a fully cached sequence.
    pub prefix_hits: u64,
    /// Nested queries that computed (from scratch or by extension).
    pub prefix_misses: u64,
    /// Nested computations that resumed a cached shorter prefix instead of
    /// sweeping from scratch.
    pub prefix_extensions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_enabled() {
        let config = CacheConfig::default();
        assert!(config.enabled);
        assert!(config.validate().is_ok());
        assert!(!CacheConfig::disabled().enabled);
    }

    #[test]
    fn validation_rejects_zeroes() {
        for config in [
            CacheConfig { capacity: 0, ..CacheConfig::default() },
            CacheConfig { prefix_capacity: 0, ..CacheConfig::default() },
            CacheConfig { shards: 0, ..CacheConfig::default() },
        ] {
            assert!(config.validate().is_err(), "{config:?} should be rejected");
        }
    }
}
