//! The landing-page click log.
//!
//! Section 2.3 / 5.1: every ad creativity links to a distinct landing page
//! on the authors' web server; a click creates a log entry with a timestamp
//! and the client IP. To protect non-target users the IP is pseudonymised
//! with a secret-keyed hash before storage — the log can tell *distinct*
//! sources apart (upper-bounding distinct users) without storing addresses.

/// A pseudonymised IP: the keyed hash of the original address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PseudonymizedIp(pub u64);

/// Keyed pseudonymisation: SipHash-like mixing of the address with a secret
/// key. Deterministic per key (the same source maps to the same pseudonym,
/// enabling distinct-count queries) and non-invertible without the key.
pub fn pseudonymize(ip: [u8; 4], secret_key: u64) -> PseudonymizedIp {
    let mut z = u64::from(u32::from_be_bytes(ip)) ^ secret_key;
    // splitmix64 finaliser rounds.
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    PseudonymizedIp(z)
}

/// One click-log record.
#[derive(Debug, Clone, PartialEq)]
pub struct ClickRecord {
    /// Landing page hit (one per campaign creativity).
    pub landing_url: String,
    /// Active-time timestamp of the click, hours since campaign launch.
    pub timestamp_hours: f64,
    /// Pseudonymised source address.
    pub source: PseudonymizedIp,
}

/// The web server's click log.
#[derive(Debug, Clone, Default)]
pub struct ClickLog {
    records: Vec<ClickRecord>,
}

impl ClickLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a click. The raw IP never enters the log; only its keyed
    /// pseudonym is stored.
    pub fn record(&mut self, landing_url: &str, timestamp_hours: f64, ip: [u8; 4], key: u64) {
        self.records.push(ClickRecord {
            landing_url: landing_url.to_string(),
            timestamp_hours,
            source: pseudonymize(ip, key),
        });
    }

    /// All records for one landing page.
    pub fn for_landing(&self, landing_url: &str) -> Vec<&ClickRecord> {
        self.records.iter().filter(|r| r.landing_url == landing_url).collect()
    }

    /// Clicks on one landing page.
    pub fn click_count(&self, landing_url: &str) -> usize {
        self.for_landing(landing_url).len()
    }

    /// Distinct pseudonymised sources for one landing page — the paper's
    /// upper bound on distinct clicking users.
    pub fn unique_sources(&self, landing_url: &str) -> usize {
        let mut sources: Vec<PseudonymizedIp> =
            self.for_landing(landing_url).iter().map(|r| r.source).collect();
        sources.sort();
        sources.dedup();
        sources.len()
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudonym_deterministic_per_key() {
        let ip = [192, 168, 1, 10];
        assert_eq!(pseudonymize(ip, 42), pseudonymize(ip, 42));
        assert_ne!(pseudonymize(ip, 42), pseudonymize(ip, 43));
    }

    #[test]
    fn distinct_ips_distinct_pseudonyms() {
        // No collisions among a few thousand realistic addresses.
        let mut seen = std::collections::HashSet::new();
        for a in 0..20u8 {
            for b in 0..20u8 {
                for c in 0..10u8 {
                    assert!(seen.insert(pseudonymize([10, a, b, c], 7)));
                }
            }
        }
    }

    #[test]
    fn raw_ip_not_recoverable_from_log() {
        let mut log = ClickLog::new();
        log.record("https://fdvt.example/c1", 1.5, [203, 0, 113, 7], 0x5EC2E7);
        let shown = format!("{log:?}");
        assert!(!shown.contains("203"), "{shown}");
    }

    #[test]
    fn per_landing_counts() {
        let mut log = ClickLog::new();
        let key = 99;
        log.record("lp1", 0.5, [1, 1, 1, 1], key);
        log.record("lp1", 1.0, [1, 1, 1, 1], key);
        log.record("lp1", 2.0, [2, 2, 2, 2], key);
        log.record("lp2", 3.0, [3, 3, 3, 3], key);
        assert_eq!(log.click_count("lp1"), 3);
        assert_eq!(log.unique_sources("lp1"), 2);
        assert_eq!(log.click_count("lp2"), 1);
        assert_eq!(log.click_count("lp3"), 0);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn timestamps_preserved() {
        let mut log = ClickLog::new();
        log.record("lp", 12.25, [9, 9, 9, 9], 1);
        assert_eq!(log.for_landing("lp")[0].timestamp_hours, 12.25);
    }
}
