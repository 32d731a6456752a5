//! The geographic targeting universe.
//!
//! Appendix A / Table 3 of the paper: at collection time (January 2017) the
//! FB Ads Manager required an explicit location set of at most 50 locations,
//! so the authors queried the top-50 countries by FB users — 1.5B monthly
//! active users, 81% of the platform. This module embeds that table and
//! assigns countries to simulated users proportionally.

use fbsim_stats::dist::AliasTable;
use rand::Rng;

/// ISO-3166-ish two-letter country code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CountryCode(pub [u8; 2]);

impl CountryCode {
    /// Builds a code from a two-ASCII-letter string.
    ///
    /// # Panics
    ///
    /// Panics if the string is not exactly two ASCII characters — codes are
    /// compile-time constants in this crate.
    pub const fn new(code: &str) -> Self {
        let bytes = code.as_bytes();
        assert!(bytes.len() == 2, "country code must be two characters");
        Self([bytes[0], bytes[1]])
    }

    /// The code as a `&str`.
    pub fn as_str(&self) -> &str {
        // lint:allow(no-unwrap) — invariant: CountryCode bytes are ASCII by construction
        std::str::from_utf8(&self.0).expect("constructed from ASCII")
    }
}

impl std::fmt::Display for CountryCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One row of the targeting universe (Table 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryEntry {
    /// Two-letter code.
    pub code: CountryCode,
    /// Display name.
    pub name: &'static str,
    /// FB users in millions at collection time (January 2017).
    pub users_millions: f64,
}

const fn entry(code: &str, name: &'static str, users_millions: f64) -> CountryEntry {
    CountryEntry { code: CountryCode::new(code), name, users_millions }
}

/// The paper's Table 3: the top-50 countries by FB users, totalling ~1.5B
/// monthly active users (81% of the platform in January 2017).
pub const TARGETING_UNIVERSE: [CountryEntry; 50] = [
    entry("US", "United States", 203.0),
    entry("IN", "India", 161.0),
    entry("BR", "Brazil", 114.0),
    entry("ID", "Indonesia", 91.0),
    entry("MX", "Mexico", 70.0),
    entry("PH", "Philippines", 56.0),
    entry("TR", "Turkey", 46.0),
    entry("TH", "Thailand", 42.0),
    entry("VN", "Vietnam", 42.0),
    entry("GB", "United Kingdom", 39.0),
    entry("EG", "Egypt", 33.0),
    entry("FR", "France", 33.0),
    entry("DE", "Germany", 30.0),
    entry("IT", "Italy", 30.0),
    entry("AR", "Argentina", 29.0),
    entry("PK", "Pakistan", 28.0),
    entry("CO", "Colombia", 26.0),
    entry("JP", "Japan", 26.0),
    entry("BD", "Bangladesh", 23.0),
    entry("ES", "Spain", 23.0),
    entry("CA", "Canada", 22.0),
    entry("MY", "Malaysia", 20.0),
    entry("PE", "Peru", 19.0),
    entry("KR", "South Korea", 18.0),
    entry("TW", "Taiwan", 18.0),
    entry("DZ", "Algeria", 16.0),
    entry("NG", "Nigeria", 16.0),
    entry("AU", "Australia", 15.0),
    entry("IQ", "Iraq", 14.0),
    entry("PL", "Poland", 14.0),
    entry("SA", "Saudi Arabia", 14.0),
    entry("ZA", "South Africa", 14.0),
    entry("MA", "Morocco", 13.0),
    entry("VE", "Venezuela", 13.0),
    entry("CL", "Chile", 12.0),
    entry("MM", "Myanmar", 12.0),
    entry("RU", "Russia", 12.0),
    entry("NL", "Netherlands", 10.0),
    entry("EC", "Ecuador", 9.8),
    entry("RO", "Romania", 8.6),
    entry("AE", "UA Emirates", 7.7),
    entry("NP", "Nepal", 6.7),
    entry("BE", "Belgium", 6.5),
    entry("SE", "Sweden", 6.2),
    entry("TN", "Tunisia", 6.1),
    entry("KE", "Kenya", 6.0),
    entry("PT", "Portugal", 5.9),
    entry("UA", "Ukraine", 5.9),
    entry("GT", "Guatemala", 5.5),
    entry("HU", "Hungary", 5.3),
];

/// Total users (in millions) across the targeting universe.
pub fn universe_total_millions() -> f64 {
    TARGETING_UNIVERSE.iter().map(|c| c.users_millions).sum()
}

/// Index of a country code inside [`TARGETING_UNIVERSE`].
pub fn country_index(code: CountryCode) -> Option<usize> {
    TARGETING_UNIVERSE.iter().position(|c| c.code == code)
}

/// Assigns countries to users proportionally to Table 3.
#[derive(Debug, Clone)]
pub struct CountryAssigner {
    table: AliasTable,
}

impl CountryAssigner {
    /// Builds the assigner from the embedded targeting universe.
    pub fn new() -> Self {
        let weights: Vec<f64> = TARGETING_UNIVERSE.iter().map(|c| c.users_millions).collect();
        Self { table: AliasTable::new(&weights) }
    }

    /// Draws the country index (into [`TARGETING_UNIVERSE`]) for one user.
    pub fn sample_index<R: Rng + ?Sized>(&self, rng: &mut R) -> u16 {
        self.table.sample(rng) as u16
    }

    /// Draws the country code for one user.
    pub fn sample_code<R: Rng + ?Sized>(&self, rng: &mut R) -> CountryCode {
        TARGETING_UNIVERSE[self.sample_index(rng) as usize].code
    }
}

impl Default for CountryAssigner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fifty_countries_totalling_1_5b() {
        assert_eq!(TARGETING_UNIVERSE.len(), 50);
        let total = universe_total_millions();
        // Paper: "These countries accounted for 1.5B active users".
        assert!((1_450.0..=1_560.0).contains(&total), "total {total}M");
    }

    #[test]
    fn codes_unique() {
        let mut codes: Vec<CountryCode> = TARGETING_UNIVERSE.iter().map(|c| c.code).collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 50);
    }

    #[test]
    fn us_and_india_lead() {
        assert_eq!(TARGETING_UNIVERSE[0].code.as_str(), "US");
        assert_eq!(TARGETING_UNIVERSE[0].users_millions, 203.0);
        assert_eq!(TARGETING_UNIVERSE[1].code.as_str(), "IN");
    }

    #[test]
    fn country_index_lookup() {
        assert_eq!(country_index(CountryCode::new("US")), Some(0));
        assert_eq!(country_index(CountryCode::new("HU")), Some(49));
        assert_eq!(country_index(CountryCode::new("ZZ")), None);
    }

    #[test]
    fn assigner_roughly_proportional() {
        let assigner = CountryAssigner::new();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[assigner.sample_index(&mut rng) as usize] += 1;
        }
        let total = universe_total_millions();
        // US expected share 203/1500 ≈ 13.5%.
        let us_share = counts[0] as f64 / n as f64;
        let expected = 203.0 / total;
        assert!((us_share - expected).abs() < 0.01, "US share {us_share} vs {expected}");
        // Every country should appear at this sample size.
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn code_display() {
        assert_eq!(CountryCode::new("ES").to_string(), "ES");
    }
}
