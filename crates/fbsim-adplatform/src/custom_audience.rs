//! Custom Audiences: PII-list targeting and its known bypass.
//!
//! Section 2.1 / 7.2.2: an advertiser can upload a list of PII items
//! (emails, phone numbers); FB matches them to registered users. Two rules
//! apply: the advertiser is responsible for consent, and the list must
//! contain at least 100 records. The literature shows the minimum is
//! toothless — pad the list with unreachable accounts (ad-blocker users,
//! dormant accounts) and refine so only one real user matches. This module
//! models the mechanism so the §8.3 *active-audience* countermeasure can be
//! evaluated against it.

/// Minimum records in a custom-audience list (FB's current rule).
pub const MIN_LIST_SIZE: usize = 100;

/// One PII record in an upload list. The simulator stores only a keyed hash
/// of the PII item (as FB's upload flow does) plus ground-truth match state.
#[derive(Debug, Clone, PartialEq)]
pub struct PiiRecord {
    /// Hash of the uploaded PII item (email / phone).
    pub pii_hash: u64,
    /// Whether the item matches a registered account at all.
    pub matches_account: bool,
    /// Whether the matched account is *active* (reachable by ads). Padding
    /// lists with matched-but-unreachable accounts is the bypass.
    pub account_active: bool,
}

impl PiiRecord {
    /// A record matching an active, reachable account.
    pub fn active(pii_hash: u64) -> Self {
        Self { pii_hash, matches_account: true, account_active: true }
    }

    /// A record matching an account ads cannot reach (dormant, ad-blocked).
    pub fn unreachable(pii_hash: u64) -> Self {
        Self { pii_hash, matches_account: true, account_active: false }
    }

    /// A record matching no account.
    pub fn unmatched(pii_hash: u64) -> Self {
        Self { pii_hash, matches_account: false, account_active: false }
    }
}

/// Errors creating a custom audience.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CustomAudienceError {
    /// Fewer than [`MIN_LIST_SIZE`] records.
    ListTooSmall(usize),
    /// Advertiser did not attest to user consent (GDPR requirement).
    MissingConsentAttestation,
}

impl std::fmt::Display for CustomAudienceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CustomAudienceError::ListTooSmall(n) => {
                write!(f, "custom audience lists need at least {MIN_LIST_SIZE} records, got {n}")
            }
            CustomAudienceError::MissingConsentAttestation => {
                write!(f, "advertiser must attest to user consent for PII targeting")
            }
        }
    }
}

impl std::error::Error for CustomAudienceError {}

/// A created custom audience.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomAudience {
    records: Vec<PiiRecord>,
}

impl CustomAudience {
    /// Creates a custom audience from an upload list.
    ///
    /// # Errors
    ///
    /// Enforces the 100-record minimum and the consent attestation — and
    /// nothing else, which is exactly the gap the bypass exploits.
    pub fn create(
        records: Vec<PiiRecord>,
        consent_attested: bool,
    ) -> Result<Self, CustomAudienceError> {
        if !consent_attested {
            return Err(CustomAudienceError::MissingConsentAttestation);
        }
        if records.len() < MIN_LIST_SIZE {
            return Err(CustomAudienceError::ListTooSmall(records.len()));
        }
        Ok(Self { records })
    }

    /// Uploaded list size.
    pub fn list_size(&self) -> usize {
        self.records.len()
    }

    /// Accounts matched (what FB's current rule effectively checks).
    pub fn matched(&self) -> usize {
        self.records.iter().filter(|r| r.matches_account).count()
    }

    /// Accounts that are matched **and active** — the number the §8.3
    /// countermeasure would check against its minimum.
    pub fn active_matched(&self) -> usize {
        self.records.iter().filter(|r| r.account_active).count()
    }

    /// Builds the Korolova-style bypass list: `padding` unreachable accounts
    /// plus exactly one active target. Passes FB's current minimum whenever
    /// `padding + 1 >= 100`, yet reaches exactly one person.
    pub fn bypass_list(target_hash: u64, padding: usize) -> Vec<PiiRecord> {
        let mut records: Vec<PiiRecord> =
            (0..padding).map(|i| PiiRecord::unreachable(0x9999_0000 + i as u64)).collect();
        records.push(PiiRecord::active(target_hash));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_list_size_enforced() {
        let records: Vec<PiiRecord> = (0..99).map(PiiRecord::active).collect();
        assert_eq!(
            CustomAudience::create(records, true).unwrap_err(),
            CustomAudienceError::ListTooSmall(99)
        );
    }

    #[test]
    fn consent_required() {
        let records: Vec<PiiRecord> = (0..100).map(PiiRecord::active).collect();
        assert_eq!(
            CustomAudience::create(records, false).unwrap_err(),
            CustomAudienceError::MissingConsentAttestation
        );
    }

    #[test]
    fn valid_audience_counts() {
        let mut records: Vec<PiiRecord> = (0..80).map(PiiRecord::active).collect();
        records.extend((80..95).map(PiiRecord::unreachable));
        records.extend((95..110).map(PiiRecord::unmatched));
        let audience = CustomAudience::create(records, true).unwrap();
        assert_eq!(audience.list_size(), 110);
        assert_eq!(audience.matched(), 95);
        assert_eq!(audience.active_matched(), 80);
    }

    #[test]
    fn bypass_passes_current_rule_but_reaches_one() {
        let records = CustomAudience::bypass_list(0xDEAD, 99);
        let audience = CustomAudience::create(records, true).unwrap();
        // FB's current rule sees a 100-record list…
        assert_eq!(audience.list_size(), 100);
        assert_eq!(audience.matched(), 100);
        // …but only one person can actually receive the ad.
        assert_eq!(audience.active_matched(), 1);
    }

    #[test]
    fn bypass_caught_by_active_minimum() {
        // The §8.3 countermeasure counts active users only: 1 < 1000.
        let audience =
            CustomAudience::create(CustomAudience::bypass_list(0xBEEF, 120), true).unwrap();
        assert!(audience.active_matched() < 1_000);
    }
}
