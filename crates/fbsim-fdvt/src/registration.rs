//! The FDVT registration / opt-in flow.
//!
//! Section 2.2–2.3: at installation the user must provide their country of
//! residence (compulsory — without it the extension cannot query the FB Ads
//! Manager API, whose audiences require a location), may provide gender,
//! age and relationship status, and must opt in to both the terms of use /
//! privacy policy and the anonymous research use of their data (GDPR).

use fbsim_population::countries::CountryCode;

/// Relationship status options offered at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelationshipStatus {
    /// Single.
    Single,
    /// In a relationship.
    InRelationship,
    /// Married.
    Married,
}

/// GDPR consent record captured at registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConsentRecord {
    /// Opt-in to the terms of use and privacy policy.
    pub terms_accepted: bool,
    /// Explicit opt-in to anonymous research use of collected data.
    pub research_use_accepted: bool,
}

impl ConsentRecord {
    /// Whether registration may proceed (both opt-ins are required).
    pub fn is_complete(&self) -> bool {
        self.terms_accepted && self.research_use_accepted
    }
}

/// Errors rejecting a registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistrationError {
    /// Country missing — compulsory (the Ads Manager API requires a
    /// location to form any audience).
    MissingCountry,
    /// The user did not accept the terms / privacy policy.
    TermsNotAccepted,
    /// The user did not opt in to research use.
    ResearchConsentMissing,
    /// Declared age outside FB's 13+ rule.
    InvalidAge(u8),
}

impl std::fmt::Display for RegistrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistrationError::MissingCountry => {
                write!(f, "country of residence is compulsory")
            }
            RegistrationError::TermsNotAccepted => {
                write!(f, "terms of use / privacy policy must be accepted")
            }
            RegistrationError::ResearchConsentMissing => {
                write!(f, "explicit research-use consent is required (GDPR opt-in)")
            }
            RegistrationError::InvalidAge(a) => write!(f, "age {a} is below the minimum of 13"),
        }
    }
}

impl std::error::Error for RegistrationError {}

/// A completed FDVT registration.
#[derive(Debug, Clone, PartialEq)]
pub struct Registration {
    /// Country of residence (compulsory).
    pub country: CountryCode,
    /// Declared gender, if provided.
    pub gender: Option<crate::dataset::GenderDecl>,
    /// Declared age, if provided.
    pub age: Option<u8>,
    /// Declared relationship status, if provided.
    pub relationship: Option<RelationshipStatus>,
    /// Consent record.
    pub consent: ConsentRecord,
}

impl Registration {
    /// Validates and completes a registration.
    ///
    /// # Errors
    ///
    /// See [`RegistrationError`].
    pub fn register(
        country: Option<CountryCode>,
        gender: Option<crate::dataset::GenderDecl>,
        age: Option<u8>,
        relationship: Option<RelationshipStatus>,
        consent: ConsentRecord,
    ) -> Result<Self, RegistrationError> {
        let country = country.ok_or(RegistrationError::MissingCountry)?;
        if !consent.terms_accepted {
            return Err(RegistrationError::TermsNotAccepted);
        }
        if !consent.research_use_accepted {
            return Err(RegistrationError::ResearchConsentMissing);
        }
        if let Some(a) = age {
            if a < 13 {
                return Err(RegistrationError::InvalidAge(a));
            }
        }
        Ok(Self { country, gender, age, relationship, consent })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GenderDecl;

    fn full_consent() -> ConsentRecord {
        ConsentRecord { terms_accepted: true, research_use_accepted: true }
    }

    #[test]
    fn minimal_valid_registration() {
        let reg =
            Registration::register(Some(CountryCode::new("ES")), None, None, None, full_consent())
                .unwrap();
        assert_eq!(reg.country.as_str(), "ES");
        assert!(reg.gender.is_none());
    }

    #[test]
    fn country_is_compulsory() {
        let err = Registration::register(None, None, None, None, full_consent()).unwrap_err();
        assert_eq!(err, RegistrationError::MissingCountry);
    }

    #[test]
    fn both_consents_required() {
        let c = ConsentRecord { terms_accepted: false, research_use_accepted: true };
        assert_eq!(
            Registration::register(Some(CountryCode::new("FR")), None, None, None, c).unwrap_err(),
            RegistrationError::TermsNotAccepted
        );
        let c = ConsentRecord { terms_accepted: true, research_use_accepted: false };
        assert_eq!(
            Registration::register(Some(CountryCode::new("FR")), None, None, None, c).unwrap_err(),
            RegistrationError::ResearchConsentMissing
        );
        assert!(!c.is_complete());
        assert!(full_consent().is_complete());
    }

    #[test]
    fn under_13_rejected() {
        let err = Registration::register(
            Some(CountryCode::new("FR")),
            Some(GenderDecl::Woman),
            Some(12),
            None,
            full_consent(),
        )
        .unwrap_err();
        assert_eq!(err, RegistrationError::InvalidAge(12));
    }

    #[test]
    fn optional_fields_carried() {
        let reg = Registration::register(
            Some(CountryCode::new("MX")),
            Some(GenderDecl::Man),
            Some(34),
            Some(RelationshipStatus::Married),
            full_consent(),
        )
        .unwrap();
        assert_eq!(reg.age, Some(34));
        assert_eq!(reg.relationship, Some(RelationshipStatus::Married));
    }
}
