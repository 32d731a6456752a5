//! Audience definitions and FB's validation rules.
//!
//! Section 2.1 of the paper: the only compulsory parameter is the location
//! (up to 50 of them in 2017); interests are capped at 25 per audience (the
//! cap that makes `N(R)_0.95 ≈ 27` unreachable in practice); gender and age
//! are optional refinements.

use fbsim_population::countries::{country_index, CountryCode};
use fbsim_population::InterestId;

/// Maximum locations per audience (FB Ads Manager, January 2017).
pub const MAX_LOCATIONS: usize = 50;
/// Maximum interests per audience (still in force today).
pub const MAX_INTERESTS: usize = 25;

/// Gender refinement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gender {
    /// Target men only.
    Male,
    /// Target women only.
    Female,
}

/// Validation errors for an audience definition, mirroring the FB Ads
/// Manager's rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetingError {
    /// No location supplied — location is the one compulsory parameter.
    MissingLocation,
    /// More than [`MAX_LOCATIONS`] locations.
    TooManyLocations(usize),
    /// A location outside the 50-country targeting universe.
    UnknownLocation(CountryCode),
    /// The same location listed twice.
    DuplicateLocation(CountryCode),
    /// More than [`MAX_INTERESTS`] interests.
    TooManyInterests(usize),
    /// The same interest listed twice.
    DuplicateInterest(InterestId),
    /// Age range falling outside FB's 13–65 bounds.
    InvalidAgeRange(u8, u8),
    /// Age range whose minimum exceeds its maximum — the window admits no
    /// age at all, so the spec is contradictory (mirrors
    /// [`SpecFinding::EmptyAgeWindow`](crate::analyze::SpecFinding)).
    EmptyAgeWindow(u8, u8),
    /// An interest id outside the catalog — no user can carry it (only
    /// checked by [`TargetingBuilder::build_checked`], which mirrors
    /// [`SpecFinding::UnknownInterest`](crate::analyze::SpecFinding)).
    UnknownInterest(InterestId),
}

impl std::fmt::Display for TargetingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetingError::MissingLocation => {
                write!(f, "an audience must include at least one location")
            }
            TargetingError::TooManyLocations(n) => {
                write!(f, "{n} locations exceeds the maximum of {MAX_LOCATIONS}")
            }
            TargetingError::UnknownLocation(c) => {
                write!(f, "location {c} is not in the targeting universe")
            }
            TargetingError::DuplicateLocation(c) => write!(f, "location {c} listed twice"),
            TargetingError::TooManyInterests(n) => {
                write!(f, "{n} interests exceeds the maximum of {MAX_INTERESTS}")
            }
            TargetingError::DuplicateInterest(i) => {
                write!(f, "interest {} listed twice", i.0)
            }
            TargetingError::InvalidAgeRange(lo, hi) => {
                write!(f, "invalid age range {lo}-{hi} (must lie within 13-65)")
            }
            TargetingError::EmptyAgeWindow(lo, hi) => {
                write!(f, "age window {lo}-{hi} admits no age (minimum exceeds maximum)")
            }
            TargetingError::UnknownInterest(i) => {
                write!(f, "interest {} is not in the catalog", i.0)
            }
        }
    }
}

impl std::error::Error for TargetingError {}

/// A validated audience definition.
///
/// Build with [`TargetingSpec::builder`]; a constructed spec is guaranteed
/// to satisfy every FB Ads Manager rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetingSpec {
    locations: Vec<CountryCode>,
    interests: Vec<InterestId>,
    gender: Option<Gender>,
    age_range: Option<(u8, u8)>,
}

impl TargetingSpec {
    /// Starts building an audience.
    pub fn builder() -> TargetingBuilder {
        TargetingBuilder::default()
    }

    /// The audience's locations (1..=50, validated).
    pub fn locations(&self) -> &[CountryCode] {
        &self.locations
    }

    /// Location indices into the targeting universe.
    pub fn location_indices(&self) -> Vec<u16> {
        self.locations
            .iter()
            // lint:allow(no-unwrap) — invariant: build() only stores codes that passed country_index
            .map(|&c| country_index(c).expect("validated at build time") as u16)
            .collect()
    }

    /// The audience's interests (conjunction, 0..=25, validated distinct).
    pub fn interests(&self) -> &[InterestId] {
        &self.interests
    }

    /// Gender refinement, if any.
    pub fn gender(&self) -> Option<Gender> {
        self.gender
    }

    /// Age-range refinement, if any.
    pub fn age_range(&self) -> Option<(u8, u8)> {
        self.age_range
    }

    /// Whether the spec targets the whole 50-country universe (the paper's
    /// 2020 "worldwide" setting).
    ///
    /// `build()` guarantees the stored codes are distinct and known, so a
    /// length check suffices: 50 distinct known codes are exactly the
    /// universe.
    pub fn is_worldwide(&self) -> bool {
        self.locations.len() == MAX_LOCATIONS
    }
}

/// Builder for [`TargetingSpec`].
#[derive(Debug, Clone, Default)]
pub struct TargetingBuilder {
    locations: Vec<CountryCode>,
    interests: Vec<InterestId>,
    gender: Option<Gender>,
    age_range: Option<(u8, u8)>,
}

impl TargetingBuilder {
    /// Adds one location.
    pub fn location(mut self, code: CountryCode) -> Self {
        self.locations.push(code);
        self
    }

    /// Targets the whole 50-country universe — the closest 2017-era
    /// equivalent of the "worldwide" option the paper used in 2020.
    pub fn worldwide(mut self) -> Self {
        self.locations = fbsim_population::TARGETING_UNIVERSE.iter().map(|c| c.code).collect();
        self
    }

    /// Adds one interest to the conjunction.
    pub fn interest(mut self, id: InterestId) -> Self {
        self.interests.push(id);
        self
    }

    /// Adds several interests.
    pub fn interests<I: IntoIterator<Item = InterestId>>(mut self, ids: I) -> Self {
        self.interests.extend(ids);
        self
    }

    /// Restricts to one gender.
    pub fn gender(mut self, gender: Gender) -> Self {
        self.gender = Some(gender);
        self
    }

    /// Restricts to an age range (inclusive).
    pub fn age_range(mut self, lo: u8, hi: u8) -> Self {
        self.age_range = Some((lo, hi));
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a [`TargetingError`].
    pub fn build(self) -> Result<TargetingSpec, TargetingError> {
        if self.locations.is_empty() {
            return Err(TargetingError::MissingLocation);
        }
        if self.locations.len() > MAX_LOCATIONS {
            return Err(TargetingError::TooManyLocations(self.locations.len()));
        }
        for (i, &loc) in self.locations.iter().enumerate() {
            if country_index(loc).is_none() {
                return Err(TargetingError::UnknownLocation(loc));
            }
            if self.locations[..i].contains(&loc) {
                return Err(TargetingError::DuplicateLocation(loc));
            }
        }
        if self.interests.len() > MAX_INTERESTS {
            return Err(TargetingError::TooManyInterests(self.interests.len()));
        }
        for (i, &interest) in self.interests.iter().enumerate() {
            if self.interests[..i].contains(&interest) {
                return Err(TargetingError::DuplicateInterest(interest));
            }
        }
        if let Some((lo, hi)) = self.age_range {
            if lo > hi {
                return Err(TargetingError::EmptyAgeWindow(lo, hi));
            }
            if lo < 13 || hi > 65 {
                return Err(TargetingError::InvalidAgeRange(lo, hi));
            }
        }
        Ok(TargetingSpec {
            locations: self.locations,
            interests: self.interests,
            gender: self.gender,
            age_range: self.age_range,
        })
    }

    /// Validates and builds the spec, additionally checking every interest
    /// against a catalog — the hardened path the static analyzer's
    /// [`UnknownInterest`](crate::analyze::SpecFinding::UnknownInterest)
    /// contradiction finding corresponds to.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a [`TargetingError`].
    pub fn build_checked(
        self,
        catalog: &fbsim_population::InterestCatalog,
    ) -> Result<TargetingSpec, TargetingError> {
        if let Some(&unknown) = self.interests.iter().find(|id| catalog.get(**id).is_none()) {
            return Err(TargetingError::UnknownInterest(unknown));
        }
        self.build()
    }

    /// Locations staged so far (unvalidated).
    pub fn staged_locations(&self) -> &[CountryCode] {
        &self.locations
    }

    /// Interests staged so far (unvalidated).
    pub fn staged_interests(&self) -> &[InterestId] {
        &self.interests
    }

    /// Gender refinement staged so far.
    pub fn staged_gender(&self) -> Option<Gender> {
        self.gender
    }

    /// Age-range refinement staged so far (unvalidated).
    pub fn staged_age_range(&self) -> Option<(u8, u8)> {
        self.age_range
    }

    /// Whether the staged location list covers the whole targeting
    /// universe.
    ///
    /// Unlike [`TargetingSpec::is_worldwide`], staged lists are unvalidated
    /// — they may repeat codes or name countries outside the universe — so
    /// membership is checked explicitly: the unique *known* codes must
    /// cover every universe country.
    pub fn is_worldwide(&self) -> bool {
        let mut known: Vec<usize> =
            self.locations.iter().filter_map(|&c| country_index(c)).collect();
        known.sort_unstable();
        known.dedup();
        known.len() == fbsim_population::TARGETING_UNIVERSE.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn es() -> CountryCode {
        CountryCode::new("ES")
    }

    #[test]
    fn minimal_spec_is_location_only() {
        let spec = TargetingSpec::builder().location(es()).build().unwrap();
        assert_eq!(spec.locations().len(), 1);
        assert!(spec.interests().is_empty());
        assert!(!spec.is_worldwide());
    }

    #[test]
    fn missing_location_rejected() {
        let err = TargetingSpec::builder().interest(InterestId(1)).build().unwrap_err();
        assert_eq!(err, TargetingError::MissingLocation);
    }

    #[test]
    fn worldwide_is_fifty_countries() {
        let spec = TargetingSpec::builder().worldwide().build().unwrap();
        assert_eq!(spec.locations().len(), 50);
        assert!(spec.is_worldwide());
        assert_eq!(spec.location_indices().len(), 50);
    }

    #[test]
    fn twenty_six_interests_rejected() {
        let spec = TargetingSpec::builder().worldwide().interests((0..26).map(InterestId)).build();
        assert_eq!(spec.unwrap_err(), TargetingError::TooManyInterests(26));
    }

    #[test]
    fn twenty_five_interests_allowed() {
        let spec = TargetingSpec::builder()
            .worldwide()
            .interests((0..25).map(InterestId))
            .build()
            .unwrap();
        assert_eq!(spec.interests().len(), 25);
    }

    #[test]
    fn duplicate_interest_rejected() {
        let err = TargetingSpec::builder()
            .location(es())
            .interest(InterestId(7))
            .interest(InterestId(7))
            .build()
            .unwrap_err();
        assert_eq!(err, TargetingError::DuplicateInterest(InterestId(7)));
    }

    #[test]
    fn duplicate_location_rejected() {
        let err = TargetingSpec::builder().location(es()).location(es()).build().unwrap_err();
        assert_eq!(err, TargetingError::DuplicateLocation(es()));
    }

    #[test]
    fn unknown_location_rejected() {
        let err = TargetingSpec::builder().location(CountryCode::new("ZZ")).build().unwrap_err();
        assert_eq!(err, TargetingError::UnknownLocation(CountryCode::new("ZZ")));
    }

    #[test]
    fn age_range_validation() {
        assert!(TargetingSpec::builder().location(es()).age_range(20, 39).build().is_ok());
        assert_eq!(
            TargetingSpec::builder().location(es()).age_range(12, 30).build().unwrap_err(),
            TargetingError::InvalidAgeRange(12, 30)
        );
        assert_eq!(
            TargetingSpec::builder().location(es()).age_range(40, 20).build().unwrap_err(),
            TargetingError::EmptyAgeWindow(40, 20)
        );
        assert_eq!(
            TargetingSpec::builder().location(es()).age_range(20, 90).build().unwrap_err(),
            TargetingError::InvalidAgeRange(20, 90)
        );
    }

    #[test]
    fn build_checked_rejects_unknown_interest() {
        let catalog = fbsim_population::InterestCatalog::generate(
            &fbsim_population::WorldConfig::test_scale(2),
        );
        let bogus = InterestId(catalog.len() as u32 + 5);
        let err = TargetingSpec::builder()
            .location(es())
            .interest(InterestId(0))
            .interest(bogus)
            .build_checked(&catalog)
            .unwrap_err();
        assert_eq!(err, TargetingError::UnknownInterest(bogus));
        assert!(TargetingSpec::builder()
            .location(es())
            .interest(InterestId(0))
            .build_checked(&catalog)
            .is_ok());
    }

    #[test]
    fn builder_exposes_staged_state() {
        let builder = TargetingSpec::builder()
            .location(es())
            .interest(InterestId(3))
            .gender(Gender::Male)
            .age_range(40, 20);
        assert_eq!(builder.staged_locations(), &[es()]);
        assert_eq!(builder.staged_interests(), &[InterestId(3)]);
        assert_eq!(builder.staged_gender(), Some(Gender::Male));
        assert_eq!(builder.staged_age_range(), Some((40, 20)));
        assert!(!builder.is_worldwide());
        assert!(TargetingSpec::builder().worldwide().is_worldwide());
    }

    #[test]
    fn staged_worldwide_requires_universe_membership() {
        // 50 entries alone are not enough: duplicates of one country…
        let mut dupes = TargetingSpec::builder();
        for _ in 0..MAX_LOCATIONS {
            dupes = dupes.location(es());
        }
        assert!(!dupes.is_worldwide());
        // …or 50 unknown codes never cover the universe.
        let mut unknown = TargetingSpec::builder();
        for _ in 0..MAX_LOCATIONS {
            unknown = unknown.location(CountryCode::new("ZZ"));
        }
        assert!(!unknown.is_worldwide());
        // A covering list stays worldwide even with an extra repeat staged.
        assert!(TargetingSpec::builder().worldwide().location(es()).is_worldwide());
    }

    #[test]
    fn gender_refinement_carried() {
        let spec = TargetingSpec::builder().location(es()).gender(Gender::Female).build().unwrap();
        assert_eq!(spec.gender(), Some(Gender::Female));
    }
}
