//! Static campaign-spec analysis: contradiction findings, conservative
//! audience intervals and a nanotargeting-risk verdict — all computed from
//! per-interest marginals without running delivery or enumerating the
//! population.
//!
//! The paper's §8 countermeasure discussion needs a *pre-flight* judgement:
//! can a campaign be rejected (or waved through) before the platform spends a
//! full reach-engine conjunction sweep on it?  The [`SpecAnalyzer`] answers
//! with three artefacts:
//!
//! 1. **Findings** ([`SpecFinding`]) — structural defects of the spec, from
//!    outright contradictions (empty effective age window, empty location
//!    set, an interest no user can carry) through rule violations the
//!    builder would reject, down to subsumed clauses that cannot restrict
//!    the audience.
//! 2. **An audience interval** ([`AudienceInterval`]) — a sound
//!    `[lower, upper]` bracket on the true active audience, derived from
//!    per-interest marginals: the upper bound is the Fréchet `min` of the
//!    marginals (capped by the location filter's population), the lower
//!    bound is the inclusion–exclusion (Fréchet) bound
//!    `Σᵢ AS(i) − (k−1)·N`.  Both bounds are multiplied by the same gender
//!    and age fractions the reach endpoint applies, so they bracket
//!    [`AdsManagerApi::true_reach`](crate::AdsManagerApi::true_reach)
//!    whenever the marginals are exact.
//! 3. **A nanotargeting-risk verdict** ([`NanotargetingRisk`]) — the
//!    interest depth of the spec held against the paper's Table-1
//!    `N_P` thresholds (`N(LP)₀.₉ ≈ 4.2`, `N(R)₀.₉ ≈ 22.2`) and its §8
//!    proposed cap, consumable by [`PlatformPolicy`](crate::PlatformPolicy)
//!    implementations and the FDVT risk UI.

use crate::reach::{age_fraction, gender_fraction};
use crate::targeting::{Gender, TargetingBuilder, TargetingSpec, MAX_INTERESTS, MAX_LOCATIONS};
use crate::CampaignSpec;
use fbsim_population::countries::{country_index, CountryCode, TARGETING_UNIVERSE};
use fbsim_population::reach::{CountryFilter, ReachEngine};
use fbsim_population::{InterestCatalog, InterestId, MaterializedUser};

/// Platform-wide minimum targetable age.
pub const MIN_AGE: u8 = 13;
/// Platform-wide maximum targetable age.
pub const MAX_AGE: u8 = 65;

// ---------------------------------------------------------------------------
// Thresholds and risk verdicts
// ---------------------------------------------------------------------------

/// The paper's Table-1 `N_P` thresholds plus its §8 policy knobs.
///
/// `N_P` is the number of interests after which a fraction `P` of users is
/// unique: with the *least-popular* selection strategy ~4.2 interests
/// isolate 90 % of users, with *random* selection ~22.2 do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NpThresholds {
    /// `N(LP)₀.₉` — interests needed to isolate 90 % of users when the
    /// attacker picks the user's least-popular interests (Table 1).
    pub lp_n90: f64,
    /// `N(R)₀.₉` — interests needed under random selection (Table 1).
    pub random_n90: f64,
    /// The §8 proposed cap on interests per audience.
    pub proposed_cap: usize,
    /// Audience size below which a campaign is considered individually
    /// identifying regardless of interest depth (§8 minimum-audience scale).
    pub small_audience: f64,
}

impl NpThresholds {
    /// The headline values from the paper (Table 1 and §8).
    pub const fn paper() -> Self {
        Self { lp_n90: 4.2, random_n90: 22.2, proposed_cap: 9, small_audience: 1000.0 }
    }
}

impl Default for NpThresholds {
    fn default() -> Self {
        Self::paper()
    }
}

/// Structured nanotargeting-risk verdict for a spec, ordered from benign to
/// critical.  Consumed by [`PlatformPolicy`](crate::PlatformPolicy)
/// pre-flight checks and the FDVT risk UI.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub enum NanotargetingRisk {
    /// Interest depth below every Table-1 threshold.
    Low {
        /// Number of distinct interests in the spec.
        interests: usize,
    },
    /// Depth at or above `⌈N(LP)₀.₉⌉`: nanotargeting succeeds for ~90 % of
    /// targets if the attacker knows the user's rarest interests.
    Possible {
        /// Number of distinct interests in the spec.
        interests: usize,
    },
    /// Depth at or above the §8 proposed cap: beyond what the paper would
    /// allow any advertiser to combine.
    Elevated {
        /// Number of distinct interests in the spec.
        interests: usize,
    },
    /// Depth at or above `N(R)₀.₉`: even randomly chosen interests isolate a
    /// single user with probability ≥ 0.9.
    Severe {
        /// Number of distinct interests in the spec.
        interests: usize,
    },
    /// The audience upper bound is below the §8 minimum-audience scale —
    /// the campaign is individually identifying whatever its depth.
    Critical {
        /// Number of distinct interests in the spec.
        interests: usize,
        /// Proven upper bound on the active audience.
        audience_upper: f64,
    },
}

impl NanotargetingRisk {
    /// Classifies an interest depth and proven audience upper bound against
    /// a set of thresholds.
    pub fn assess(interests: usize, audience_upper: f64, t: &NpThresholds) -> Self {
        let k = interests as f64;
        if audience_upper < t.small_audience {
            NanotargetingRisk::Critical { interests, audience_upper }
        } else if k >= t.random_n90 {
            NanotargetingRisk::Severe { interests }
        } else if interests >= t.proposed_cap {
            NanotargetingRisk::Elevated { interests }
        } else if k >= t.lp_n90.ceil() {
            NanotargetingRisk::Possible { interests }
        } else {
            NanotargetingRisk::Low { interests }
        }
    }

    /// Whether the verdict is at or above [`NanotargetingRisk::Elevated`] —
    /// the point where the paper's §8 proposals would intervene.
    pub fn is_actionable(&self) -> bool {
        matches!(
            self,
            NanotargetingRisk::Elevated { .. }
                | NanotargetingRisk::Severe { .. }
                | NanotargetingRisk::Critical { .. }
        )
    }

    /// Short label for dashboards and the FDVT UI.
    pub fn label(&self) -> &'static str {
        match self {
            NanotargetingRisk::Low { .. } => "low",
            NanotargetingRisk::Possible { .. } => "possible",
            NanotargetingRisk::Elevated { .. } => "elevated",
            NanotargetingRisk::Severe { .. } => "severe",
            NanotargetingRisk::Critical { .. } => "critical",
        }
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// Severity of a [`SpecFinding`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A clause that cannot restrict the audience (dead weight, not a bug).
    Redundancy,
    /// A rule the [`TargetingBuilder`] would reject.
    Violation,
    /// The spec can never match any user.
    Contradiction,
}

/// One structural defect found in a spec.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecFinding {
    /// No usable location and the spec is not worldwide — location is
    /// compulsory, so the audience is empty.
    EmptyLocations,
    /// The effective age window `[lo, hi] ∩ [13, 65]` contains no age.
    EmptyAgeWindow {
        /// Requested lower bound.
        lo: u8,
        /// Requested upper bound.
        hi: u8,
    },
    /// An interest id outside the catalog — no user can carry it.
    UnknownInterest(InterestId),
    /// A location outside the 50-country targeting universe.
    UnknownLocation(CountryCode),
    /// The same interest listed more than once.
    DuplicateInterest(InterestId),
    /// The same location listed more than once.
    DuplicateLocation(CountryCode),
    /// More interests than [`MAX_INTERESTS`].
    TooManyInterests {
        /// Interests supplied.
        used: usize,
        /// The cap.
        max: usize,
    },
    /// More locations than [`MAX_LOCATIONS`].
    TooManyLocations {
        /// Locations supplied.
        used: usize,
        /// The cap.
        max: usize,
    },
    /// An age bound outside the platform's 13–65 limits while the window
    /// still admits ages — the rule behind
    /// [`TargetingError::InvalidAgeRange`](crate::targeting::TargetingError::InvalidAgeRange).
    InvalidAgeRange {
        /// Requested lower bound.
        lo: u8,
        /// Requested upper bound.
        hi: u8,
    },
    /// The age range covers the whole 13–65 span — subsumed by the default.
    RedundantAgeRange {
        /// Requested lower bound.
        lo: u8,
        /// Requested upper bound.
        hi: u8,
    },
    /// The explicit location list covers the entire targeting universe —
    /// subsumed by worldwide targeting.
    LocationsCoverUniverse,
}

impl SpecFinding {
    /// The finding's severity class.
    pub fn severity(&self) -> Severity {
        match self {
            SpecFinding::EmptyLocations
            | SpecFinding::EmptyAgeWindow { .. }
            | SpecFinding::UnknownInterest(_) => Severity::Contradiction,
            SpecFinding::UnknownLocation(_)
            | SpecFinding::DuplicateInterest(_)
            | SpecFinding::DuplicateLocation(_)
            | SpecFinding::TooManyInterests { .. }
            | SpecFinding::TooManyLocations { .. }
            | SpecFinding::InvalidAgeRange { .. } => Severity::Violation,
            SpecFinding::RedundantAgeRange { .. } | SpecFinding::LocationsCoverUniverse => {
                Severity::Redundancy
            }
        }
    }
}

impl std::fmt::Display for SpecFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecFinding::EmptyLocations => write!(f, "no usable location — audience is empty"),
            SpecFinding::EmptyAgeWindow { lo, hi } => {
                write!(f, "age window {lo}-{hi} admits no targetable age")
            }
            SpecFinding::UnknownInterest(id) => {
                write!(f, "interest #{} is not in the catalog", id.0)
            }
            SpecFinding::UnknownLocation(c) => {
                write!(f, "location {c} is outside the targeting universe")
            }
            SpecFinding::DuplicateInterest(id) => write!(f, "interest #{} listed twice", id.0),
            SpecFinding::DuplicateLocation(c) => write!(f, "location {c} listed twice"),
            SpecFinding::TooManyInterests { used, max } => {
                write!(f, "{used} interests exceeds the cap of {max}")
            }
            SpecFinding::TooManyLocations { used, max } => {
                write!(f, "{used} locations exceeds the cap of {max}")
            }
            SpecFinding::InvalidAgeRange { lo, hi } => {
                write!(f, "age window {lo}-{hi} reaches outside the 13-65 platform limits")
            }
            SpecFinding::RedundantAgeRange { lo, hi } => {
                write!(f, "age window {lo}-{hi} covers the full span — redundant")
            }
            SpecFinding::LocationsCoverUniverse => {
                write!(f, "location list covers the whole universe — same as worldwide")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Audience interval
// ---------------------------------------------------------------------------

/// A sound `[lower, upper]` bracket on a spec's true active audience.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AudienceInterval {
    /// Proven lower bound (Fréchet inclusion–exclusion).
    pub lower: f64,
    /// Proven upper bound (minimum marginal, capped by the location
    /// filter's population).
    pub upper: f64,
}

impl AudienceInterval {
    /// The degenerate empty interval.
    pub const EMPTY: Self = Self { lower: 0.0, upper: 0.0 };

    /// Whether a measured audience lies inside the bracket.
    pub fn contains(&self, audience: f64) -> bool {
        self.lower <= audience && audience <= self.upper
    }

    /// Whether the bracket pins the audience to a single value.
    pub fn is_exact(&self) -> bool {
        self.lower >= self.upper
    }

    /// Width of the bracket.
    pub fn width(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }
}

// ---------------------------------------------------------------------------
// Marginals
// ---------------------------------------------------------------------------

/// Per-interest audience marginals plus per-country populations — the only
/// world statistics the analyzer needs.
///
/// Two constructors with different accuracy/cost trade-offs:
///
/// * [`InterestMarginals::from_engine`] sweeps the panel once per interest
///   and once per country.  The resulting bounds are *exact* with respect to
///   the reach engine's expected-audience semantics, so static accept/reject
///   decisions provably agree with the dynamic policy path.
/// * [`InterestMarginals::from_catalog`] uses the catalog's calibration
///   targets and the universe's advertised country shares — free to build,
///   but carries the calibration residual, so its verdicts are advisory.
#[derive(Debug, Clone)]
pub struct InterestMarginals {
    /// Expected worldwide audience per interest, indexed by `InterestId.0`.
    marginals: Vec<f64>,
    /// Expected population per country index in the targeting universe.
    country_population: Vec<f64>,
    /// Total worldwide population.
    population: f64,
    /// Whether the marginals are exact with respect to the reach engine
    /// (engine-measured) or carry the catalog calibration residual.
    exact: bool,
}

impl InterestMarginals {
    /// Measures exact marginals from a reach engine (one panel sweep per
    /// interest and per country).
    pub fn from_engine(engine: &ReachEngine<'_>) -> Self {
        let catalog = engine.catalog();
        let marginals: Vec<f64> =
            (0..catalog.len()).map(|i| engine.single_reach(InterestId(i as u32))).collect();
        let country_population: Vec<f64> = (0..TARGETING_UNIVERSE.len())
            .map(|c| engine.conjunction_reach_in(&[], CountryFilter::of(&[c as u16])))
            .collect();
        Self { marginals, country_population, population: engine.population(), exact: true }
    }

    /// Approximates marginals from the catalog's calibration targets and the
    /// universe's advertised per-country user counts.
    pub fn from_catalog(catalog: &InterestCatalog, population: f64) -> Self {
        let marginals: Vec<f64> = catalog.interests().iter().map(|i| i.target_audience).collect();
        let total: f64 = TARGETING_UNIVERSE.iter().map(|c| c.users_millions).sum();
        let country_population: Vec<f64> =
            TARGETING_UNIVERSE.iter().map(|c| population * c.users_millions / total).collect();
        Self { marginals, country_population, population, exact: false }
    }

    /// Whether the marginals are exact with respect to the reach engine.
    /// Interval-based static accept/reject decisions are only sound when
    /// this holds; catalog-approximated marginals are advisory.
    pub fn is_exact(&self) -> bool {
        self.exact
    }

    /// The worldwide marginal for one interest, `None` when the id is not in
    /// the catalog.
    pub fn marginal(&self, id: InterestId) -> Option<f64> {
        self.marginals.get(id.0 as usize).copied()
    }

    /// Total worldwide population.
    pub fn population(&self) -> f64 {
        self.population
    }

    /// Expected population inside a set of country indices; `None` means
    /// worldwide.
    fn filter_population(&self, indices: Option<&[u16]>) -> f64 {
        match indices {
            None => self.population,
            Some(idx) => idx
                .iter()
                .map(|&i| self.country_population.get(i as usize).copied().unwrap_or(0.0))
                .sum(),
        }
    }
}

// ---------------------------------------------------------------------------
// Analysis result
// ---------------------------------------------------------------------------

/// The analyzer's verdict on one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecAnalysis {
    /// Structural findings, worst first.
    pub findings: Vec<SpecFinding>,
    /// Bracket on the true active audience (the empty interval for
    /// contradictory specs); guaranteed to contain the true audience only
    /// when [`interval_sound`](SpecAnalysis::interval_sound) holds.
    pub interval: AudienceInterval,
    /// Whether the interval provably brackets the reach engine's true
    /// audience: true for engine-measured marginals
    /// ([`InterestMarginals::from_engine`]) and for structural
    /// contradictions (whose empty interval holds whatever the marginals),
    /// false for catalog-approximated marginals.  Policies must treat
    /// interval-based static decisions as advisory when this is false.
    pub interval_sound: bool,
    /// Nanotargeting-risk verdict.
    pub risk: NanotargetingRisk,
}

impl SpecAnalysis {
    /// Whether any finding proves the spec matches no user.
    pub fn is_contradictory(&self) -> bool {
        self.findings.iter().any(|f| f.severity() == Severity::Contradiction)
    }

    /// Whether the spec provably matches no user — either a structural
    /// contradiction or an audience upper bound below one user.
    pub fn provably_empty(&self) -> bool {
        self.is_contradictory() || self.interval.upper < 0.5
    }

    /// The worst severity among the findings, `None` when the spec is clean.
    pub fn worst_severity(&self) -> Option<Severity> {
        self.findings.iter().map(SpecFinding::severity).max()
    }
}

// ---------------------------------------------------------------------------
// Analyzer
// ---------------------------------------------------------------------------

/// Static spec analyzer over a fixed set of [`InterestMarginals`].
#[derive(Debug, Clone)]
pub struct SpecAnalyzer {
    marginals: InterestMarginals,
    thresholds: NpThresholds,
}

impl SpecAnalyzer {
    /// Builds an analyzer over precomputed marginals.
    pub fn new(marginals: InterestMarginals) -> Self {
        Self { marginals, thresholds: NpThresholds::paper() }
    }

    /// Builds an analyzer with exact engine-measured marginals.
    pub fn from_engine(engine: &ReachEngine<'_>) -> Self {
        Self::new(InterestMarginals::from_engine(engine))
    }

    /// Builds an analyzer with catalog-approximated marginals.
    pub fn from_catalog(catalog: &InterestCatalog, population: f64) -> Self {
        Self::new(InterestMarginals::from_catalog(catalog, population))
    }

    /// Replaces the risk thresholds (defaults to the paper's Table-1 /
    /// §8 values).
    pub fn with_thresholds(mut self, thresholds: NpThresholds) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// The active risk thresholds.
    pub fn thresholds(&self) -> &NpThresholds {
        &self.thresholds
    }

    /// The marginals the analyzer reasons over.
    pub fn marginals(&self) -> &InterestMarginals {
        &self.marginals
    }

    /// Analyzes a validated [`TargetingSpec`].
    ///
    /// Builder-checked rules (duplicates, caps, unknown locations) cannot
    /// recur here, so findings are limited to redundancies and
    /// catalog-unknown interests; the main outputs are the audience
    /// interval and the risk verdict.
    pub fn analyze(&self, spec: &TargetingSpec) -> SpecAnalysis {
        let location_indices;
        let indices: Option<&[u16]> = if spec.is_worldwide() {
            None
        } else {
            location_indices = spec.location_indices();
            Some(&location_indices)
        };
        self.analyze_parts(
            spec.locations(),
            indices,
            spec.interests(),
            spec.gender(),
            spec.age_range(),
        )
    }

    /// Analyzes a whole campaign (its targeting spec).
    pub fn analyze_campaign(&self, campaign: &CampaignSpec) -> SpecAnalysis {
        self.analyze(&campaign.targeting)
    }

    /// Analyzes a raw, not-yet-validated [`TargetingBuilder`] — the path
    /// that can surface contradictions and builder-rule violations.
    pub fn analyze_raw(&self, builder: &TargetingBuilder) -> SpecAnalysis {
        let codes = builder.staged_locations();
        // The worldwide shortcut only applies to a clean universe list:
        // exactly one entry per universe country.  A covering list that also
        // carries duplicates still goes through the explicit path so the
        // duplicate findings surface.
        if builder.is_worldwide() && codes.len() == TARGETING_UNIVERSE.len() {
            return self.analyze_parts(
                codes,
                None,
                builder.staged_interests(),
                builder.staged_gender(),
                builder.staged_age_range(),
            );
        }
        // Resolve the explicit list, dropping unknown codes: an unknown
        // location contributes no users, so the sound filter population is
        // the sum over the known ones.
        let known: Vec<u16> =
            codes.iter().filter_map(|&c| country_index(c).map(|i| i as u16)).collect();
        self.analyze_parts(
            codes,
            Some(&known),
            builder.staged_interests(),
            builder.staged_gender(),
            builder.staged_age_range(),
        )
    }

    /// Core analysis over resolved parts.  `indices` is `None` for
    /// worldwide, otherwise the resolved (known-only) country indices for
    /// the `codes` list.
    fn analyze_parts(
        &self,
        codes: &[CountryCode],
        indices: Option<&[u16]>,
        interests: &[InterestId],
        gender: Option<Gender>,
        age_range: Option<(u8, u8)>,
    ) -> SpecAnalysis {
        let mut findings = Vec::new();

        // --- locations -----------------------------------------------------
        let worldwide = indices.is_none();
        if !worldwide {
            for (i, &c) in codes.iter().enumerate() {
                // Unknown and duplicate are independent defects: a repeated
                // unknown code carries both.  Unknown is reported once per
                // distinct code, duplicate once per repetition.
                if country_index(c).is_none() && !codes[..i].contains(&c) {
                    findings.push(SpecFinding::UnknownLocation(c));
                }
                if codes[..i].contains(&c) {
                    findings.push(SpecFinding::DuplicateLocation(c));
                }
            }
            if codes.len() > MAX_LOCATIONS {
                findings
                    .push(SpecFinding::TooManyLocations { used: codes.len(), max: MAX_LOCATIONS });
            }
        }
        let mut unique_indices: Vec<u16> = indices.map(<[u16]>::to_vec).unwrap_or_default();
        unique_indices.sort_unstable();
        unique_indices.dedup();
        if !worldwide && unique_indices.is_empty() {
            findings.push(SpecFinding::EmptyLocations);
        }
        if !worldwide && unique_indices.len() == TARGETING_UNIVERSE.len() {
            findings.push(SpecFinding::LocationsCoverUniverse);
        }

        // --- interests -----------------------------------------------------
        let mut unique_interests: Vec<InterestId> = Vec::with_capacity(interests.len());
        for (i, &id) in interests.iter().enumerate() {
            if self.marginals.marginal(id).is_none() {
                findings.push(SpecFinding::UnknownInterest(id));
            }
            if interests[..i].contains(&id) {
                findings.push(SpecFinding::DuplicateInterest(id));
            } else {
                unique_interests.push(id);
            }
        }
        if interests.len() > MAX_INTERESTS {
            findings
                .push(SpecFinding::TooManyInterests { used: interests.len(), max: MAX_INTERESTS });
        }

        // --- age window ----------------------------------------------------
        if let Some((lo, hi)) = age_range {
            let eff_lo = lo.max(MIN_AGE);
            let eff_hi = hi.min(MAX_AGE);
            if eff_lo > eff_hi {
                findings.push(SpecFinding::EmptyAgeWindow { lo, hi });
            } else if lo < MIN_AGE || hi > MAX_AGE {
                findings.push(SpecFinding::InvalidAgeRange { lo, hi });
            } else if lo <= MIN_AGE && hi >= MAX_AGE {
                findings.push(SpecFinding::RedundantAgeRange { lo, hi });
            }
        }

        findings.sort_by_key(|f| std::cmp::Reverse(f.severity()));

        let contradictory = findings.iter().any(|f| f.severity() == Severity::Contradiction);
        let interval = if contradictory {
            AudienceInterval::EMPTY
        } else if worldwide {
            self.interval_for(&unique_interests, None, gender, age_range)
        } else {
            // Deduplicated indices: a repeated location in a raw builder
            // must not double-count its population in the bounds.
            self.interval_for(&unique_interests, Some(&unique_indices), gender, age_range)
        };
        // A contradiction's empty interval is structural — sound whatever
        // the marginals; otherwise soundness follows the marginal source.
        let interval_sound = self.marginals.is_exact() || contradictory;
        let risk =
            NanotargetingRisk::assess(unique_interests.len(), interval.upper, &self.thresholds);

        SpecAnalysis { findings, interval, interval_sound, risk }
    }

    /// Sound audience bracket for a deduplicated conjunction of interests
    /// inside a location filter, with the endpoint's gender/age fractions
    /// applied to both ends.
    ///
    /// With `N` the filter population, `E` the population outside the filter
    /// and `AS(i)` the worldwide marginal of interest `i`:
    ///
    /// * `upper = min(minᵢ AS(i), N) · g · a` — a conjunction can reach at
    ///   most its rarest term, and no more than the filter holds;
    /// * `lower = max(0, Σᵢ max(0, AS(i) − E) − (k−1)·N) · g · a` — the
    ///   Fréchet / inclusion–exclusion bound, with each marginal first
    ///   discounted by the users that may live outside the filter.
    ///
    /// Both hold pointwise for the engine's per-user carriage probabilities
    /// (Weierstrass product inequality), so the bracket always contains
    /// [`AdsManagerApi::true_reach`](crate::AdsManagerApi::true_reach) when
    /// the marginals come from [`InterestMarginals::from_engine`].
    fn interval_for(
        &self,
        interests: &[InterestId],
        indices: Option<&[u16]>,
        gender: Option<Gender>,
        age_range: Option<(u8, u8)>,
    ) -> AudienceInterval {
        let pop_filter = self.marginals.filter_population(indices);
        let g = gender_fraction(gender);
        let a = age_fraction(age_range);
        let k = interests.len();
        if k == 0 {
            // An unrefined spec reaches the whole filter exactly.
            let exact = pop_filter * g * a;
            return AudienceInterval { lower: exact, upper: exact };
        }
        let pop_excluded = (self.marginals.population() - pop_filter).max(0.0);
        let mut min_marginal = f64::INFINITY;
        let mut frechet_sum = 0.0;
        for &id in interests {
            let m = self.marginals.marginal(id).unwrap_or(0.0);
            min_marginal = min_marginal.min(m);
            frechet_sum += (m - pop_excluded).max(0.0);
        }
        let upper = min_marginal.min(pop_filter).max(0.0) * g * a;
        let lower = (frechet_sum - (k as f64 - 1.0) * pop_filter).max(0.0) * g * a;
        AudienceInterval { lower: lower.min(upper), upper }
    }
}

// ---------------------------------------------------------------------------
// Direct matching semantics (for property tests)
// ---------------------------------------------------------------------------

/// Whether a raw builder's spec could match a materialised user, evaluated
/// directly from the targeting semantics (not via the analyzer's findings):
/// the user's country must be listed (or the spec worldwide), the user must
/// carry every requested interest, and the age window must admit at least
/// one targetable age.
///
/// This is the ground truth the *contradiction* property tests compare the
/// analyzer against.
pub fn raw_spec_matches(builder: &TargetingBuilder, user: &MaterializedUser) -> bool {
    if !builder.is_worldwide() {
        let listed = builder
            .staged_locations()
            .iter()
            .any(|&c| country_index(c) == Some(user.country as usize));
        if !listed {
            return false;
        }
    }
    if !builder.staged_interests().iter().all(|id| user.interests.contains(id)) {
        return false;
    }
    if let Some((lo, hi)) = builder.staged_age_range() {
        if lo.max(MIN_AGE) > hi.min(MAX_AGE) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};

    fn test_world() -> World {
        World::generate(WorldConfig::test_scale(7)).expect("world generates")
    }

    fn analyzer(world: &World) -> SpecAnalyzer {
        SpecAnalyzer::from_engine(&world.reach_engine())
    }

    #[test]
    fn unrefined_worldwide_spec_is_exact() {
        let world = test_world();
        let an = analyzer(&world);
        let spec = TargetingSpec::builder().worldwide().build().expect("valid spec");
        let analysis = an.analyze(&spec);
        assert!(analysis.findings.is_empty());
        assert!(analysis.interval.is_exact());
        let api = crate::AdsManagerApi::new(&world, crate::ReportingEra::Post2018);
        let true_reach = api.true_reach(&spec);
        assert!(
            (analysis.interval.upper - true_reach).abs() < 1e-6,
            "exact interval {:?} vs true {true_reach}",
            analysis.interval,
        );
    }

    #[test]
    fn interval_contains_true_reach_for_engine_marginals() {
        let world = test_world();
        let an = analyzer(&world);
        let api = crate::AdsManagerApi::new(&world, crate::ReportingEra::Post2018);
        let spec = TargetingSpec::builder()
            .worldwide()
            .interest(InterestId(3))
            .interest(InterestId(10))
            .age_range(20, 40)
            .build()
            .expect("valid spec");
        let analysis = an.analyze(&spec);
        let true_reach = api.true_reach(&spec);
        assert!(
            analysis.interval.contains(true_reach),
            "interval {:?} must contain {true_reach}",
            analysis.interval,
        );
    }

    #[test]
    fn empty_age_window_is_contradictory() {
        let world = test_world();
        let an = analyzer(&world);
        let builder = TargetingSpec::builder().worldwide().age_range(40, 20);
        let analysis = an.analyze_raw(&builder);
        assert!(analysis.is_contradictory());
        assert_eq!(analysis.interval, AudienceInterval::EMPTY);
        assert!(analysis
            .findings
            .iter()
            .any(|f| matches!(f, SpecFinding::EmptyAgeWindow { lo: 40, hi: 20 })));
    }

    #[test]
    fn unknown_interest_is_contradictory() {
        let world = test_world();
        let an = analyzer(&world);
        let bogus = InterestId(u32::MAX);
        let builder = TargetingSpec::builder().worldwide().interest(bogus);
        let analysis = an.analyze_raw(&builder);
        assert!(analysis.is_contradictory());
        assert!(analysis.provably_empty());
    }

    #[test]
    fn duplicates_and_full_span_age_are_flagged() {
        let world = test_world();
        let an = analyzer(&world);
        let us = TARGETING_UNIVERSE[0].code;
        let builder = TargetingSpec::builder()
            .location(us)
            .location(us)
            .interest(InterestId(1))
            .interest(InterestId(1))
            .age_range(13, 65);
        let analysis = an.analyze_raw(&builder);
        assert!(!analysis.is_contradictory());
        assert!(analysis.findings.contains(&SpecFinding::DuplicateLocation(us)));
        assert!(analysis.findings.contains(&SpecFinding::DuplicateInterest(InterestId(1))));
        assert!(analysis
            .findings
            .iter()
            .any(|f| matches!(f, SpecFinding::RedundantAgeRange { lo: 13, hi: 65 })));
        // Findings are ordered worst-first.
        let sevs: Vec<Severity> = analysis.findings.iter().map(SpecFinding::severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by_key(|s| std::cmp::Reverse(*s));
        assert_eq!(sevs, sorted);
    }

    #[test]
    fn repeated_unknown_location_gets_both_findings() {
        let world = test_world();
        let an = analyzer(&world);
        let zz = CountryCode::new("ZZ");
        let builder =
            TargetingSpec::builder().location(zz).location(zz).location(TARGETING_UNIVERSE[0].code);
        let analysis = an.analyze_raw(&builder);
        let unknowns =
            analysis.findings.iter().filter(|f| **f == SpecFinding::UnknownLocation(zz)).count();
        assert_eq!(unknowns, 1);
        assert!(analysis.findings.contains(&SpecFinding::DuplicateLocation(zz)));
        // One known location remains, so the spec is not contradictory.
        assert!(!analysis.is_contradictory());
    }

    #[test]
    fn out_of_bounds_age_window_is_a_violation() {
        let world = test_world();
        let an = analyzer(&world);
        let builder = TargetingSpec::builder().worldwide().age_range(12, 70);
        let analysis = an.analyze_raw(&builder);
        assert!(!analysis.is_contradictory());
        assert!(analysis
            .findings
            .iter()
            .any(|f| matches!(f, SpecFinding::InvalidAgeRange { lo: 12, hi: 70 })));
        assert_eq!(analysis.worst_severity(), Some(Severity::Violation));
        // In-bounds full-span windows stay a mere redundancy.
        let full = an.analyze_raw(&TargetingSpec::builder().worldwide().age_range(13, 65));
        assert_eq!(full.worst_severity(), Some(Severity::Redundancy));
    }

    #[test]
    fn duplicate_locations_do_not_inflate_the_interval() {
        let world = test_world();
        let an = analyzer(&world);
        let us = TARGETING_UNIVERSE[0].code;
        let raw = TargetingSpec::builder().location(us).location(us).interest(InterestId(1));
        let deduped =
            TargetingSpec::builder().location(us).interest(InterestId(1)).build().expect("valid");
        assert_eq!(an.analyze_raw(&raw).interval, an.analyze(&deduped).interval);
    }

    #[test]
    fn fifty_duplicates_are_not_worldwide() {
        let world = test_world();
        let an = analyzer(&world);
        // 50 copies of an unknown code must not classify as worldwide: the
        // audience is provably empty, not the full population.
        let zz = CountryCode::new("ZZ");
        let mut builder = TargetingSpec::builder();
        for _ in 0..MAX_LOCATIONS {
            builder = builder.location(zz);
        }
        let analysis = an.analyze_raw(&builder);
        assert!(analysis.is_contradictory());
        assert_eq!(analysis.interval, AudienceInterval::EMPTY);
        assert!(analysis.findings.contains(&SpecFinding::UnknownLocation(zz)));
        assert!(analysis.findings.contains(&SpecFinding::EmptyLocations));
    }

    #[test]
    fn universe_cover_with_duplicates_surfaces_findings() {
        let world = test_world();
        let an = analyzer(&world);
        // The whole universe plus one repeat: worldwide by membership, but
        // the explicit path still reports the duplicate and the subsumption.
        let mut builder = TargetingSpec::builder().worldwide();
        builder = builder.location(TARGETING_UNIVERSE[0].code);
        let analysis = an.analyze_raw(&builder);
        assert!(analysis
            .findings
            .contains(&SpecFinding::DuplicateLocation(TARGETING_UNIVERSE[0].code)));
        assert!(analysis.findings.contains(&SpecFinding::LocationsCoverUniverse));
        assert!(!analysis.is_contradictory());
    }

    #[test]
    fn catalog_marginals_mark_the_interval_advisory() {
        let world = test_world();
        let spec = TargetingSpec::builder()
            .worldwide()
            .interest(InterestId(1))
            .build()
            .expect("valid spec");
        let exact = analyzer(&world).analyze(&spec);
        assert!(exact.interval_sound);
        let approx = SpecAnalyzer::from_catalog(world.catalog(), world.population() as f64);
        assert!(!approx.marginals().is_exact());
        assert!(!approx.analyze(&spec).interval_sound);
        // A structural contradiction is sound whatever the marginals.
        let contradictory =
            approx.analyze_raw(&TargetingSpec::builder().worldwide().age_range(40, 20));
        assert!(contradictory.interval_sound);
        assert_eq!(contradictory.interval, AudienceInterval::EMPTY);
    }

    #[test]
    fn risk_ladder_follows_paper_thresholds() {
        let t = NpThresholds::paper();
        let big = 1e9;
        assert!(matches!(
            NanotargetingRisk::assess(2, big, &t),
            NanotargetingRisk::Low { interests: 2 }
        ));
        assert!(matches!(
            NanotargetingRisk::assess(5, big, &t),
            NanotargetingRisk::Possible { interests: 5 }
        ));
        assert!(matches!(
            NanotargetingRisk::assess(9, big, &t),
            NanotargetingRisk::Elevated { interests: 9 }
        ));
        assert!(matches!(
            NanotargetingRisk::assess(23, big, &t),
            NanotargetingRisk::Severe { interests: 23 }
        ));
        assert!(matches!(
            NanotargetingRisk::assess(2, 500.0, &t),
            NanotargetingRisk::Critical { interests: 2, .. }
        ));
        assert!(NanotargetingRisk::assess(9, big, &t).is_actionable());
        assert!(!NanotargetingRisk::assess(5, big, &t).is_actionable());
    }

    #[test]
    fn catalog_marginals_approximate_engine_marginals() {
        let world = test_world();
        let exact = InterestMarginals::from_engine(&world.reach_engine());
        let approx = InterestMarginals::from_catalog(world.catalog(), world.population() as f64);
        // Calibration keeps the catalog residual small; just sanity-check the
        // same order of magnitude on a few ids.
        for id in [0u32, 5, 11] {
            let e = exact.marginal(InterestId(id)).expect("in catalog");
            let a = approx.marginal(InterestId(id)).expect("in catalog");
            assert!(e > 0.0 && a > 0.0);
            assert!(a / e < 10.0 && e / a < 10.0, "id {id}: exact {e} vs catalog {a}");
        }
    }

    #[test]
    fn country_filter_narrows_the_interval() {
        let world = test_world();
        let an = analyzer(&world);
        let worldwide = TargetingSpec::builder().worldwide().build().expect("valid");
        let us_only =
            TargetingSpec::builder().location(TARGETING_UNIVERSE[0].code).build().expect("valid");
        let w = an.analyze(&worldwide).interval;
        let u = an.analyze(&us_only).interval;
        assert!(u.upper < w.upper);
        let api = crate::AdsManagerApi::new(&world, crate::ReportingEra::Post2018);
        assert!(u.contains(api.true_reach(&us_only)));
    }
}
