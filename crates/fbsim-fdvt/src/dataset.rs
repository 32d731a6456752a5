//! The FDVT research cohort — the paper's 2,390-user dataset (Section 3,
//! Table 4).
//!
//! Cohort users carry the declared demographics of the real dataset
//! (generated to match the published marginals exactly) and a materialised
//! interest list drawn from the population model with the Fig.-1
//! interest-count distribution.
//!
//! ### Injected demographic heterogeneity
//!
//! The paper's Appendix C reports mild demographic differences in `N(R)_0.9`
//! (women above men, adolescents above adults, Argentina above France).
//! Nothing in a synthetic world produces those specific differences by
//! itself, so the generator optionally injects them through the taste
//! *diversity* channel: groups the paper found harder to nanotarget get
//! slightly narrower taste topic ranges (more concentrated interests →
//! larger conjunction audiences → larger `N(R)`). This is a documented
//! substitution for unobservable real-world heterogeneity, switchable via
//! [`CohortConfig::demographic_effects`].

use fbsim_population::countries::CountryCode;
use fbsim_population::{MaterializedUser, World};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Declared gender in the registration form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenderDecl {
    /// Declared man (1,949 users in the paper's cohort).
    Man,
    /// Declared woman (347 users).
    Woman,
    /// Gender not disclosed (94 users).
    Undisclosed,
}

/// Erikson age bands used by the paper's Appendix C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeBand {
    /// 13–19 (117 users).
    Adolescence,
    /// 20–39 (1,374 users).
    EarlyAdulthood,
    /// 40–64 (578 users).
    Adulthood,
    /// 65+ (19 users).
    Maturity,
    /// Age not disclosed (302 users).
    Undisclosed,
}

impl AgeBand {
    /// Classifies a declared age.
    pub fn of_age(age: u8) -> Self {
        match age {
            0..=19 => AgeBand::Adolescence,
            20..=39 => AgeBand::EarlyAdulthood,
            40..=64 => AgeBand::Adulthood,
            _ => AgeBand::Maturity,
        }
    }
}

/// One cohort user: declared demographics plus the materialised interest
/// list the extension harvested.
#[derive(Debug, Clone)]
pub struct FdvtUser {
    /// Stable index in the cohort.
    pub id: u32,
    /// Declared country (Table 4; compulsory at registration).
    pub country: CountryCode,
    /// Declared gender.
    pub gender: GenderDecl,
    /// Declared age band.
    pub age_band: AgeBand,
    /// The user's materialised profile (taste + interest list).
    pub profile: MaterializedUser,
}

/// The paper's Table 4: users per country in the 2,390-user cohort.
pub const COHORT_COUNTRIES: [(&str, u32); 80] = [
    ("ES", 1131),
    ("FR", 335),
    ("MX", 122),
    ("AR", 115),
    ("EC", 89),
    ("PE", 78),
    ("CA", 61),
    ("CO", 48),
    ("US", 40),
    ("BE", 36),
    ("UY", 35),
    ("GB", 26),
    ("CH", 24),
    ("PT", 21),
    ("VE", 18),
    ("SV", 17),
    ("CL", 14),
    ("PY", 13),
    ("DE", 11),
    ("IT", 11),
    ("BO", 9),
    ("MA", 8),
    ("BR", 6),
    ("GT", 6),
    ("HN", 6),
    ("NI", 6),
    ("NL", 6),
    ("PA", 6),
    ("TN", 6),
    ("BD", 5),
    ("SE", 4),
    ("TH", 4),
    ("AD", 3),
    ("AT", 3),
    ("DK", 3),
    ("DZ", 3),
    ("FI", 3),
    ("PK", 3),
    ("SN", 3),
    ("AF", 2),
    ("AU", 2),
    ("CY", 2),
    ("DO", 2),
    ("GR", 2),
    ("HK", 2),
    ("ID", 2),
    ("IE", 2),
    ("LU", 2),
    ("PL", 2),
    ("RE", 2),
    ("AL", 1),
    ("AM", 1),
    ("AO", 1),
    ("AX", 1),
    ("BG", 1),
    ("BT", 1),
    ("CI", 1),
    ("CR", 1),
    ("CZ", 1),
    ("DJ", 1),
    ("GI", 1),
    ("GN", 1),
    ("IN", 1),
    ("IQ", 1),
    ("LK", 1),
    ("LT", 1),
    ("MG", 1),
    ("MO", 1),
    ("MU", 1),
    ("NC", 1),
    ("NP", 1),
    ("NZ", 1),
    ("PH", 1),
    ("PM", 1),
    ("PR", 1),
    ("RO", 1),
    ("RS", 1),
    ("RU", 1),
    ("RW", 1),
    ("TW", 1),
];

/// The paper's gender marginals: (men, women, undisclosed).
pub const GENDER_MARGINALS: (u32, u32, u32) = (1_949, 347, 94);

/// The paper's age-band marginals: (adolescence, early adulthood, adulthood,
/// maturity, undisclosed).
pub const AGE_MARGINALS: (u32, u32, u32, u32, u32) = (117, 1_374, 578, 19, 302);

/// Cohort-generation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CohortConfig {
    /// Number of users (the paper: 2,390).
    pub size: u32,
    /// Seed for demographics and profile materialisation.
    pub seed: u64,
    /// Whether to inject the Appendix-C demographic heterogeneity (see
    /// module docs).
    pub demographic_effects: bool,
}

impl Default for CohortConfig {
    fn default() -> Self {
        Self { size: 2_390, seed: 0xFD07, demographic_effects: true }
    }
}

/// The assembled research cohort.
#[derive(Debug, Clone)]
pub struct FdvtDataset {
    /// Cohort users.
    pub users: Vec<FdvtUser>,
}

/// Taste topic-count shift for the injected demographic effects: groups the
/// paper found harder to nanotarget get narrower (more concentrated) tastes.
fn diversity_shift(gender: GenderDecl, age: AgeBand, country: CountryCode) -> i32 {
    let mut shift = 0i32;
    if gender == GenderDecl::Woman {
        shift -= 1;
    }
    if age == AgeBand::Adolescence {
        shift -= 1;
    }
    match country.as_str() {
        "AR" => shift -= 1,
        "FR" => shift += 1,
        _ => {}
    }
    shift
}

impl FdvtDataset {
    /// Generates a cohort from a world.
    ///
    /// Demographic marginals follow the paper exactly when `config.size`
    /// equals 2,390; for other sizes each marginal is scaled proportionally
    /// (largest-remainder rounding on the country table).
    pub fn generate(world: &World, config: CohortConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFD_D47A);
        let size = config.size as usize;
        let genders = scaled_assignments(
            &[
                (GenderDecl::Man, GENDER_MARGINALS.0),
                (GenderDecl::Woman, GENDER_MARGINALS.1),
                (GenderDecl::Undisclosed, GENDER_MARGINALS.2),
            ],
            size,
            &mut rng,
        );
        let ages = scaled_assignments(
            &[
                (AgeBand::Adolescence, AGE_MARGINALS.0),
                (AgeBand::EarlyAdulthood, AGE_MARGINALS.1),
                (AgeBand::Adulthood, AGE_MARGINALS.2),
                (AgeBand::Maturity, AGE_MARGINALS.3),
                (AgeBand::Undisclosed, AGE_MARGINALS.4),
            ],
            size,
            &mut rng,
        );
        let country_table: Vec<(CountryCode, u32)> =
            COHORT_COUNTRIES.iter().map(|&(code, n)| (CountryCode::new(code), n)).collect();
        let countries = scaled_assignments(&country_table, size, &mut rng);

        let materializer = world.materializer();
        let cfg = world.config();
        let users = (0..size)
            .map(|i| {
                let gender = genders[i];
                let age_band = ages[i];
                let country = countries[i];
                let topics_range = if config.demographic_effects {
                    let shift = diversity_shift(gender, age_band, country);
                    let min = (cfg.topics_per_user_min as i32 + shift).max(1) as u32;
                    let max = (cfg.topics_per_user_max as i32 + shift).max(min as i32) as u32;
                    Some((min, max))
                } else {
                    None
                };
                let profile = materializer.sample_user_customized(&mut rng, None, topics_range);
                FdvtUser { id: i as u32, country, gender, age_band, profile }
            })
            .collect();
        Self { users }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Whether the cohort is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Users declaring a given gender.
    pub fn by_gender(&self, gender: GenderDecl) -> Vec<&FdvtUser> {
        self.users.iter().filter(|u| u.gender == gender).collect()
    }

    /// Users in a given age band.
    pub fn by_age_band(&self, band: AgeBand) -> Vec<&FdvtUser> {
        self.users.iter().filter(|u| u.age_band == band).collect()
    }

    /// Users declaring a given country.
    pub fn by_country(&self, country: CountryCode) -> Vec<&FdvtUser> {
        self.users.iter().filter(|u| u.country == country).collect()
    }

    /// Interests-per-user sample (Fig. 1 input).
    pub fn interests_per_user(&self) -> Vec<f64> {
        self.users.iter().map(|u| u.profile.interests.len() as f64).collect()
    }

    /// All distinct interests appearing in the cohort (the paper's "99k
    /// unique interests" at full scale).
    pub fn unique_interests(&self) -> Vec<fbsim_population::InterestId> {
        let mut ids: Vec<_> =
            self.users.iter().flat_map(|u| u.profile.interests.iter().copied()).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Total interest occurrences (the paper: 1.5M).
    pub fn total_occurrences(&self) -> usize {
        self.users.iter().map(|u| u.profile.interests.len()).sum()
    }
}

/// Expands `(value, weight)` marginals into exactly `size` assignments
/// (largest-remainder rounding), shuffled so joint demographics are
/// independent — the paper reports marginals only.
fn scaled_assignments<T: Copy>(marginals: &[(T, u32)], size: usize, rng: &mut StdRng) -> Vec<T> {
    let total: u64 = marginals.iter().map(|&(_, n)| n as u64).sum();
    assert!(total > 0, "marginals must be non-empty");
    let mut counts: Vec<(usize, u64, f64)> = marginals
        .iter()
        .enumerate()
        .map(|(i, &(_, n))| {
            let exact = n as f64 * size as f64 / total as f64;
            (i, exact.floor() as u64, exact - exact.floor())
        })
        .collect();
    let assigned: u64 = counts.iter().map(|&(_, c, _)| c).sum();
    let mut remainder = size as u64 - assigned;
    // Largest remainders get the leftover slots.
    counts.sort_by(|a, b| b.2.total_cmp(&a.2));
    for slot in counts.iter_mut() {
        if remainder == 0 {
            break;
        }
        slot.1 += 1;
        remainder -= 1;
    }
    let mut out: Vec<T> = Vec::with_capacity(size);
    for &(i, count, _) in &counts {
        out.extend(std::iter::repeat_n(marginals[i].0, count as usize));
    }
    debug_assert_eq!(out.len(), size);
    out.shuffle(rng);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::WorldConfig;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(33)).unwrap())
    }

    fn small_cohort() -> FdvtDataset {
        FdvtDataset::generate(
            world(),
            CohortConfig { size: 239, seed: 1, demographic_effects: true },
        )
    }

    #[test]
    fn table4_sums_to_2390() {
        let total: u32 = COHORT_COUNTRIES.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2_390);
        assert_eq!(COHORT_COUNTRIES.len(), 80);
    }

    #[test]
    fn gender_and_age_marginals_sum() {
        assert_eq!(GENDER_MARGINALS.0 + GENDER_MARGINALS.1 + GENDER_MARGINALS.2, 2_390);
        let (a, b, c, d, e) = AGE_MARGINALS;
        assert_eq!(a + b + c + d + e, 2_390);
    }

    #[test]
    fn full_size_cohort_matches_paper_marginals() {
        let cohort = FdvtDataset::generate(
            world(),
            CohortConfig { size: 2_390, seed: 9, demographic_effects: false },
        );
        assert_eq!(cohort.len(), 2_390);
        assert_eq!(cohort.by_gender(GenderDecl::Man).len(), 1_949);
        assert_eq!(cohort.by_gender(GenderDecl::Woman).len(), 347);
        assert_eq!(cohort.by_gender(GenderDecl::Undisclosed).len(), 94);
        assert_eq!(cohort.by_age_band(AgeBand::Adolescence).len(), 117);
        assert_eq!(cohort.by_age_band(AgeBand::Maturity).len(), 19);
        assert_eq!(cohort.by_country(CountryCode::new("ES")).len(), 1_131);
        assert_eq!(cohort.by_country(CountryCode::new("FR")).len(), 335);
        assert_eq!(cohort.by_country(CountryCode::new("RW")).len(), 1);
    }

    #[test]
    fn scaled_cohort_proportional() {
        let cohort = small_cohort();
        assert_eq!(cohort.len(), 239);
        // 10% scale: Spain ≈ 113, men ≈ 195.
        let spain = cohort.by_country(CountryCode::new("ES")).len();
        assert!((100..=126).contains(&spain), "Spain {spain}");
        let men = cohort.by_gender(GenderDecl::Man).len();
        assert!((185..=205).contains(&men), "men {men}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small_cohort();
        let b = small_cohort();
        for (x, y) in a.users.iter().zip(&b.users) {
            assert_eq!(x.country, y.country);
            assert_eq!(x.profile.interests, y.profile.interests);
        }
    }

    #[test]
    fn interest_counts_follow_cohort_distribution() {
        let cohort = small_cohort();
        let counts = cohort.interests_per_user();
        let mut sorted = counts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = sorted[sorted.len() / 2];
        // Test-scale cohort median is 120.
        assert!((50.0..=260.0).contains(&median), "median {median}");
        assert!(cohort.total_occurrences() > 10_000);
        assert!(!cohort.unique_interests().is_empty());
    }

    #[test]
    fn age_band_classification() {
        assert_eq!(AgeBand::of_age(13), AgeBand::Adolescence);
        assert_eq!(AgeBand::of_age(19), AgeBand::Adolescence);
        assert_eq!(AgeBand::of_age(20), AgeBand::EarlyAdulthood);
        assert_eq!(AgeBand::of_age(39), AgeBand::EarlyAdulthood);
        assert_eq!(AgeBand::of_age(40), AgeBand::Adulthood);
        assert_eq!(AgeBand::of_age(64), AgeBand::Adulthood);
        assert_eq!(AgeBand::of_age(65), AgeBand::Maturity);
    }

    #[test]
    fn demographic_effects_narrow_taste_for_women() {
        let cohort = FdvtDataset::generate(
            world(),
            CohortConfig { size: 1_000, seed: 3, demographic_effects: true },
        );
        let avg = |users: &[&FdvtUser]| {
            users.iter().map(|u| u.profile.taste.len() as f64).sum::<f64>() / users.len() as f64
        };
        let women = avg(&cohort.by_gender(GenderDecl::Woman));
        let men = avg(&cohort.by_gender(GenderDecl::Man));
        assert!(women < men, "women taste breadth {women} should be below men {men}");
    }

    #[test]
    fn effects_disabled_gives_uniform_taste() {
        let cohort = FdvtDataset::generate(
            world(),
            CohortConfig { size: 1_000, seed: 3, demographic_effects: false },
        );
        let avg = |users: &[&FdvtUser]| {
            users.iter().map(|u| u.profile.taste.len() as f64).sum::<f64>() / users.len() as f64
        };
        let women = avg(&cohort.by_gender(GenderDecl::Woman));
        let men = avg(&cohort.by_gender(GenderDecl::Man));
        assert!((women - men).abs() < 0.4, "no-effect cohort: {women} vs {men}");
    }
}
