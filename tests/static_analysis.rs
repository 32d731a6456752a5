//! Property-based tests of the static campaign-spec analyzer.
//!
//! Two soundness properties back the analyzer's use as a pre-flight gate:
//!
//! 1. for every *valid* spec, the conservative audience interval computed
//!    from engine-exact marginals contains the reach engine's true expected
//!    audience — so a static rejection (`upper < minimum`) can never veto a
//!    campaign the dynamic policy path would have accepted;
//! 2. a spec the analyzer calls *contradictory* matches no materialised
//!    user under the direct targeting semantics — so rejecting it without
//!    invoking the reach engine loses nothing.

use std::sync::OnceLock;

use fbsim_adplatform::analyze::{raw_spec_matches, SpecAnalyzer};
use fbsim_adplatform::targeting::TargetingBuilder;
use fbsim_adplatform::{AdsManagerApi, Gender, ReportingEra, TargetingSpec};
use fbsim_population::cohort::MaterializedUser;
use fbsim_population::{InterestId, World, WorldConfig, TARGETING_UNIVERSE};
use proptest::prelude::*;

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(7)).expect("world generates"))
}

fn cohort() -> &'static [MaterializedUser] {
    static COHORT: OnceLock<Vec<MaterializedUser>> = OnceLock::new();
    COHORT.get_or_init(|| world().sample_cohort(40, 2021))
}

/// Engine-exact analyzer, built once: marginal extraction walks the whole
/// panel per interest, far too slow to repeat per proptest case.
fn analyzer() -> &'static SpecAnalyzer {
    static ANALYZER: OnceLock<SpecAnalyzer> = OnceLock::new();
    ANALYZER.get_or_init(|| SpecAnalyzer::from_engine(&world().reach_engine()))
}

/// Stages locations, interests, gender, and an age window on a fresh
/// builder. Seeds are deduplicated because `build()` rejects duplicates.
fn stage(
    worldwide: bool,
    country_seeds: &[usize],
    interest_seeds: &[usize],
    gender: Option<Gender>,
    age: Option<(u8, u8)>,
) -> TargetingBuilder {
    let mut builder = TargetingSpec::builder();
    if worldwide {
        builder = builder.worldwide();
    } else {
        let mut countries: Vec<usize> =
            country_seeds.iter().map(|&c| c % TARGETING_UNIVERSE.len()).collect();
        countries.sort_unstable();
        countries.dedup();
        for c in countries {
            builder = builder.location(TARGETING_UNIVERSE[c].code);
        }
    }
    let catalog_len = world().catalog().len();
    let mut interests: Vec<u32> =
        interest_seeds.iter().map(|&i| (i % catalog_len) as u32).collect();
    interests.sort_unstable();
    interests.dedup();
    for id in interests {
        builder = builder.interest(InterestId(id));
    }
    if let Some(g) = gender {
        builder = builder.gender(g);
    }
    if let Some((lo, hi)) = age {
        builder = builder.age_range(lo, hi);
    }
    builder
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness of the audience interval: with engine-exact marginals the
    /// analyzer's `[lower, upper]` always contains the engine's true
    /// expected audience, for arbitrary valid specs.
    #[test]
    fn interval_contains_true_reach(
        worldwide in any::<bool>(),
        country_seeds in prop::collection::vec(0usize..1_000, 1..6),
        interest_seeds in prop::collection::vec(0usize..100_000, 0..4),
        use_gender in any::<bool>(),
        male in any::<bool>(),
        lo in 13u8..=65,
        span in 0u8..53,
    ) {
        let world = world();
        let analyzer = analyzer();
        let api = AdsManagerApi::new(world, ReportingEra::Post2018);
        let gender = use_gender.then_some(if male { Gender::Male } else { Gender::Female });
        let hi = lo.saturating_add(span).min(65);
        let builder = stage(worldwide, &country_seeds, &interest_seeds, gender, Some((lo, hi)));
        let spec = builder.build().expect("staged spec is valid by construction");

        let analysis = analyzer.analyze(&spec);
        let true_reach = api.true_reach(&spec);
        prop_assert!(
            analysis.interval.contains(true_reach),
            "interval {:?} must contain true reach {true_reach} for {spec:?}",
            analysis.interval,
        );
        prop_assert!(analysis.interval.lower <= analysis.interval.upper);
    }

    /// Soundness of the contradiction verdict: a spec the analyzer proves
    /// contradictory matches no sampled user under the direct semantics.
    #[test]
    fn contradictory_spec_matches_no_sampled_user(
        bogus_interest in any::<bool>(),
        worldwide in any::<bool>(),
        country_seeds in prop::collection::vec(0usize..1_000, 1..6),
        interest_seeds in prop::collection::vec(0usize..100_000, 0..4),
        lo in 21u8..=65,
        drop in 1u8..8,
    ) {
        let world = world();
        let analyzer = analyzer();
        let mut builder =
            stage(worldwide, &country_seeds, &interest_seeds, None, None);
        if bogus_interest {
            // An interest id beyond the catalog: carried by no user, flagged
            // UnknownInterest (Contradiction) by the analyzer.
            let beyond = world.catalog().len() as u32 + 7;
            builder = builder.interest(InterestId(beyond));
        } else {
            // A reversed age window: admits no age at all.
            builder = builder.age_range(lo, lo - drop);
        }

        let analysis = analyzer.analyze_raw(&builder);
        prop_assert!(analysis.is_contradictory(), "findings: {:?}", analysis.findings);
        prop_assert!(analysis.provably_empty());
        for user in cohort() {
            prop_assert!(
                !raw_spec_matches(&builder, user),
                "contradictory spec matched a user: {:?}",
                analysis.findings,
            );
        }
    }
}
