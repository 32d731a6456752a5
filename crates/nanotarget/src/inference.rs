//! Korolova-style attribute inference (§7.2.1).
//!
//! Korolova (2010) showed that once an audience pins down a single person,
//! the ad platform becomes an *oracle for their private attributes*: launch
//! one campaign per candidate value of an attribute (say, each age), each
//! refining the pinning audience with that value — only the campaign whose
//! value matches the target delivers impressions. Facebook's 20-user
//! minimum was introduced in response and, as this paper shows, is no
//! longer in force. This module reproduces the attack against the simulated
//! platform so the countermeasures can be tested against it too.

use fbsim_adplatform::campaign::{CampaignManager, CampaignSpec, Creativity, Schedule};
use fbsim_adplatform::policy::PlatformPolicy;
use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_population::{InterestId, MaterializedUser};
use rand::Rng;

/// One probe campaign of the inference attack.
#[derive(Debug, Clone)]
pub struct ProbeOutcome {
    /// The candidate age range probed.
    pub age_range: (u8, u8),
    /// Whether the probe delivered any impressions to the pinned target.
    pub delivered: bool,
    /// Whether the platform's policy rejected the probe at launch.
    pub rejected: bool,
}

/// Result of an age-inference attack.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// All probes, in candidate order.
    pub probes: Vec<ProbeOutcome>,
    /// The inferred age range, when exactly one probe delivered.
    pub inferred: Option<(u8, u8)>,
    /// Probes the platform blocked.
    pub blocked: usize,
}

/// The age bands the attacker sweeps (coarse first — a real attacker would
/// then bisect, but bands demonstrate the oracle).
pub const AGE_PROBES: [(u8, u8); 4] = [(13, 19), (20, 39), (40, 64), (65, 65)];

/// Runs the age-inference attack: a pinning interest set (enough interests
/// to make the target unique) is combined with each candidate age range;
/// the range whose campaign delivers is the target's age band.
///
/// `target_age_band` is the simulation's ground truth: the probe matching
/// it is the one whose audience contains the target.
pub fn infer_age_band<P: PlatformPolicy, R: Rng + ?Sized>(
    manager: &mut CampaignManager<'_, P>,
    rng: &mut R,
    pinning_interests: &[InterestId],
    target_age_band: (u8, u8),
) -> InferenceResult {
    let mut probes = Vec::with_capacity(AGE_PROBES.len());
    let mut blocked = 0;
    for (lo, hi) in AGE_PROBES {
        let spec = CampaignSpec {
            name: format!("age probe {lo}-{hi}"),
            targeting: TargetingSpec::builder()
                .worldwide()
                .interests(pinning_interests.iter().copied())
                .age_range(lo, hi)
                .build()
                // lint:allow(no-unwrap) — invariant: probes use at most MAX_INTERESTS interests
                .expect("probe spec within limits"),
            creativity: Creativity {
                title: format!("probe {lo}-{hi}"),
                landing_url: format!("https://attacker.example/probe/{lo}-{hi}"),
            },
            daily_budget_eur: 1.0,
            schedule: Schedule::paper_experiment(),
        };
        // The target matches a probe only when the probed band is theirs.
        let target_matches = (lo, hi) == target_age_band;
        match manager.launch(rng, spec, target_matches) {
            Err(_) => {
                blocked += 1;
                probes.push(ProbeOutcome { age_range: (lo, hi), delivered: false, rejected: true });
            }
            Ok(id) => {
                // lint:allow(no-unwrap) — invariant: the probe campaign was accepted just above
                let report = manager.dashboard(id).expect("launched probes deliver");
                probes.push(ProbeOutcome {
                    age_range: (lo, hi),
                    delivered: report.target_seen,
                    rejected: false,
                });
            }
        }
    }
    let delivering: Vec<(u8, u8)> =
        probes.iter().filter(|p| p.delivered).map(|p| p.age_range).collect();
    InferenceResult { inferred: (delivering.len() == 1).then(|| delivering[0]), probes, blocked }
}

/// Picks a pinning interest set for a target: their least popular interests
/// up to `n` — the strongest identifier per §4.3.1.
pub fn pinning_set(
    target: &MaterializedUser,
    catalog: &fbsim_population::InterestCatalog,
    n: usize,
) -> Vec<InterestId> {
    target.interests_by_audience(catalog).into_iter().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_adplatform::delivery::DeliveryModel;
    use fbsim_adplatform::policy::{CurrentFbPolicy, MinActiveAudiencePolicy};
    use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
    use fbsim_population::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(66)).unwrap())
    }

    fn target() -> MaterializedUser {
        let mut rng = StdRng::seed_from_u64(12);
        world().materializer().sample_user_with_count(&mut rng, 120)
    }

    /// Delivery model with spillover pinned off so the oracle is clean.
    fn model() -> DeliveryModel {
        DeliveryModel { narrow_expansion_rate: 0.0, ..DeliveryModel::default() }
    }

    #[test]
    fn age_oracle_reveals_the_band_under_current_policy() {
        let target = target();
        let pins = pinning_set(&target, world().catalog(), 8);
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut manager = CampaignManager::new(api, CurrentFbPolicy, model());
        let mut hits = 0;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let result = infer_age_band(&mut manager, &mut rng, &pins, (20, 39));
            assert_eq!(result.blocked, 0);
            if result.inferred == Some((20, 39)) {
                hits += 1;
            }
            // Never infer a WRONG band: the only delivering probe, if any,
            // is the true one.
            for p in &result.probes {
                if p.delivered {
                    assert_eq!(p.age_range, (20, 39));
                }
            }
        }
        // The target sees the matching probe in most runs.
        assert!(hits >= 7, "only {hits}/10 inferences succeeded");
    }

    #[test]
    fn min_audience_policy_blocks_the_oracle() {
        let target = target();
        let pins = pinning_set(&target, world().catalog(), 8);
        let api = AdsManagerApi::new(world(), ReportingEra::Post2018);
        let mut manager =
            CampaignManager::new(api, MinActiveAudiencePolicy::paper_proposal(), model());
        let mut rng = StdRng::seed_from_u64(3);
        let result = infer_age_band(&mut manager, &mut rng, &pins, (20, 39));
        // Every probe audience is ~1 user, far below 1,000: all blocked.
        assert_eq!(result.blocked, AGE_PROBES.len());
        assert_eq!(result.inferred, None);
    }

    #[test]
    fn pinning_set_is_least_popular_prefix() {
        let target = target();
        let pins = pinning_set(&target, world().catalog(), 5);
        assert_eq!(pins.len(), 5);
        let sorted = target.interests_by_audience(world().catalog());
        assert_eq!(pins, sorted[..5].to_vec());
    }
}
