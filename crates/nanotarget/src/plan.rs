//! The experiment plan (Section 5.1).
//!
//! Three target users (in the paper: three authors, aware and consenting —
//! here: three simulated cohort users designated as targets), each with 7
//! campaigns over nested random interest sets of sizes 5, 7, 9, 12, 18, 20
//! and 22. Sets are nested downward from 22 (drop 2 → 20, drop 2 → 18,
//! drop 6 → 12, …), every campaign gets its own ad creativity identifying
//! `(user, interest count)` and its own landing page.

use fbsim_adplatform::campaign::{CampaignSpec, Creativity, Schedule};
use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_population::{InterestId, MaterializedUser};
use rand::Rng;
use uniqueness::selection::{experiment_nested_sets, EXPERIMENT_SIZES};

/// The Success Group sizes (expected success probability 50–90%).
pub const SUCCESS_GROUP: [usize; 4] = [12, 18, 20, 22];
/// The Failure Group sizes (expected success probability 2.5–30%).
pub const FAILURE_GROUP: [usize; 3] = [5, 7, 9];

/// One planned campaign.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// Target user index (0-based; the paper labels them User 1–3).
    pub user_index: usize,
    /// Number of interests in the audience.
    pub interest_count: usize,
    /// The nested interest set.
    pub interests: Vec<InterestId>,
    /// The full campaign spec, ready to launch.
    pub spec: CampaignSpec,
}

impl CampaignPlan {
    /// Whether the plan belongs to the Success Group.
    pub fn in_success_group(&self) -> bool {
        SUCCESS_GROUP.contains(&self.interest_count)
    }
}

/// The full 21-campaign plan.
#[derive(Debug, Clone)]
pub struct ExperimentPlan {
    /// All planned campaigns (3 users × 7 sizes).
    pub campaigns: Vec<CampaignPlan>,
}

/// Errors building a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// A target user has fewer than 22 interests, so the nested sets cannot
    /// be formed.
    TargetTooFewInterests {
        /// Index of the offending target.
        user_index: usize,
        /// Their interest count.
        interests: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::TargetTooFewInterests { user_index, interests } => {
                write!(f, "target user {user_index} has only {interests} interests; 22 are needed")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl ExperimentPlan {
    /// Builds the plan for a set of target users.
    ///
    /// Campaign geography is "worldwide" and the budget is the paper's
    /// 10 €/day over the paper's 33-hour schedule.
    ///
    /// # Errors
    ///
    /// Fails if any target has fewer than 22 interests.
    pub fn build<R: Rng + ?Sized>(
        targets: &[&MaterializedUser],
        rng: &mut R,
    ) -> Result<Self, PlanError> {
        let mut campaigns = Vec::with_capacity(targets.len() * EXPERIMENT_SIZES.len());
        for (user_index, user) in targets.iter().enumerate() {
            let sets =
                experiment_nested_sets(user, rng).ok_or(PlanError::TargetTooFewInterests {
                    user_index,
                    interests: user.interests.len(),
                })?;
            for &size in &EXPERIMENT_SIZES {
                let interests = sets[&size].clone();
                let targeting = TargetingSpec::builder()
                    .worldwide()
                    .interests(interests.iter().copied())
                    .build()
                    // lint:allow(no-unwrap) — invariant: prefixes of a distinct list stay distinct and capped
                    .expect("nested sets are distinct and within limits");
                let spec = CampaignSpec {
                    name: format!("FDVT promo — User {} / {} interests", user_index + 1, size),
                    targeting,
                    creativity: Creativity {
                        title: format!("User {} — {} interests", user_index + 1, size),
                        landing_url: format!(
                            "https://fdvt.example/landing/u{}/n{}",
                            user_index + 1,
                            size
                        ),
                    },
                    daily_budget_eur: 10.0,
                    schedule: Schedule::paper_experiment(),
                };
                campaigns.push(CampaignPlan { user_index, interest_count: size, interests, spec });
            }
        }
        Ok(Self { campaigns })
    }

    /// Campaigns for one target.
    pub fn for_user(&self, user_index: usize) -> Vec<&CampaignPlan> {
        self.campaigns.iter().filter(|c| c.user_index == user_index).collect()
    }

    /// Number of campaigns.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_population::{World, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plan() -> ExperimentPlan {
        let world = World::generate(WorldConfig::test_scale(51)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let targets: Vec<MaterializedUser> =
            (0..3).map(|_| world.materializer().sample_user_with_count(&mut rng, 100)).collect();
        let refs: Vec<&MaterializedUser> = targets.iter().collect();
        ExperimentPlan::build(&refs, &mut rng).unwrap()
    }

    #[test]
    fn twenty_one_campaigns() {
        let p = plan();
        assert_eq!(p.len(), 21);
        for user in 0..3 {
            assert_eq!(p.for_user(user).len(), 7);
        }
    }

    #[test]
    fn sets_nested_within_user() {
        let p = plan();
        for user in 0..3 {
            let campaigns = p.for_user(user);
            for pair in campaigns.windows(2) {
                // for_user preserves size order (5, 7, 9, 12, 18, 20, 22).
                let (small, large) = (&pair[0], &pair[1]);
                assert!(small.interest_count < large.interest_count);
                for id in &small.interests {
                    assert!(large.interests.contains(id));
                }
            }
        }
    }

    #[test]
    fn groups_partition_sizes() {
        let p = plan();
        let success = p.campaigns.iter().filter(|c| c.in_success_group()).count();
        assert_eq!(success, 12); // 3 users × {12, 18, 20, 22}
        assert_eq!(p.len() - success, 9); // 3 users × {5, 7, 9}
    }

    #[test]
    fn creativities_and_landings_unique() {
        let p = plan();
        let mut urls: Vec<&str> =
            p.campaigns.iter().map(|c| c.spec.creativity.landing_url.as_str()).collect();
        urls.sort();
        urls.dedup();
        assert_eq!(urls.len(), 21);
        let c = &p.for_user(2)[3];
        assert!(c.spec.creativity.title.contains("User 3"));
        assert!(c.spec.creativity.title.contains("12 interests"));
    }

    #[test]
    fn worldwide_budget_and_schedule() {
        let p = plan();
        for c in &p.campaigns {
            assert!(c.spec.targeting.is_worldwide());
            assert_eq!(c.spec.daily_budget_eur, 10.0);
            assert!((c.spec.schedule.active_hours() - 33.0).abs() < 1e-9);
        }
    }

    #[test]
    fn short_target_rejected() {
        let world = World::generate(WorldConfig::test_scale(52)).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let short = world.materializer().sample_user_with_count(&mut rng, 10);
        let err = ExperimentPlan::build(&[&short], &mut rng).unwrap_err();
        assert_eq!(err, PlanError::TargetTooFewInterests { user_index: 0, interests: 10 });
    }
}
