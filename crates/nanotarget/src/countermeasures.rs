//! §8.3 countermeasure evaluation.
//!
//! Replays the 21-campaign experiment plan under each proposed platform
//! policy and reports what gets blocked — in particular whether every
//! campaign that succeeded under the current policy would have been stopped.
//! Also evaluates the custom-audience padding bypass against the
//! active-audience rule.

use fbsim_adplatform::analyze::SpecAnalyzer;
use fbsim_adplatform::custom_audience::CustomAudience;
use fbsim_adplatform::policy::{
    CombinedPolicy, InterestCapPolicy, MinActiveAudiencePolicy, PlatformPolicy, StaticDecision,
};
use fbsim_adplatform::reach::{AdsManagerApi, ReportingEra};
use fbsim_population::World;

use crate::experiment::ExperimentResult;
use crate::validate::NanotargetingVerdict;

/// Evaluation of one policy against the executed experiment.
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// Policy name.
    pub policy: String,
    /// Campaigns blocked at launch (out of 21).
    pub blocked: usize,
    /// Total campaigns evaluated.
    pub total: usize,
    /// Of the campaigns that *succeeded* under the current policy, how many
    /// this policy would have blocked.
    pub successes_blocked: usize,
    /// Successful campaigns under the current policy.
    pub successes_total: usize,
    /// Campaigns the static pre-flight decided (either way) without a
    /// reach-engine conjunction sweep.
    pub statically_decided: usize,
}

impl PolicyEvaluation {
    /// Whether the policy blocks every successful nanotargeting campaign.
    pub fn blocks_all_successes(&self) -> bool {
        self.successes_blocked == self.successes_total
    }
}

/// Replays the experiment's campaigns against a policy, returning the
/// evaluation together with the per-campaign blocked mask (plan order).
fn evaluate_policy_masked<P: PlatformPolicy>(
    world: &World,
    result: &ExperimentResult,
    policy: &P,
) -> (PolicyEvaluation, Vec<bool>) {
    let api = AdsManagerApi::new(world, ReportingEra::Post2018);
    let analyzer = SpecAnalyzer::from_engine(&world.reach_engine());
    let mut mask = Vec::with_capacity(result.rows.len());
    let mut blocked = 0;
    let mut successes_blocked = 0;
    let mut successes_total = 0;
    let mut statically_decided = 0;
    for (campaign, row) in result.plan.campaigns.iter().zip(&result.rows) {
        let analysis = analyzer.analyze_campaign(&campaign.spec);
        let is_blocked = match policy.evaluate_static(&campaign.spec, &analysis) {
            StaticDecision::Reject(_) => {
                statically_decided += 1;
                true
            }
            StaticDecision::Accept => {
                statically_decided += 1;
                false
            }
            StaticDecision::Inconclusive => {
                let true_reach = api.true_reach(&campaign.spec.targeting);
                policy.evaluate(&campaign.spec, true_reach).is_err()
            }
        };
        mask.push(is_blocked);
        if is_blocked {
            blocked += 1;
        }
        if row.verdict == NanotargetingVerdict::Success {
            successes_total += 1;
            if is_blocked {
                successes_blocked += 1;
            }
        }
    }
    let eval = PolicyEvaluation {
        policy: policy.name().to_string(),
        blocked,
        total: result.rows.len(),
        successes_blocked,
        successes_total,
        statically_decided,
    };
    (eval, mask)
}

/// Replays the experiment's campaigns against a policy.
///
/// Each campaign first goes through the policy's static pre-flight over
/// engine-exact marginals (see
/// [`SpecAnalyzer::from_engine`]); only
/// inconclusive campaigns pay for a true-audience conjunction sweep, exactly
/// as the [`CampaignManager`](fbsim_adplatform::CampaignManager) launch path
/// does.
pub fn evaluate_policy<P: PlatformPolicy>(
    world: &World,
    result: &ExperimentResult,
    policy: &P,
) -> PolicyEvaluation {
    evaluate_policy_masked(world, result, policy).0
}

/// The full §8.3 evaluation: both proposals separately and combined.
pub fn evaluate_all(world: &World, result: &ExperimentResult) -> Vec<PolicyEvaluation> {
    vec![
        evaluate_policy(world, result, &InterestCapPolicy::paper_proposal()),
        evaluate_policy(world, result, &MinActiveAudiencePolicy::paper_proposal()),
        evaluate_policy(world, result, &CombinedPolicy::paper_proposal()),
    ]
}

/// One policy evaluated against the isolated run and a contended run of the
/// same plan.
///
/// The §8.3 policies act at *launch*, on the campaign spec and its true
/// audience — inputs contention cannot touch — so the per-campaign blocked
/// mask is expected to be identical across runs (`blocked_set_changed ==
/// false`); this is the auditable statement that the proposed rules are
/// robust to market conditions. What contention does change is which
/// campaigns *succeed*, and hence how many of the blocked campaigns were
/// live threats (`successes_blocked`).
#[derive(Debug, Clone)]
pub struct PolicyContentionContrast {
    /// Policy name.
    pub policy: String,
    /// Evaluation against the isolated run.
    pub isolated: PolicyEvaluation,
    /// Evaluation against the contended run.
    pub contended: PolicyEvaluation,
    /// Whether the per-campaign blocked mask differs between the runs.
    pub blocked_set_changed: bool,
    /// Whether the set of successful campaigns differs between the runs.
    pub success_set_changed: bool,
}

/// The §8.3 evaluation under contention: each policy against the isolated
/// baseline and a contended replay of the same plan, with the blocked-set
/// comparison feeding `table5_countermeasures`.
pub fn evaluate_all_under_contention(
    world: &World,
    isolated: &ExperimentResult,
    contended: &ExperimentResult,
) -> Vec<PolicyContentionContrast> {
    let success_set_changed = isolated.rows.iter().zip(&contended.rows).any(|(a, b)| {
        (a.verdict == NanotargetingVerdict::Success) != (b.verdict == NanotargetingVerdict::Success)
    });
    fn contrast<P: PlatformPolicy>(
        world: &World,
        isolated: &ExperimentResult,
        contended: &ExperimentResult,
        policy: &P,
        success_set_changed: bool,
    ) -> PolicyContentionContrast {
        let (iso_eval, iso_mask) = evaluate_policy_masked(world, isolated, policy);
        let (con_eval, con_mask) = evaluate_policy_masked(world, contended, policy);
        PolicyContentionContrast {
            policy: iso_eval.policy.clone(),
            blocked_set_changed: iso_mask != con_mask,
            success_set_changed,
            isolated: iso_eval,
            contended: con_eval,
        }
    }
    vec![
        contrast(
            world,
            isolated,
            contended,
            &InterestCapPolicy::paper_proposal(),
            success_set_changed,
        ),
        contrast(
            world,
            isolated,
            contended,
            &MinActiveAudiencePolicy::paper_proposal(),
            success_set_changed,
        ),
        contrast(
            world,
            isolated,
            contended,
            &CombinedPolicy::paper_proposal(),
            success_set_changed,
        ),
    ]
}

/// The custom-audience bypass under the active-audience rule: a 100-record
/// list padded with unreachable accounts reaches one person, which the
/// active-minimum policy rejects.
#[derive(Debug, Clone)]
pub struct BypassEvaluation {
    /// Records in the uploaded list.
    pub list_size: usize,
    /// Accounts FB's current rule counts.
    pub matched: usize,
    /// Active accounts the §8.3 rule counts.
    pub active_matched: usize,
    /// Whether the current 100-record rule admits the audience.
    pub passes_current_rule: bool,
    /// Whether the §8.3 active-minimum (1,000) admits it.
    pub passes_active_minimum: bool,
}

/// Evaluates the single-target padding bypass.
pub fn evaluate_custom_audience_bypass() -> BypassEvaluation {
    let list = CustomAudience::bypass_list(0x7A26E7, 99);
    // lint:allow(no-unwrap) — invariant: the sweep only builds lists at or above the minimum
    let audience = CustomAudience::create(list, true).expect("list meets the current minimum");
    BypassEvaluation {
        list_size: audience.list_size(),
        matched: audience.matched(),
        active_matched: audience.active_matched(),
        passes_current_rule: audience.list_size() >= 100,
        passes_active_minimum: audience.active_matched() as u64
            >= MinActiveAudiencePolicy::paper_proposal().min_active,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, ExperimentConfig};
    use fbsim_population::{MaterializedUser, WorldConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, ExperimentResult) {
        static FIX: OnceLock<(World, ExperimentResult)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(13)).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let targets: Vec<MaterializedUser> = (0..3)
                .map(|_| world.materializer().sample_user_with_count(&mut rng, 120))
                .collect();
            let refs: Vec<&MaterializedUser> = targets.iter().collect();
            let result = run_experiment(&world, &refs, &ExperimentConfig::default()).unwrap();
            (world, result)
        })
    }

    #[test]
    fn interest_cap_blocks_all_deep_campaigns() {
        let (world, result) = fixture();
        let eval = evaluate_policy(world, result, &InterestCapPolicy::paper_proposal());
        // 12, 18, 20, 22 and 9-interest campaigns exceed the cap of 8:
        // 5 sizes × 3 users = 15 blocked.
        assert_eq!(eval.blocked, 15);
        assert!(eval.blocks_all_successes());
        // The cap is a purely static rule: no campaign needs the engine.
        assert_eq!(eval.statically_decided, eval.total);
    }

    #[test]
    fn min_audience_blocks_all_successes() {
        let (world, result) = fixture();
        let eval = evaluate_policy(world, result, &MinActiveAudiencePolicy::paper_proposal());
        assert!(eval.blocks_all_successes(), "{eval:?}");
        // Broad 5-interest campaigns stay allowed.
        assert!(eval.blocked < eval.total, "{eval:?}");
    }

    #[test]
    fn combined_blocks_everything_either_blocks() {
        let (world, result) = fixture();
        let evals = evaluate_all(world, result);
        assert_eq!(evals.len(), 3);
        let combined = &evals[2];
        assert!(combined.blocked >= evals[0].blocked.max(evals[1].blocked));
        assert!(combined.blocks_all_successes());
    }

    #[test]
    fn contention_never_changes_the_blocked_set() {
        // §8.3 policies act on the spec and its true audience at launch,
        // which contention cannot touch: the blocked set must be invariant
        // even when contention changes which campaigns succeed.
        let (world, result) = fixture();
        let mut rng = StdRng::seed_from_u64(99);
        let targets: Vec<MaterializedUser> =
            (0..3).map(|_| world.materializer().sample_user_with_count(&mut rng, 120)).collect();
        let refs: Vec<&MaterializedUser> = targets.iter().collect();
        let sweep = crate::contention::run_contention_sweep(
            world,
            &refs,
            &ExperimentConfig::default(),
            2021,
            &[64],
        )
        .unwrap();
        let contrasts = evaluate_all_under_contention(world, result, &sweep.results[0]);
        assert_eq!(contrasts.len(), 3);
        for c in &contrasts {
            assert!(!c.blocked_set_changed, "{}: blocked set changed under contention", c.policy);
            assert_eq!(c.isolated.blocked, c.contended.blocked);
            // Whatever still succeeds under contention stays fully covered
            // by the combined proposal.
            if c.policy == contrasts[2].policy {
                assert!(c.contended.blocks_all_successes(), "{c:?}");
            }
        }
    }

    #[test]
    fn bypass_caught_only_by_active_rule() {
        let eval = evaluate_custom_audience_bypass();
        assert!(eval.passes_current_rule);
        assert!(!eval.passes_active_minimum);
        assert_eq!(eval.active_matched, 1);
        assert_eq!(eval.matched, 100);
    }
}
