//! Platform policies: what the platform lets a campaign do.
//!
//! Section 8 of the paper contrasts FB's current (ineffective) protections
//! with two simple countermeasures:
//!
//! 1. **Interest cap** (§8.3): cap audience definitions at fewer than 9
//!    interests — the paper's model shows nanotargeting success collapses
//!    below 9, and AdTech practitioners report <1% of real campaigns use
//!    more than 9.
//! 2. **Minimum active audience** (§8.3): refuse any campaign whose
//!    *active-user* audience is below a limit (recommended 1,000),
//!    counting only genuinely active users — which also closes the
//!    custom-audience padding bypass.
//!
//! The policy trait receives the *true* audience size, which the platform
//! (unlike the advertiser) can compute internally.

use crate::analyze::SpecAnalysis;
use crate::campaign::CampaignSpec;

/// A policy violation that blocks a campaign at launch.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyViolation {
    /// The audience definition uses more interests than the policy allows.
    TooManyInterests {
        /// Interests used.
        used: usize,
        /// Policy maximum.
        max: usize,
    },
    /// The campaign's true active audience is below the policy minimum.
    AudienceTooSmall {
        /// True active audience (rounded).
        active: u64,
        /// Policy minimum.
        min: u64,
    },
}

impl std::fmt::Display for PolicyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyViolation::TooManyInterests { used, max } => {
                write!(f, "audience uses {used} interests; platform policy allows at most {max}")
            }
            PolicyViolation::AudienceTooSmall { active, min } => write!(
                f,
                "campaign matches {active} active users; platform policy requires at least {min}"
            ),
        }
    }
}

impl std::error::Error for PolicyViolation {}

/// Outcome of a policy's *static* pre-flight evaluation, computed from a
/// [`SpecAnalysis`] alone — before the platform spends a reach-engine sweep
/// on the campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum StaticDecision {
    /// The analysis proves the campaign complies; the dynamic check can be
    /// skipped.
    Accept,
    /// The analysis proves a violation; the reach engine never runs.
    Reject(PolicyViolation),
    /// The audience interval brackets the policy threshold — only the true
    /// audience can decide.
    Inconclusive,
}

impl StaticDecision {
    /// Whether the pre-flight reached a verdict either way.
    pub fn is_decisive(&self) -> bool {
        !matches!(self, StaticDecision::Inconclusive)
    }
}

/// A platform-side launch gate.
pub trait PlatformPolicy {
    /// Evaluates a campaign at launch. `true_active_audience` is the
    /// platform-internal expected number of active users matching the
    /// audience.
    ///
    /// # Errors
    ///
    /// Returns the violation blocking the launch.
    fn evaluate(
        &self,
        spec: &CampaignSpec,
        true_active_audience: f64,
    ) -> Result<(), PolicyViolation>;

    /// Static pre-flight: decide from the spec and its
    /// [`SpecAnalysis`] alone, without the true audience.
    ///
    /// Implementations must be *sound*: whenever they return
    /// [`StaticDecision::Accept`] or [`StaticDecision::Reject`], the dynamic
    /// [`evaluate`](PlatformPolicy::evaluate) called with the true audience
    /// would reach the same verdict.  The true audience is guaranteed to
    /// lie inside `analysis.interval` only when `analysis.interval_sound`
    /// holds (engine-measured marginals or a structural contradiction), so
    /// interval-based decisions must return
    /// [`StaticDecision::Inconclusive`] when it does not; spec-only rules
    /// (interest caps) may stay decisive regardless.  The default is always
    /// inconclusive.
    fn evaluate_static(&self, spec: &CampaignSpec, analysis: &SpecAnalysis) -> StaticDecision {
        let _ = (spec, analysis);
        StaticDecision::Inconclusive
    }

    /// Human-readable policy name for reports.
    fn name(&self) -> &'static str;
}

/// Facebook's behaviour as the paper observed it in late 2020: no minimum
/// audience is enforced for interest-based campaigns (the narrow-audience
/// warning is advisory and disappears after swapping one interest), so every
/// campaign launches.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurrentFbPolicy;

impl PlatformPolicy for CurrentFbPolicy {
    fn evaluate(&self, _spec: &CampaignSpec, _audience: f64) -> Result<(), PolicyViolation> {
        Ok(())
    }

    fn evaluate_static(&self, _spec: &CampaignSpec, _analysis: &SpecAnalysis) -> StaticDecision {
        // Everything launches, so nothing ever needs the reach engine.
        StaticDecision::Accept
    }

    fn name(&self) -> &'static str {
        "current-fb-2020"
    }
}

/// §8.3 proposal 1: cap the number of interests per audience.
#[derive(Debug, Clone, Copy)]
pub struct InterestCapPolicy {
    /// Maximum interests allowed per audience definition.
    pub max_interests: usize,
}

impl InterestCapPolicy {
    /// The paper's recommendation: "reduce the maximum number of interests
    /// … to less than 9", i.e. at most 8.
    pub fn paper_proposal() -> Self {
        Self { max_interests: 8 }
    }
}

impl PlatformPolicy for InterestCapPolicy {
    fn evaluate(&self, spec: &CampaignSpec, _audience: f64) -> Result<(), PolicyViolation> {
        let used = spec.targeting.interests().len();
        if used > self.max_interests {
            return Err(PolicyViolation::TooManyInterests { used, max: self.max_interests });
        }
        Ok(())
    }

    fn evaluate_static(&self, spec: &CampaignSpec, _analysis: &SpecAnalysis) -> StaticDecision {
        // The cap depends only on the spec itself — always decisive.
        let used = spec.targeting.interests().len();
        if used > self.max_interests {
            StaticDecision::Reject(PolicyViolation::TooManyInterests {
                used,
                max: self.max_interests,
            })
        } else {
            StaticDecision::Accept
        }
    }

    fn name(&self) -> &'static str {
        "interest-cap"
    }
}

/// §8.3 proposal 2: refuse campaigns whose **active** audience is below a
/// minimum. "The referred limit should not be lower than 100 and our
/// recommendation is to set it equal to 1000."
#[derive(Debug, Clone, Copy)]
pub struct MinActiveAudiencePolicy {
    /// Minimum number of active users the audience must contain.
    pub min_active: u64,
}

impl MinActiveAudiencePolicy {
    /// The paper's recommended limit of 1,000 active users.
    pub fn paper_proposal() -> Self {
        Self { min_active: 1_000 }
    }
}

impl PlatformPolicy for MinActiveAudiencePolicy {
    fn evaluate(&self, _spec: &CampaignSpec, audience: f64) -> Result<(), PolicyViolation> {
        let active = audience.round().max(0.0) as u64;
        if active < self.min_active {
            return Err(PolicyViolation::AudienceTooSmall { active, min: self.min_active });
        }
        Ok(())
    }

    fn evaluate_static(&self, _spec: &CampaignSpec, analysis: &SpecAnalysis) -> StaticDecision {
        // An advisory interval (catalog-approximated marginals) proves
        // nothing about the true audience: defer to the dynamic check.
        if !analysis.interval_sound {
            return StaticDecision::Inconclusive;
        }
        // Compare rounded bounds so the verdict matches `evaluate` applied
        // to any true audience inside the interval: the true audience
        // rounds to something between `lower.round()` and `upper.round()`.
        let upper = analysis.interval.upper.round().max(0.0) as u64;
        let lower = analysis.interval.lower.round().max(0.0) as u64;
        if upper < self.min_active {
            StaticDecision::Reject(PolicyViolation::AudienceTooSmall {
                active: upper,
                min: self.min_active,
            })
        } else if lower >= self.min_active {
            StaticDecision::Accept
        } else {
            StaticDecision::Inconclusive
        }
    }

    fn name(&self) -> &'static str {
        "min-active-audience"
    }
}

/// Both §8.3 proposals combined.
#[derive(Debug, Clone, Copy)]
pub struct CombinedPolicy {
    /// Interest cap component.
    pub cap: InterestCapPolicy,
    /// Minimum-audience component.
    pub min_audience: MinActiveAudiencePolicy,
}

impl CombinedPolicy {
    /// Both countermeasures at the paper's recommended settings.
    pub fn paper_proposal() -> Self {
        Self {
            cap: InterestCapPolicy::paper_proposal(),
            min_audience: MinActiveAudiencePolicy::paper_proposal(),
        }
    }
}

impl PlatformPolicy for CombinedPolicy {
    fn evaluate(&self, spec: &CampaignSpec, audience: f64) -> Result<(), PolicyViolation> {
        self.cap.evaluate(spec, audience)?;
        self.min_audience.evaluate(spec, audience)
    }

    fn evaluate_static(&self, spec: &CampaignSpec, analysis: &SpecAnalysis) -> StaticDecision {
        // Mirror `evaluate`'s short-circuit order: a proven cap violation
        // rejects outright; otherwise the audience component decides, and
        // the whole verdict is only an accept when both components accept.
        match self.cap.evaluate_static(spec, analysis) {
            StaticDecision::Reject(v) => StaticDecision::Reject(v),
            StaticDecision::Accept => self.min_audience.evaluate_static(spec, analysis),
            StaticDecision::Inconclusive => {
                match self.min_audience.evaluate_static(spec, analysis) {
                    StaticDecision::Reject(v) => StaticDecision::Reject(v),
                    _ => StaticDecision::Inconclusive,
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "combined-countermeasures"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Creativity, Schedule};
    use crate::targeting::TargetingSpec;
    use fbsim_population::InterestId;

    fn spec_with_interests(n: u32) -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            targeting: TargetingSpec::builder()
                .worldwide()
                .interests((0..n).map(InterestId))
                .build()
                .unwrap(),
            creativity: Creativity { title: "t".into(), landing_url: "u".into() },
            daily_budget_eur: 10.0,
            schedule: Schedule::paper_experiment(),
        }
    }

    #[test]
    fn current_fb_allows_everything() {
        let p = CurrentFbPolicy;
        assert!(p.evaluate(&spec_with_interests(25), 1.0).is_ok());
        assert!(p.evaluate(&spec_with_interests(0), 0.0).is_ok());
    }

    #[test]
    fn interest_cap_blocks_nine_plus() {
        let p = InterestCapPolicy::paper_proposal();
        assert!(p.evaluate(&spec_with_interests(8), 1e6).is_ok());
        let err = p.evaluate(&spec_with_interests(9), 1e6).unwrap_err();
        assert_eq!(err, PolicyViolation::TooManyInterests { used: 9, max: 8 });
    }

    #[test]
    fn min_audience_blocks_small() {
        let p = MinActiveAudiencePolicy::paper_proposal();
        assert!(p.evaluate(&spec_with_interests(2), 1_000.0).is_ok());
        let err = p.evaluate(&spec_with_interests(2), 999.0).unwrap_err();
        assert_eq!(err, PolicyViolation::AudienceTooSmall { active: 999, min: 1_000 });
        // The single-man custom-audience trick: one active user.
        assert!(p.evaluate(&spec_with_interests(0), 1.0).is_err());
    }

    #[test]
    fn combined_applies_both() {
        let p = CombinedPolicy::paper_proposal();
        assert!(matches!(
            p.evaluate(&spec_with_interests(20), 1e6).unwrap_err(),
            PolicyViolation::TooManyInterests { .. }
        ));
        assert!(matches!(
            p.evaluate(&spec_with_interests(3), 50.0).unwrap_err(),
            PolicyViolation::AudienceTooSmall { .. }
        ));
        assert!(p.evaluate(&spec_with_interests(3), 1e6).is_ok());
    }

    fn analysis(lower: f64, upper: f64) -> SpecAnalysis {
        use crate::analyze::{AudienceInterval, NanotargetingRisk, NpThresholds};
        SpecAnalysis {
            findings: Vec::new(),
            interval: AudienceInterval { lower, upper },
            interval_sound: true,
            risk: NanotargetingRisk::assess(0, upper, &NpThresholds::paper()),
        }
    }

    #[test]
    fn interest_cap_preflight_is_always_decisive() {
        let p = InterestCapPolicy::paper_proposal();
        let a = analysis(0.0, 1e9);
        assert_eq!(p.evaluate_static(&spec_with_interests(8), &a), StaticDecision::Accept);
        assert_eq!(
            p.evaluate_static(&spec_with_interests(9), &a),
            StaticDecision::Reject(PolicyViolation::TooManyInterests { used: 9, max: 8 })
        );
    }

    #[test]
    fn min_audience_preflight_uses_the_interval() {
        let p = MinActiveAudiencePolicy::paper_proposal();
        let spec = spec_with_interests(2);
        assert_eq!(
            p.evaluate_static(&spec, &analysis(0.0, 500.0)),
            StaticDecision::Reject(PolicyViolation::AudienceTooSmall { active: 500, min: 1_000 })
        );
        assert_eq!(p.evaluate_static(&spec, &analysis(2_000.0, 1e6)), StaticDecision::Accept);
        assert_eq!(
            p.evaluate_static(&spec, &analysis(500.0, 2_000.0)),
            StaticDecision::Inconclusive
        );
        // Rounding agrees with the dynamic check at the boundary.
        assert_eq!(p.evaluate_static(&spec, &analysis(999.5, 1e6)), StaticDecision::Accept);
    }

    #[test]
    fn min_audience_preflight_defers_on_advisory_intervals() {
        let p = MinActiveAudiencePolicy::paper_proposal();
        let spec = spec_with_interests(2);
        // The same intervals that were decisive above prove nothing when
        // the marginals behind them are approximate.
        for (lo, hi) in [(0.0, 500.0), (2_000.0, 1e6)] {
            let mut a = analysis(lo, hi);
            a.interval_sound = false;
            assert_eq!(p.evaluate_static(&spec, &a), StaticDecision::Inconclusive);
        }
        // The spec-only interest cap stays decisive regardless.
        let mut a = analysis(0.0, 1e9);
        a.interval_sound = false;
        let cap = InterestCapPolicy::paper_proposal();
        assert_eq!(
            cap.evaluate_static(&spec_with_interests(9), &a),
            StaticDecision::Reject(PolicyViolation::TooManyInterests { used: 9, max: 8 })
        );
    }

    #[test]
    fn combined_preflight_composes_soundly() {
        let p = CombinedPolicy::paper_proposal();
        assert!(matches!(
            p.evaluate_static(&spec_with_interests(20), &analysis(0.0, 1e9)),
            StaticDecision::Reject(PolicyViolation::TooManyInterests { .. })
        ));
        assert!(matches!(
            p.evaluate_static(&spec_with_interests(3), &analysis(0.0, 50.0)),
            StaticDecision::Reject(PolicyViolation::AudienceTooSmall { .. })
        ));
        assert_eq!(
            p.evaluate_static(&spec_with_interests(3), &analysis(1e5, 1e6)),
            StaticDecision::Accept
        );
        assert_eq!(
            p.evaluate_static(&spec_with_interests(3), &analysis(10.0, 1e6)),
            StaticDecision::Inconclusive
        );
    }

    #[test]
    fn default_preflight_is_inconclusive() {
        struct Opaque;
        impl PlatformPolicy for Opaque {
            fn evaluate(&self, _: &CampaignSpec, _: f64) -> Result<(), PolicyViolation> {
                Ok(())
            }
            fn name(&self) -> &'static str {
                "opaque"
            }
        }
        let d = Opaque.evaluate_static(&spec_with_interests(1), &analysis(0.0, 1.0));
        assert_eq!(d, StaticDecision::Inconclusive);
        assert!(!d.is_decisive());
    }

    #[test]
    fn violation_display() {
        let v = PolicyViolation::TooManyInterests { used: 12, max: 8 };
        assert!(v.to_string().contains("12"));
        let v = PolicyViolation::AudienceTooSmall { active: 1, min: 1_000 };
        assert!(v.to_string().contains("1000") || v.to_string().contains("1,000"));
    }
}
