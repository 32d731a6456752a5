//! §5 under competing demand: the contention sweep.
//!
//! Re-runs the 21-campaign nanotargeting experiment across competition
//! intensities — the same plan, targets, and delivery seeds, with impression
//! opportunities resolved through a [`Marketplace`] of `n` background
//! campaigns. Because background populations are *nested* in `n` (campaign
//! `j` depends only on `(market_seed, j)`) and the foreground RNG stream is
//! untouched by the market hook, the sweep is a controlled experiment:
//! level 0 reproduces the isolated run bit-for-bit, and higher levels show
//! how success rate, reach, and cost respond to contention alone.

use fbsim_marketplace::{Marketplace, MarketplaceConfig};
use fbsim_population::{MaterializedUser, World};

use crate::experiment::{run_experiment_in, ExperimentConfig, ExperimentResult};
use crate::validate::NanotargetingVerdict;

/// Aggregate outcome of the 21 campaigns at one competition intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionLevel {
    /// Background campaigns competing for impressions (0 = isolated).
    pub n_campaigns: usize,
    /// Campaigns that successfully nanotargeted their user.
    pub successes: usize,
    /// Successes / campaigns.
    pub success_rate: f64,
    /// Campaigns whose target saw the ad at all.
    pub seen: usize,
    /// Total unique users reached across the 21 campaigns.
    pub total_reached: u64,
    /// Total impressions delivered.
    pub total_impressions: u64,
    /// Total euros billed.
    pub total_cost_eur: f64,
    /// Euros billed for the successful campaigns only.
    pub success_cost_eur: f64,
    /// Mean cost per delivered impression (0 when nothing delivered).
    pub cost_per_impression_eur: f64,
    /// Background campaigns throttled below full delivery by pacing.
    pub market_constrained: usize,
    /// Mean clearing price in the background market, euros per impression
    /// (0 for the isolated level).
    pub market_clearing_price_eur: f64,
}

impl ContentionLevel {
    fn summarize(
        n_campaigns: usize,
        result: &ExperimentResult,
        market: Option<&Marketplace>,
    ) -> Self {
        let successes = result.successes().len();
        let total_impressions: u64 = result.rows.iter().map(|r| r.impressions).sum();
        let total_cost_eur: f64 = result.total_cost();
        Self {
            n_campaigns,
            successes,
            success_rate: successes as f64 / result.rows.len().max(1) as f64,
            seen: result.rows.iter().filter(|r| r.seen).count(),
            total_reached: result.rows.iter().map(|r| r.reached).sum(),
            total_impressions,
            total_cost_eur,
            success_cost_eur: result.success_cost(),
            cost_per_impression_eur: if total_impressions > 0 {
                total_cost_eur / total_impressions as f64
            } else {
                0.0
            },
            market_constrained: market.map_or(0, |m| m.pacing().constrained),
            market_clearing_price_eur: market.map_or(0.0, |m| m.pacing().mean_clearing_price_eur),
        }
    }
}

/// The contention sweep: one [`ContentionLevel`] per competition intensity,
/// plus the per-level experiment results for downstream analysis (e.g. the
/// §8.3 countermeasure contrast).
#[derive(Debug, Clone)]
pub struct ContentionSweep {
    /// Marketplace master seed shared by every non-zero level.
    pub market_seed: u64,
    /// Aggregates, in the order the levels were requested.
    pub levels: Vec<ContentionLevel>,
    /// Full experiment outcome per level, aligned with `levels`.
    pub results: Vec<ExperimentResult>,
}

impl ContentionSweep {
    /// The isolated (level-0) result, if the sweep included it.
    pub fn baseline(&self) -> Option<&ExperimentResult> {
        self.levels.iter().position(|l| l.n_campaigns == 0).map(|i| &self.results[i])
    }

    /// Renders the cost-versus-contention table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "campaigns | success | seen | reached | impressions |  cost (EUR) | EUR/impr\n",
        );
        for l in &self.levels {
            out.push_str(&format!(
                "{:>9} | {:>7} | {:>4} | {:>7} | {:>11} | {:>11.4} | {:.6}\n",
                l.n_campaigns,
                l.successes,
                l.seen,
                l.total_reached,
                l.total_impressions,
                l.total_cost_eur,
                l.cost_per_impression_eur,
            ));
        }
        out
    }
}

/// Runs the experiment at each competition intensity in `levels`
/// (`0` means no marketplace at all — the isolated path).
///
/// # Errors
///
/// Returns a message for an invalid marketplace config or an unbuildable
/// plan (a target with fewer than 22 interests).
pub fn run_contention_sweep(
    world: &World,
    targets: &[&MaterializedUser],
    config: &ExperimentConfig,
    market_seed: u64,
    levels: &[usize],
) -> Result<ContentionSweep, String> {
    let _span = uof_telemetry::span!("nanotarget.contention_sweep", levels = levels.len());
    let mut out = ContentionSweep {
        market_seed,
        levels: Vec::with_capacity(levels.len()),
        results: Vec::with_capacity(levels.len()),
    };
    for &n in levels {
        let market = if n == 0 {
            None
        } else {
            Some(Marketplace::setup(world, MarketplaceConfig::seeded(market_seed, n))?)
        };
        let result = run_experiment_in(
            world,
            targets,
            config,
            market.as_ref().map(|m| m as &dyn fbsim_adplatform::delivery::ImpressionMarket),
        )
        .map_err(|e| format!("plan error at level {n}: {e:?}"))?;
        out.levels.push(ContentionLevel::summarize(n, &result, market.as_ref()));
        out.results.push(result);
    }
    Ok(out)
}

/// Fraction of campaigns still succeeding at each level, keyed by level —
/// the §5 "success rate under contention" curve.
pub fn success_curve(sweep: &ContentionSweep) -> Vec<(usize, f64)> {
    sweep.levels.iter().map(|l| (l.n_campaigns, l.success_rate)).collect()
}

/// Which campaigns flipped from success to failure (or back) between the
/// isolated baseline and a contended level, by plan order.
pub fn flipped_verdicts(baseline: &ExperimentResult, contended: &ExperimentResult) -> Vec<usize> {
    baseline
        .rows
        .iter()
        .zip(&contended.rows)
        .enumerate()
        .filter(|(_, (a, b))| {
            (a.verdict == NanotargetingVerdict::Success)
                != (b.verdict == NanotargetingVerdict::Success)
        })
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::run_experiment;
    use fbsim_population::WorldConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    fn fixture() -> &'static (World, Vec<MaterializedUser>) {
        static FIX: OnceLock<(World, Vec<MaterializedUser>)> = OnceLock::new();
        FIX.get_or_init(|| {
            let world = World::generate(WorldConfig::test_scale(13)).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let targets: Vec<MaterializedUser> = (0..3)
                .map(|_| world.materializer().sample_user_with_count(&mut rng, 120))
                .collect();
            (world, targets)
        })
    }

    fn sweep() -> &'static ContentionSweep {
        static SWEEP: OnceLock<ContentionSweep> = OnceLock::new();
        SWEEP.get_or_init(|| {
            let (world, targets) = fixture();
            let refs: Vec<&MaterializedUser> = targets.iter().collect();
            run_contention_sweep(world, &refs, &ExperimentConfig::default(), 2021, &[0, 16, 64])
                .unwrap()
        })
    }

    #[test]
    fn level_zero_is_identical_to_the_isolated_run() {
        let (world, targets) = fixture();
        let refs: Vec<&MaterializedUser> = targets.iter().collect();
        let isolated = run_experiment(world, &refs, &ExperimentConfig::default()).unwrap();
        let baseline = sweep().baseline().expect("sweep includes level 0");
        assert_eq!(isolated.rows, baseline.rows);
        for (a, b) in isolated.rows.iter().zip(&baseline.rows) {
            assert_eq!(a.cost_eur.to_bits(), b.cost_eur.to_bits(), "cost must be bit-identical");
        }
    }

    #[test]
    fn contention_weakly_reduces_target_delivery() {
        // With the foreground RNG stream untouched, losing auctions can
        // only remove impressions: "seen" never increases with contention.
        let s = sweep();
        assert_eq!(s.levels[0].n_campaigns, 0);
        for pair in s.levels.windows(2) {
            assert!(
                pair[1].seen <= pair[0].seen,
                "seen rose with contention: {:?} -> {:?}",
                pair[0].seen,
                pair[1].seen
            );
        }
    }

    #[test]
    fn contended_levels_record_market_state() {
        let s = sweep();
        assert!(s.levels[0].market_clearing_price_eur == 0.0);
        let top = s.levels.last().unwrap();
        assert!(top.market_clearing_price_eur > 0.0);
        assert!(top.market_constrained > 0, "64 campaigns should include throttled ones");
    }

    #[test]
    fn success_curve_and_flips_are_consistent() {
        let s = sweep();
        let curve = success_curve(s);
        assert_eq!(curve.len(), 3);
        assert!(curve.iter().all(|&(_, rate)| (0.0..=1.0).contains(&rate)));
        let flips = flipped_verdicts(&s.results[0], s.results.last().unwrap());
        let s0 = s.levels[0].successes;
        let s2 = s.levels.last().unwrap().successes;
        assert!(flips.len() >= s0.abs_diff(s2), "flip count covers the success delta");
    }

    #[test]
    fn render_lists_every_level() {
        let text = sweep().render();
        for l in &sweep().levels {
            assert!(text.contains(&format!("{:>9}", l.n_campaigns)));
        }
    }
}
