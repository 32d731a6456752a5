//! Score calibration: making the model's single-interest audiences match
//! their Fig.-2 targets.
//!
//! Interest scores start proportional to their target audiences, but the
//! actual model audience of interest `i`,
//! `AS(i) = scale · Σ_v (1 − exp(−s_i · f_v(t_i) · α_v))`,
//! also depends on the topic's fan base and on saturation. Calibration runs
//! a few rounds of iterative proportional fitting (IPF):
//!
//! ```text
//! s_i ← s_i · target_i / AS_current(i)
//! ```
//!
//! recomputing the panel's `α` column between rounds (scores enter the
//! normaliser `W_v`).
//!
//! Computing `AS(i)` exactly for every interest would cost
//! `O(n_interests · panel)`. Instead each topic's panel is split into *fans*
//! (users with the topic in their taste — few, large probability) and
//! *background* (everyone else — many, small probability `1 − exp(−s·b_v)`
//! with `b_v = base·α_v` a per-user constant). Background users are binned
//! into a fine log-spaced histogram over `b_v` once per round; the
//! background sum then costs one `exp` per bin instead of one per user. The
//! per-topic fan contribution is summed exactly, with the fans' background
//! term subtracted so nobody is double-counted.

use rayon::prelude::*;

use crate::catalog::{InterestCatalog, TopicId};
use crate::panel::Panel;

/// Outcome of a calibration run.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// IPF rounds performed.
    pub rounds: u32,
    /// Median of `|AS − target| / target` across interests after the final
    /// round.
    pub median_rel_error: f64,
    /// 95th percentile of the relative error after the final round.
    pub p95_rel_error: f64,
}

/// Number of log-spaced histogram bins over `b_v = base·α_v`. The spread of
/// `b` comes from the interest-count log-normal (a few decades); 512 bins
/// keep the binning error well below 0.1%.
const B_BINS: usize = 512;

/// A log-spaced value histogram: `(mean value, count)` per non-empty bin.
/// Summing `count · (1 − exp(−s·value))` over the bins approximates the same
/// sum over the original values to within the bin width (≈ span/bins in log
/// space — far below 1% at the default resolutions).
#[derive(Debug, Clone, Default)]
struct ValueBins {
    bins: Vec<(f64, f64)>,
}

impl ValueBins {
    fn build(values: &[f64], n_bins: usize) -> Self {
        let (mut lo, mut hi) = (f64::INFINITY, 0.0f64);
        for &v in values {
            debug_assert!(v > 0.0, "binned values must be positive");
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if values.is_empty() {
            return Self::default();
        }
        let span = (hi / lo).log10().max(1e-9);
        let mut sums = vec![0.0f64; n_bins];
        let mut counts = vec![0.0f64; n_bins];
        for &v in values {
            let idx = ((((v / lo).log10() / span) * n_bins as f64) as usize).min(n_bins - 1);
            sums[idx] += v;
            counts[idx] += 1.0;
        }
        Self {
            bins: sums
                .into_iter()
                .zip(counts)
                .filter(|&(_, c)| c > 0.0)
                .map(|(s, c)| (s / c, c))
                .collect(),
        }
    }

    /// `Σ count · (1 − exp(−s · value))`.
    fn saturated_sum(&self, s: f64) -> f64 {
        self.bins.iter().map(|&(v, c)| c * (1.0 - (-(s * v)).exp())).sum()
    }
}

/// Bins for the per-topic fan histograms.
const FAN_BINS: usize = 128;

/// Binned panel geometry for one calibration (or measurement) pass:
/// a global background histogram over `b_v = base·α_v`, and per-topic fan
/// histograms over the fans' full affinity values `y_v = f_v(t)·α_v` plus
/// their background values `b_v` (so fans can be swapped from the background
/// into their exact-affinity term without double counting).
struct TopicGeometry {
    /// Background `b_v` over all panel users.
    global: ValueBins,
    /// Per topic: fans' `y_v = (base + eff)·α_v`.
    fan_affinity: Vec<ValueBins>,
    /// Per topic: fans' `b_v = base·α_v` (to subtract from the global sum).
    fan_background: Vec<ValueBins>,
}

impl TopicGeometry {
    fn build(panel: &Panel) -> Self {
        let base = panel.base_affinity() as f64;
        let alphas = panel.alphas();
        let bs: Vec<f64> = alphas.iter().map(|&alpha| base * alpha as f64).collect();
        let (fan_affinity, fan_background) = (0..panel.n_topics())
            .map(|t| {
                let fans = panel.fans(TopicId(t as u16));
                let (mut y, mut b) =
                    (Vec::with_capacity(fans.len()), Vec::with_capacity(fans.len()));
                for (&v, &eff) in fans.users.iter().zip(fans.eff) {
                    let alpha = alphas[v as usize] as f64;
                    y.push((base + eff as f64) * alpha);
                    b.push(base * alpha);
                }
                (ValueBins::build(&y, FAN_BINS), ValueBins::build(&b, FAN_BINS))
            })
            .unzip();
        Self { global: ValueBins::build(&bs, B_BINS), fan_affinity, fan_background }
    }

    /// Model audience of an interest with `score` in `topic`.
    fn audience(&self, panel: &Panel, score: f64, topic: TopicId) -> f64 {
        let t = topic.0 as usize;
        let sum = self.global.saturated_sum(score) + self.fan_affinity[t].saturated_sum(score)
            - self.fan_background[t].saturated_sum(score);
        sum * panel.scale()
    }
}

/// Computes the current model audience of every interest (exact fans +
/// Taylor background). Used by calibration, Fig.-2 regeneration and tests.
pub fn measured_single_audiences(catalog: &InterestCatalog, panel: &Panel) -> Vec<f64> {
    let geometry = TopicGeometry::build(panel);
    catalog.interests().par_iter().map(|i| geometry.audience(panel, i.score, i.topic)).collect()
}

/// Runs `rounds` of IPF so each interest's model audience approaches its
/// `target_audience`, mutating the catalog scores and the panel `α`s.
///
/// Per-interest update factors are clamped to `[0.1, 10]` per round for
/// stability, and a global budget factor is adjusted each round to close
/// the saturation mass deficit (see [`Panel::scale_budget_factor`]).
pub fn calibrate_scores(
    catalog: &mut InterestCatalog,
    panel: &mut Panel,
    rounds: u32,
) -> CalibrationReport {
    let mut report =
        CalibrationReport { rounds, median_rel_error: f64::NAN, p95_rel_error: f64::NAN };
    for round in 0..rounds.max(1) {
        let current = measured_single_audiences(catalog, panel);
        let is_last = round + 1 == rounds.max(1);
        if is_last {
            let mut errors: Vec<f64> = catalog
                .interests()
                .iter()
                .zip(&current)
                .map(|(i, &c)| (c - i.target_audience).abs() / i.target_audience)
                .collect();
            errors.sort_by(|a, b| a.total_cmp(b));
            report.median_rel_error = errors[errors.len() / 2];
            report.p95_rel_error = errors[(errors.len() as f64 * 0.95) as usize % errors.len()];
        }
        if round < rounds {
            // Close the global saturation deficit first: scale everyone's
            // assignment budget so total realised mass matches total target
            // mass, then rebalance per-interest scores multiplicatively.
            let mass_current: f64 = current.iter().sum();
            let mass_target: f64 = catalog.interests().iter().map(|i| i.target_audience).sum();
            if mass_current > 0.0 {
                panel.scale_budget_factor((mass_target / mass_current).clamp(0.5, 2.0), catalog);
            }
            let new_scores: Vec<f64> = catalog
                .interests()
                .iter()
                .zip(&current)
                .map(|(i, &c)| {
                    let factor =
                        if c > 0.0 { (i.target_audience / c).clamp(0.1, 10.0) } else { 5.0 };
                    i.score * factor
                })
                .collect();
            catalog.set_scores(&new_scores);
            panel.recompute_alphas(catalog);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::reach::ReachEngine;

    fn calibrated_fixture() -> (InterestCatalog, Panel, CalibrationReport) {
        let cfg = WorldConfig::test_scale(77);
        let mut catalog = InterestCatalog::generate(&cfg);
        let mut panel = Panel::generate(&cfg, &catalog);
        let report = calibrate_scores(&mut catalog, &mut panel, cfg.calibration_rounds);
        (catalog, panel, report)
    }

    #[test]
    fn calibration_reduces_error() {
        let cfg = WorldConfig::test_scale(78);
        let mut catalog = InterestCatalog::generate(&cfg);
        let mut panel = Panel::generate(&cfg, &catalog);
        // Error before any IPF round.
        let before = measured_single_audiences(&catalog, &panel);
        let mut errs_before: Vec<f64> = catalog
            .interests()
            .iter()
            .zip(&before)
            .map(|(i, &c)| (c - i.target_audience).abs() / i.target_audience)
            .collect();
        errs_before.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_before = errs_before[errs_before.len() / 2];

        let report = calibrate_scores(&mut catalog, &mut panel, 8);
        assert!(
            report.median_rel_error < median_before,
            "calibration should improve: {} -> {}",
            median_before,
            report.median_rel_error
        );
        assert!(report.median_rel_error < 0.15, "median error {}", report.median_rel_error);
    }

    #[test]
    fn measured_audience_matches_reach_engine() {
        // The Taylor-background shortcut must agree with the exact
        // Monte-Carlo engine (which loops over all panel users).
        let (catalog, panel, _) = calibrated_fixture();
        let engine = ReachEngine::new(&catalog, &panel);
        let measured = measured_single_audiences(&catalog, &panel);
        for id in [0u32, 17, 333, 1500] {
            let exact = engine.single_reach(crate::catalog::InterestId(id));
            let fast = measured[id as usize];
            assert!(
                (exact - fast).abs() / exact.max(1.0) < 1e-3,
                "interest {id}: engine {exact} vs geometry {fast}"
            );
        }
    }

    #[test]
    fn calibrated_audiences_track_targets() {
        let (catalog, panel, report) = calibrated_fixture();
        assert!(report.p95_rel_error < 0.5, "p95 error {}", report.p95_rel_error);
        let measured = measured_single_audiences(&catalog, &panel);
        // Spot-check some interests across the popularity range.
        let mut checked = 0;
        for (i, &m) in catalog.interests().iter().zip(&measured).step_by(97) {
            let rel = (m - i.target_audience).abs() / i.target_audience;
            assert!(rel < 1.0, "interest {:?}: measured {m} target {}", i.id, i.target_audience);
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn report_fields_are_finite() {
        let (_, _, report) = calibrated_fixture();
        assert!(report.median_rel_error.is_finite());
        assert!(report.p95_rel_error.is_finite());
        assert_eq!(report.rounds, 8);
    }
}
