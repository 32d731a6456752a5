//! Marketplace configuration: pricing rule, background-population shape,
//! and the pacing loop's knobs.

/// How a won background auction is priced.
///
/// The pricing rule shapes the background campaigns' *spend accounting* —
/// and through spend, the pacing multipliers and hence the standing-bid
/// landscape the foreground campaign faces. The foreground campaign itself
/// always pays second-price-versus-the-field semantics (see
/// [`crate::Marketplace::contention_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Winner pays its own standing bid.
    FirstPrice,
    /// Winner pays the best competing bid, floored at the reserve — the
    /// "fixed pricing" of the marrakesh model family.
    SecondPrice,
}

/// Knobs of the multiplicative budget-pacing loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacingConfig {
    /// Maximum relative multiplier change per round: a multiplier moves by
    /// at most `×(1 + step)` / `÷(1 + step)` between rounds.
    pub step: f64,
    /// Hard cap on pacing rounds.
    pub max_rounds: usize,
    /// A budget-constrained campaign counts as converged when
    /// `|spend − budget| / budget ≤ tolerance`.
    pub tolerance: f64,
    /// Sampled impression opportunities per pacing round. The same
    /// opportunity set is reused every round (common random numbers), so
    /// the loop is a deterministic fixed-point iteration.
    pub opportunities_per_round: usize,
}

impl Default for PacingConfig {
    fn default() -> Self {
        Self { step: 0.08, max_rounds: 240, tolerance: 0.1, opportunities_per_round: 8192 }
    }
}

/// Configuration of the background marketplace.
///
/// Everything is derived from `seed`: the same config always produces the
/// same campaigns, multipliers, and contention summaries, independent of
/// thread count. Campaign `j` is sampled from its own derived stream, so
/// populations are *nested*: the first `k` campaigns are identical across
/// configs that differ only in `n_campaigns ≥ k` — contention levels share
/// their common prefix of competitors (common random numbers across a
/// sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct MarketplaceConfig {
    /// Master seed for the background population, pacing, and contention
    /// Monte-Carlo.
    pub seed: u64,
    /// Number of background campaigns. `0` is the degenerate empty market:
    /// setup skips pacing and every contention summary is exactly
    /// [`fbsim_adplatform::delivery::Contention::NONE`].
    pub n_campaigns: usize,
    /// Auction pricing rule for background spend accounting.
    pub pricing: Pricing,
    /// Log-uniform range of background daily budgets, in euros.
    pub daily_budget_range_eur: (f64, f64),
    /// Log-uniform range of background valuations, in euros per 1000
    /// impressions (CPM). The upper end deliberately exceeds the delivery
    /// model's `cpm_max` (10 €): retargeting-style campaigns that outbid
    /// the foreground campaign's willingness cap are what make narrow
    /// (nanotargeting) campaigns lose opportunities.
    pub value_cpm_range_eur: (f64, f64),
    /// Inclusive range of interests per background campaign. Interests are
    /// drawn from the calibrated catalog popularity (score-weighted) and
    /// targeted as a *union* — FB interest targeting ORs a flat list; the
    /// paper's AND-chains come from its "narrow audience" workaround.
    pub interests_per_campaign: (usize, usize),
    /// Fraction of background campaigns playing the strategic "last look":
    /// when they show up they lurk below the reserve and raise up to full
    /// value only to snipe, paying just the price they had to beat.
    pub last_look_fraction: f64,
    /// Auction reserve, in euros CPM (defaults to the delivery model's
    /// `cpm_min`): bids below it cannot win.
    pub reserve_cpm_eur: f64,
    /// Daily impression opportunities in the modelled market slice. Each
    /// sampled opportunity stands for `daily_opportunities /
    /// opportunities_per_round` real ones when scaling spend to a day.
    pub daily_opportunities: f64,
    /// Monte-Carlo opportunities per foreground contention summary.
    pub auction_samples: usize,
    /// Pacing-loop knobs.
    pub pacing: PacingConfig,
}

impl MarketplaceConfig {
    /// A seeded config with the calibrated defaults.
    pub fn seeded(seed: u64, n_campaigns: usize) -> Self {
        Self {
            seed,
            n_campaigns,
            pricing: Pricing::SecondPrice,
            daily_budget_range_eur: (100.0, 2_000.0),
            value_cpm_range_eur: (0.2, 20.0),
            interests_per_campaign: (1, 3),
            last_look_fraction: 0.125,
            reserve_cpm_eur: 0.1,
            daily_opportunities: 4.0e6,
            auction_samples: 4096,
            pacing: PacingConfig::default(),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        let (b_lo, b_hi) = self.daily_budget_range_eur;
        if !(b_lo > 0.0 && b_hi >= b_lo && b_hi.is_finite()) {
            return Err(format!("daily budget range ({b_lo}, {b_hi}) must be 0 < lo <= hi"));
        }
        let (v_lo, v_hi) = self.value_cpm_range_eur;
        if !(v_lo > 0.0 && v_hi >= v_lo && v_hi.is_finite()) {
            return Err(format!("value CPM range ({v_lo}, {v_hi}) must be 0 < lo <= hi"));
        }
        let (i_lo, i_hi) = self.interests_per_campaign;
        if i_lo == 0 || i_hi < i_lo {
            return Err(format!("interests per campaign ({i_lo}, {i_hi}) must be 1 <= lo <= hi"));
        }
        if !(0.0..=1.0).contains(&self.last_look_fraction) {
            return Err(format!(
                "last-look fraction {} must be in [0, 1]",
                self.last_look_fraction
            ));
        }
        if !(self.reserve_cpm_eur >= 0.0 && self.reserve_cpm_eur.is_finite()) {
            return Err(format!("reserve CPM {} must be finite and >= 0", self.reserve_cpm_eur));
        }
        if !(self.daily_opportunities > 0.0 && self.daily_opportunities.is_finite()) {
            return Err(format!(
                "daily opportunities {} must be positive",
                self.daily_opportunities
            ));
        }
        if self.auction_samples == 0 {
            return Err("need at least one contention Monte-Carlo sample".into());
        }
        if self.pacing.opportunities_per_round == 0 {
            return Err("need at least one opportunity per pacing round".into());
        }
        if !(self.pacing.step > 0.0 && self.pacing.step.is_finite()) {
            return Err(format!("pacing step {} must be positive", self.pacing.step));
        }
        if !(self.pacing.tolerance > 0.0 && self.pacing.tolerance.is_finite()) {
            return Err(format!("pacing tolerance {} must be positive", self.pacing.tolerance));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_defaults_are_valid() {
        assert_eq!(MarketplaceConfig::seeded(1, 0).validate(), Ok(()));
        assert_eq!(MarketplaceConfig::seeded(1, 512).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_each_violation() {
        let base = MarketplaceConfig::seeded(1, 8);
        let cases: Vec<(MarketplaceConfig, &str)> = vec![
            (MarketplaceConfig { daily_budget_range_eur: (0.0, 1.0), ..base.clone() }, "budget"),
            (MarketplaceConfig { daily_budget_range_eur: (2.0, 1.0), ..base.clone() }, "budget"),
            (
                MarketplaceConfig { value_cpm_range_eur: (1.0, f64::INFINITY), ..base.clone() },
                "value CPM",
            ),
            (MarketplaceConfig { interests_per_campaign: (0, 2), ..base.clone() }, "interests"),
            (MarketplaceConfig { last_look_fraction: 1.5, ..base.clone() }, "last-look"),
            (MarketplaceConfig { reserve_cpm_eur: -1.0, ..base.clone() }, "reserve"),
            (MarketplaceConfig { daily_opportunities: 0.0, ..base.clone() }, "opportunities"),
            (MarketplaceConfig { auction_samples: 0, ..base.clone() }, "Monte-Carlo"),
            (
                MarketplaceConfig {
                    pacing: PacingConfig { opportunities_per_round: 0, ..base.pacing },
                    ..base.clone()
                },
                "pacing round",
            ),
            (
                MarketplaceConfig {
                    pacing: PacingConfig { step: 0.0, ..base.pacing },
                    ..base.clone()
                },
                "step",
            ),
            (
                MarketplaceConfig {
                    pacing: PacingConfig { tolerance: f64::NAN, ..base.pacing },
                    ..base.clone()
                },
                "tolerance",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "expected '{needle}' in '{err}'");
        }
    }
}
