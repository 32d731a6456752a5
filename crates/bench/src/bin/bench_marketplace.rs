//! Marketplace benchmark: auction-core throughput, pacing convergence, the
//! §5 contention sweep's cost table, and the zero-competition bit-identity
//! cross-check, in one artifact.
//!
//! 1. **Auctions** — `contention_for` throughput at 64 background
//!    campaigns (each query Monte-Carlos `auction_samples` opportunity
//!    auctions), with a bit-level checksum asserting determinism across
//!    timed passes.
//! 2. **Pacing** — the multiplicative throttling loop per population size
//!    (rounds to convergence, residual budget error, market state), plus
//!    the optimal-bidding baseline at one size with the paced-versus-
//!    optimal spend-profile gap.
//! 3. **Contention sweep** — the 21-campaign nanotargeting experiment at
//!    competition levels 0/8/32/128: success rate, reach, cost, and
//!    EUR/impression per level (the cost-versus-contention curve).
//! 4. **Bit identity** — level 0 of the sweep and an explicit empty-market
//!    delivery pass are compared `to_bits` against the legacy isolated
//!    path; the artifact records (and asserts) the cross-check.
//!
//! Writes `BENCH_marketplace.json` to the working directory. Honours
//! `UOF_SCALE` (default `medium`), `UOF_SEED`, and `UOF_THREADS`.

use std::time::Instant;

use fbsim_adplatform::campaign::Schedule;
use fbsim_adplatform::delivery::{
    simulate_delivery, simulate_delivery_in, DeliveryModel, ImpressionMarket, MatchedAudience,
};
use fbsim_marketplace::{optimal_multipliers, Marketplace, MarketplaceConfig};
use fbsim_population::MaterializedUser;
use nanotarget::contention::{run_contention_sweep, ContentionLevel};
use nanotarget::{run_experiment, ExperimentConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use uof_telemetry::json::Value;

/// Distinct foreground campaigns timed against the market (each runs
/// `auction_samples` sampled auctions).
const THROUGHPUT_QUERIES: u64 = 256;
/// Background population for the throughput and optimal-baseline sections.
const THROUGHPUT_CAMPAIGNS: usize = 64;
/// Population sizes for the pacing-convergence section and the competition
/// levels for the contention sweep (0 = isolated baseline).
const SWEEP_LEVELS: [usize; 4] = [0, 8, 32, 128];
/// Population size for the paced-versus-optimal comparison (kept modest:
/// the bisection baseline is quadratic-ish in campaigns × opportunities).
const OPTIMAL_CAMPAIGNS: usize = 24;

/// Every [`ContentionLevel`] field, keyed by its name.
fn level_json(l: &ContentionLevel) -> Value {
    Value::obj([
        ("n_campaigns", l.n_campaigns.into()),
        ("successes", l.successes.into()),
        ("success_rate", l.success_rate.into()),
        ("seen", l.seen.into()),
        ("total_reached", l.total_reached.into()),
        ("total_impressions", l.total_impressions.into()),
        ("total_cost_eur", l.total_cost_eur.into()),
        ("success_cost_eur", l.success_cost_eur.into()),
        ("cost_per_impression_eur", l.cost_per_impression_eur.into()),
        ("market_constrained", l.market_constrained.into()),
        ("market_clearing_price_eur", l.market_clearing_price_eur.into()),
    ])
}

/// One throughput pass: foreground campaigns at staggered house prices.
fn auction_pass(market: &Marketplace) -> u64 {
    let mut checksum = 0u64;
    for q in 0..THROUGHPUT_QUERIES {
        let base = 0.0005 + (q % 16) as f64 * 0.0004;
        let c = market.contention_for(base, 0.01, q);
        checksum = checksum.rotate_left(7)
            ^ c.win_rate_factor.to_bits()
            ^ c.price_factor.to_bits().rotate_left(32);
    }
    checksum
}

/// The empty-market delivery pass must be `to_bits`-identical to the legacy
/// isolated path (the `tests/marketplace_equivalence.rs` contract, spot-
/// checked here at bench scale).
fn zero_competition_check(empty: &Marketplace) -> bool {
    let model = DeliveryModel::default();
    let schedule = Schedule::paper_experiment();
    for (others, seed) in [(0u64, 1u64), (3, 7), (2_000, 42), (80_000, 99)] {
        let legacy = simulate_delivery(
            &model,
            MatchedAudience { target_matches: true, others },
            &schedule,
            10.0,
            seed,
        );
        let routed = simulate_delivery_in(
            &model,
            MatchedAudience { target_matches: true, others },
            &schedule,
            10.0,
            seed,
            Some(empty as &dyn ImpressionMarket),
        );
        if legacy.cost_eur.to_bits() != routed.cost_eur.to_bits()
            || legacy.impressions != routed.impressions
            || legacy.reached != routed.reached
            || legacy.target_seen != routed.target_seen
        {
            return false;
        }
    }
    true
}

fn main() {
    let (scale, world) = bench::build_world();
    let seed = bench::seed_from_env();

    // --- Auction throughput ---------------------------------------------
    eprintln!(
        "[run] auctions: {THROUGHPUT_QUERIES} queries × {} samples against \
         {THROUGHPUT_CAMPAIGNS} campaigns…",
        MarketplaceConfig::seeded(seed, THROUGHPUT_CAMPAIGNS).auction_samples
    );
    let market = Marketplace::setup(&world, MarketplaceConfig::seeded(seed, THROUGHPUT_CAMPAIGNS))
        .expect("preset config is valid");
    let samples_per_query = market.config().auction_samples;
    let (best_secs, _) = bench::time_best(3, || auction_pass(&market));
    let auctions_per_sec = (THROUGHPUT_QUERIES * samples_per_query as u64) as f64 / best_secs;
    let auctions = Value::obj([
        ("queries", THROUGHPUT_QUERIES.into()),
        ("samples_per_query", samples_per_query.into()),
        ("background_campaigns", THROUGHPUT_CAMPAIGNS.into()),
        ("best_secs", best_secs.into()),
        ("auctions_per_sec", auctions_per_sec.into()),
    ]);

    // --- Pacing convergence per population size -------------------------
    let mut pacing = Vec::new();
    let mut all_converged = true;
    for n in SWEEP_LEVELS.into_iter().filter(|&n| n > 0) {
        eprintln!("[run] pacing: converging {n} campaigns…");
        let start = Instant::now();
        let m = Marketplace::setup(&world, MarketplaceConfig::seeded(seed, n))
            .expect("preset config is valid");
        let p = m.pacing();
        all_converged &= p.converged;
        pacing.push(Value::obj([
            ("campaigns", n.into()),
            ("setup_secs", start.elapsed().as_secs_f64().into()),
            ("rounds", p.rounds.into()),
            ("converged", p.converged.into()),
            ("max_rel_error", p.max_rel_error.into()),
            ("constrained", p.constrained.into()),
            ("mean_clearing_price_eur", p.mean_clearing_price_eur.into()),
            ("sell_through", p.sell_through.into()),
            ("snipe_share", p.snipe_share.into()),
        ]));
    }

    // --- Paced vs optimal spend profile ---------------------------------
    eprintln!("[run] optimal baseline: {OPTIMAL_CAMPAIGNS} campaigns, bisection sweep…");
    let config = MarketplaceConfig::seeded(seed, OPTIMAL_CAMPAIGNS);
    let paced_market = Marketplace::setup(&world, config.clone()).expect("preset config is valid");
    let paced = paced_market.pacing();
    let optimal = optimal_multipliers(paced_market.campaigns(), &config);
    let mut max_spend_gap = 0.0f64;
    let mut jointly_constrained = 0usize;
    for (j, c) in paced_market.campaigns().iter().enumerate() {
        // Compare only where both runs are budget-constrained: unconstrained
        // campaigns deliver fully under either discipline by construction.
        if paced.multipliers[j] < 1.0 - 1e-9 && optimal.multipliers[j] < 1.0 - 1e-9 {
            jointly_constrained += 1;
            let gap =
                (paced.daily_spend_eur[j] - optimal.daily_spend_eur[j]).abs() / c.daily_budget_eur;
            max_spend_gap = max_spend_gap.max(gap);
        }
    }
    let optimal_cmp = Value::obj([
        ("campaigns", OPTIMAL_CAMPAIGNS.into()),
        ("paced_rounds", paced.rounds.into()),
        ("optimal_sweeps", optimal.rounds.into()),
        ("both_converged", (paced.converged && optimal.converged).into()),
        // Worst relative daily-spend gap between the paced profile and the
        // optimal-bidding baseline, over campaigns both runs constrain.
        ("max_spend_gap", max_spend_gap.into()),
        ("jointly_constrained", jointly_constrained.into()),
    ]);

    // --- Contention sweep: §5 under competing demand --------------------
    eprintln!("[run] contention sweep: 21 campaigns at levels {SWEEP_LEVELS:?}…");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A26);
    let targets: Vec<MaterializedUser> =
        (0..3).map(|_| world.materializer().sample_user_with_count(&mut rng, 120)).collect();
    let refs: Vec<&MaterializedUser> = targets.iter().collect();
    let exp_config = ExperimentConfig::default();
    let sweep = run_contention_sweep(&world, &refs, &exp_config, seed, &SWEEP_LEVELS)
        .expect("sweep levels and targets are valid");
    println!("{}", sweep.render());

    // --- Zero-competition bit identity ----------------------------------
    eprintln!("[run] bit-identity cross-check: empty market vs legacy path…");
    let empty = Marketplace::setup(&world, MarketplaceConfig::seeded(seed, 0))
        .expect("preset config is valid");
    let isolated = run_experiment(&world, &refs, &exp_config).expect("plan is buildable");
    let baseline = sweep.baseline().expect("sweep includes level 0");
    let bit_identical = zero_competition_check(&empty)
        && isolated.rows == baseline.rows
        && isolated
            .rows
            .iter()
            .zip(&baseline.rows)
            .all(|(a, b)| a.cost_eur.to_bits() == b.cost_eur.to_bits());
    assert!(bit_identical, "zero-competition equivalence violated at bench scale");

    let report = bench::report(
        "marketplace",
        scale,
        [
            ("bit_identical_zero_competition", bit_identical.into()),
            ("auctions", auctions),
            ("pacing", Value::Arr(pacing)),
            ("optimal", optimal_cmp),
            ("contention_sweep", Value::Arr(sweep.levels.iter().map(level_json).collect())),
        ],
    );
    bench::write_report("BENCH_marketplace.json", &report).expect("write BENCH_marketplace.json");
    eprintln!(
        "[done] {auctions_per_sec:.0} auctions/s, pacing converged at every level: \
         {all_converged}; wrote BENCH_marketplace.json"
    );
}
