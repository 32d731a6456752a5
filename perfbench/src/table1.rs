//! The `table1` workload: the paper's §4 uniqueness pipeline in process.
//!
//! One op is one `AudienceVectors::collect` call over a batch of
//! [`BATCH`] cohort users (LP and R alternate over the same batch), so a
//! change to `collect`'s own loop, such as parallelising across users,
//! shows. When the time is spent (or the cohort is done), one
//! `NpTable::build` fits everything collected; the fit is inside the
//! measured phase and counts as one more attempted op, but not toward
//! throughput.

use std::time::Instant;

use fbsim_adplatform::targeting::TargetingSpec;
use uniqueness::{AudienceVectors, NpTable, SelectionStrategy};

use crate::inputs::{ids, selected_sequence, Population, Scale, ERA, STRATEGIES};
use crate::measure::{cpu_seconds, Samples, Timeline};

/// Cohort users per `collect` call.
pub const BATCH: usize = 2;
/// Users a phase must collect before its table is held to the paper's shape.
const SHAPE_USERS: usize = 40;
/// Share of the measured phase spent collecting before the fit starts.
const COLLECT_SHARE: f64 = 0.9;

/// Cohort users of the pinned pipeline.
const PIN_USERS: usize = 16;
/// Seed of the pinned pipeline.
pub const PIN_SEED: u64 = 2021;

/// Table 1 fitted on the first [`PIN_USERS`] users of the seed-2021 cohort,
/// collected in [`BATCH`]-user calls as this workload collects them:
/// `N(LP)_P` then `N(R)_P` for P = 0.5, 0.8, 0.9, 0.95, pinned to the
/// current code's output. Every run recomputes it outside the timed phase
/// (see [`Table1::check`]). Not `results/table1_np.txt`, which is stale:
/// it records N(LP)_0.9 = 4.01 for the whole cohort, while the code gives
/// 5.09 at medium scale.
fn pinned(scale: Scale) -> [f64; 8] {
    match scale {
        Scale::Test => PIN_TEST,
        Scale::Medium => PIN_MEDIUM,
    }
}
const PIN_TEST: [f64; 8] = [
    4.261649823095294,
    5.561414611704067,
    10.97677749509568,
    51.81637905744805,
    17.911666565611366,
    26.277044215028894,
    38.028120542012246,
    43.248466022389266,
];
const PIN_MEDIUM: [f64; 8] = [
    3.7146708328699134,
    3.9922074607036837,
    5.10410920751435,
    5.146247069306506,
    9.844773592858253,
    13.425915448174734,
    19.641417124536424,
    23.147448824248883,
];

/// The pipeline on the first `users` cohort users of `pop`: `collect`
/// calls of [`BATCH`] users each for LP and R, then one fit.
pub struct Prefix {
    /// Seconds per `collect` call, LP then R.
    pub call_s: [Samples; 2],
    pub fit_s: f64,
    pub table: Result<NpTable, String>,
}

impl Prefix {
    pub fn run(pop: &Population, scale: Scale, seed: u64, users: usize) -> Self {
        let api = pop.api();
        let profiles = pop.profiles();
        let mut rows = [Vec::new(), Vec::new()];
        let mut call_s = [Samples::new(), Samples::new()];
        for batch in profiles[..users.min(profiles.len())].chunks(BATCH) {
            for (k, strategy) in STRATEGIES.into_iter().enumerate() {
                let t = Instant::now();
                let vectors = AudienceVectors::collect(&api, batch, strategy, seed);
                call_s[k].push(t.elapsed().as_secs_f64());
                rows[k].extend(vectors.rows().iter().cloned());
            }
        }
        let [lp, r] = rows;
        let t = Instant::now();
        let table = fit(lp, r, scale, seed);
        Self { call_s, fit_s: t.elapsed().as_secs_f64(), table }
    }
}

/// `NpTable::build` on collected LP and R rows.
fn fit(lp: Vec<Vec<f64>>, r: Vec<Vec<f64>>, scale: Scale, seed: u64) -> Result<NpTable, String> {
    let floor = ERA.floor();
    NpTable::build(
        &AudienceVectors::from_rows(SelectionStrategy::LeastPopular, floor, lp),
        &AudienceVectors::from_rows(SelectionStrategy::Random, floor, r),
        scale.replicates(),
        seed,
    )
    .map_err(|e| e.to_string())
}

/// One `collect` call.
pub struct Call {
    pub strategy: SelectionStrategy,
    /// First cohort index of the batch.
    pub start: usize,
    pub vectors: AudienceVectors,
    pub latency_us: f64,
}

pub struct Phase {
    pub calls: Vec<Call>,
    pub timeline: Timeline,
    pub fit_s: f64,
    pub table: Result<NpTable, String>,
    pub elapsed_s: f64,
    pub cpu_s: f64,
}

pub struct Table1 {
    pub pop: Population,
    scale: Scale,
    pub seed: u64,
    cursor: usize,
    pub warmup_s: f64,
}

fn worldwide() -> TargetingSpec {
    TargetingSpec::builder().worldwide().build().expect("worldwide spec is valid")
}

impl Table1 {
    pub fn setup(scale: Scale, seed: u64) -> Self {
        let pop = Population::generate(scale, seed);
        let warm = Instant::now();
        let profiles = pop.profiles();
        let _ = AudienceVectors::collect(
            &pop.api(),
            &profiles[..1],
            SelectionStrategy::LeastPopular,
            seed,
        );
        let warmup_s = warm.elapsed().as_secs_f64();
        Self { pop, scale, seed, cursor: 0, warmup_s }
    }

    /// Collects batches for `COLLECT_SHARE` of `seconds` (or until the
    /// cohort is done), then fits Table 1 on what this phase collected.
    pub fn run(&mut self, seconds: f64, traced: bool) -> Phase {
        let telemetry = uof_telemetry::global();
        let api = self.pop.api();
        let profiles = self.pop.profiles();
        let mut calls = Vec::new();
        let mut timeline = Timeline::start(seconds * COLLECT_SHARE);
        let cpu0 = cpu_seconds();
        let start = Instant::now();
        while self.cursor < profiles.len() && timeline.measuring() {
            let end = (self.cursor + BATCH).min(profiles.len());
            for strategy in STRATEGIES {
                let _span = traced.then(|| {
                    telemetry
                        .span("bench.collect")
                        .field("strategy", strategy_name(strategy).into())
                        .field("users", (end - self.cursor).into())
                        .start()
                });
                let t0 = Instant::now();
                let vectors = AudienceVectors::collect(
                    &api,
                    &profiles[self.cursor..end],
                    strategy,
                    self.seed,
                );
                let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                timeline.record(latency_us);
                calls.push(Call { strategy, start: self.cursor, vectors, latency_us });
            }
            self.cursor = end;
        }
        let rows = |strategy| -> Vec<Vec<f64>> {
            calls
                .iter()
                .filter(|c| c.strategy == strategy)
                .flat_map(|c| c.vectors.rows().iter().cloned())
                .collect()
        };
        let fit_start = Instant::now();
        let table = {
            let _span = traced.then(|| telemetry.span("bench.np_table").start());
            fit(
                rows(SelectionStrategy::LeastPopular),
                rows(SelectionStrategy::Random),
                self.scale,
                self.seed,
            )
        };
        let fit_s = fit_start.elapsed().as_secs_f64();
        timeline.finish();
        let elapsed_s = start.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        Phase { calls, timeline, fit_s, table, elapsed_s, cpu_s }
    }

    /// Checks a phase; returns `(attempted, failed)` with the fit as one op.
    ///
    /// * every reported audience is at or above the era floor;
    /// * one user of every fourth batch (rotating through the batch) is
    ///   recomputed in process: the same selection, then `AdsManagerApi`
    ///   over `ReachEngine`, and must match bit for bit;
    /// * the table must be finite (ordered CIs, R² in [0, 1]) and
    ///   paper-shaped (`N(LP)_P < N(R)_P`) once [`SHAPE_USERS`] users are
    ///   in it;
    /// * the pinned pipeline ([`pinned`]) is rerun, on this run's world
    ///   when its seed is [`PIN_SEED`] and on a freshly generated one
    ///   otherwise, and must give the pinned table bit for bit; a
    ///   difference fails the fit's op.
    pub fn check(&self, phase: &Phase) -> (u64, u64) {
        let api = self.pop.api();
        let profiles = self.pop.profiles();
        let spec = worldwide();
        let floor = ERA.floor() as f64;
        let mut failed = 0u64;
        for (n, call) in phase.calls.iter().enumerate() {
            let rows = call.vectors.rows();
            let users = &profiles[call.start..(call.start + BATCH).min(profiles.len())];
            // `collect` skips users without interests; row k belongs to the
            // k-th user that has some, and seeds by the batch-local index.
            let kept: Vec<usize> =
                (0..users.len()).filter(|&i| !users[i].interests.is_empty()).collect();
            let mut ok = rows.len() == kept.len()
                && rows.iter().all(|row| !row.is_empty() && row.iter().all(|&v| v >= floor));
            // Both calls of every fourth batch recompute one of its users.
            let batch = n / 2;
            if ok && batch % 4 == 0 && !kept.is_empty() {
                let k = (batch / 4) % kept.len();
                let i = kept[k];
                let sequence =
                    selected_sequence(&self.pop.world, users[i], call.strategy, self.seed, i);
                let want = api.nested_potential_reach(&spec, &ids(&sequence));
                ok = rows[k].len() == want.len()
                    && rows[k]
                        .iter()
                        .zip(&want)
                        .all(|(v, w)| v.to_bits() == (w.reported as f64).to_bits());
            }
            failed += u64::from(!ok);
        }
        let table_ok = match &phase.table {
            Ok(table) => {
                let values = table_values(table);
                let finite = table.lp.iter().chain(&table.random).all(|e| {
                    e.value.is_finite()
                        && e.value > 0.0
                        && (0.0..=1.0).contains(&e.r_squared)
                        && e.ci95.as_ref().is_some_and(|ci| ci.lo <= ci.hi)
                });
                // The paper's shape, N(LP)_P < N(R)_P, needs a sample of
                // some size; a few users give no stable table.
                let users = phase.calls.iter().map(|c| c.vectors.len()).sum::<usize>() / 2;
                let shaped = users < SHAPE_USERS
                    || table.lp.iter().zip(&table.random).all(|(lp, r)| lp.value < r.value);
                if !(finite && shaped) {
                    eprintln!("table1 is not finite or not paper-shaped: {values:?}");
                }
                finite && shaped && self.pinned_ok()
            }
            Err(e) => {
                eprintln!("table1 fit failed: {e}");
                false
            }
        };
        failed += u64::from(!table_ok);
        (phase.calls.len() as u64 + 1, failed)
    }

    /// Whether the pinned pipeline still gives the pinned table.
    fn pinned_ok(&self) -> bool {
        let fresh;
        let pop = if self.seed == PIN_SEED {
            &self.pop
        } else {
            fresh = Population::generate(self.scale, PIN_SEED);
            &fresh
        };
        let values = match Prefix::run(pop, self.scale, PIN_SEED, PIN_USERS).table {
            Ok(table) => table_values(&table),
            Err(e) => {
                eprintln!("the pinned table1 fit failed: {e}");
                return false;
            }
        };
        let ok = values.iter().zip(pinned(self.scale)).all(|(v, p)| v.to_bits() == p.to_bits());
        if !ok {
            eprintln!("the pinned table1 changed: {values:?}");
        }
        ok
    }
}

/// The eight `N_P` point estimates: LP then R, P ascending.
pub fn table_values(table: &NpTable) -> Vec<f64> {
    table.lp.iter().chain(&table.random).map(|e| e.value).collect()
}

pub fn strategy_name(strategy: SelectionStrategy) -> &'static str {
    match strategy {
        SelectionStrategy::LeastPopular => "lp",
        SelectionStrategy::Random => "r",
    }
}
