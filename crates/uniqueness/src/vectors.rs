//! Audience-size vectors and `V_AS(Q)` (Section 4.1).
//!
//! For each cohort user the pipeline queries the simulated Ads Manager for
//! the potential reach of every prefix of their selected interest sequence,
//! producing one audience vector per user. `AS(Q, N)` is the Q-quantile of
//! the N-th column across users; `V_AS(Q)` stacks the columns for
//! N = 1..=25. Reported values carry FB's floor (20 in the 2017 regime),
//! which the fit module handles.

use fbsim_adplatform::reach::AdsManagerApi;
use fbsim_adplatform::targeting::TargetingSpec;
use fbsim_population::MaterializedUser;
use fbsim_stats::quantile::select_quantile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::selection::{select_sequence, SelectionStrategy, MAX_SEQUENCE};

/// Per-user audience vectors for one selection strategy.
#[derive(Debug, Clone)]
pub struct AudienceVectors {
    /// Strategy that produced the vectors.
    pub strategy: SelectionStrategy,
    /// Reporting floor in force when the vectors were collected.
    pub floor: u64,
    /// One row per user: reported audience sizes for 1..=len(row) interests.
    rows: Vec<Vec<f64>>,
}

impl AudienceVectors {
    /// Collects audience vectors for a cohort of users.
    ///
    /// `seed` drives the random-selection permutations (one derived RNG per
    /// user, so results do not depend on iteration order).
    pub fn collect(
        api: &AdsManagerApi<'_>,
        users: &[&MaterializedUser],
        strategy: SelectionStrategy,
        seed: u64,
    ) -> Self {
        let catalog = api.world().catalog();
        // The paper's uniqueness queries span the top-50-country universe.
        let spec = TargetingSpec::builder()
            .worldwide()
            .build()
            // lint:allow(no-unwrap) — invariant: the worldwide one-interest spec is always valid
            .expect("worldwide spec is valid");
        let rows = users
            .iter()
            .enumerate()
            .filter_map(|(i, user)| {
                if user.interests.is_empty() {
                    return None;
                }
                let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                let sequence = select_sequence(user, catalog, strategy, &mut rng);
                let reaches = api.nested_potential_reach(&spec, &sequence);
                Some(reaches.into_iter().map(|r| r.reported as f64).collect())
            })
            .collect();
        Self { strategy, floor: api.era().floor(), rows }
    }

    /// Builds vectors directly from precomputed rows (for tests and
    /// bootstrap resampling).
    pub fn from_rows(strategy: SelectionStrategy, floor: u64, rows: Vec<Vec<f64>>) -> Self {
        Self { strategy, floor, rows }
    }

    /// The per-user rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.rows
    }

    /// Number of users contributing at least one sample.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no user contributed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of samples available at `n` interests (users with shorter
    /// interest lists drop out of the deeper columns, as in the paper).
    pub fn samples_at(&self, n: usize) -> usize {
        self.rows.iter().filter(|r| r.len() >= n).count()
    }

    /// `V_AS(Q)` over all rows: element `k` is the Q-quantile of the
    /// audience size with `k+1` interests. `q` is a percentile in (0, 100).
    pub fn v_as(&self, q: f64) -> Vec<f64> {
        self.v_as_indices(q, None)
    }

    /// `V_AS(Q)` over a bootstrap resample given by row indices (`None`
    /// means all rows once).
    pub fn v_as_indices(&self, q: f64, indices: Option<&[usize]>) -> Vec<f64> {
        self.v_as_until(q, indices, |_| false)
    }

    /// [`crate::fit::censor_at_floor`] of
    /// [`AudienceVectors::v_as_indices`]: the columns the censored fit
    /// reads, up to and including the first quantile at or below `floor`,
    /// and no further. Least-popular curves reach the floor after two or
    /// three of the 25 columns, so the bootstrap skips the rest.
    pub fn v_as_censored(&self, q: f64, indices: Option<&[usize]>, floor: f64) -> Vec<f64> {
        self.v_as_until(q, indices, |v| v <= floor)
    }

    /// `V_AS(Q)` column by column, stopping after the first value `stop`
    /// accepts. Each quantile is read by selection from one reused column
    /// buffer.
    fn v_as_until(
        &self,
        q: f64,
        indices: Option<&[usize]>,
        stop: impl Fn(f64) -> bool,
    ) -> Vec<f64> {
        assert!(
            (1.0..=99.0).contains(&q),
            "quantile must be a percentile in [1, 99] (e.g. 50 or 90), got {q}"
        );
        let p = q / 100.0;
        let mut out = Vec::with_capacity(MAX_SEQUENCE);
        let mut column = Vec::with_capacity(indices.map_or(self.rows.len(), <[usize]>::len));
        for n in 0..MAX_SEQUENCE {
            column.clear();
            match indices {
                None => column.extend(self.rows.iter().filter_map(|row| row.get(n).copied())),
                Some(idx) => {
                    column.extend(idx.iter().filter_map(|&i| self.rows[i].get(n).copied()));
                }
            }
            if column.is_empty() {
                break;
            }
            // lint:allow(no-unwrap) — invariant: columns are non-empty and finite by construction
            let value = select_quantile(&mut column, p).expect("non-empty finite column");
            out.push(value);
            if stop(value) {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbsim_adplatform::reach::ReportingEra;
    use fbsim_population::{World, WorldConfig};
    use std::sync::OnceLock;

    fn world() -> &'static World {
        static WORLD: OnceLock<World> = OnceLock::new();
        WORLD.get_or_init(|| World::generate(WorldConfig::test_scale(81)).unwrap())
    }

    fn collect(strategy: SelectionStrategy) -> AudienceVectors {
        let api = AdsManagerApi::new(world(), ReportingEra::Early2017);
        let cohort = world().sample_cohort(40, 4);
        let refs: Vec<&MaterializedUser> = cohort.iter().collect();
        AudienceVectors::collect(&api, &refs, strategy, 11)
    }

    #[test]
    fn rows_are_monotone_and_floored() {
        let v = collect(SelectionStrategy::Random);
        assert_eq!(v.floor, 20);
        for row in v.rows() {
            assert!(!row.is_empty());
            for w in row.windows(2) {
                assert!(w[1] <= w[0], "reach must not grow: {w:?}");
            }
            assert!(row.iter().all(|&x| x >= 20.0), "floor respected");
        }
    }

    #[test]
    fn v_as_is_decreasing() {
        let v = collect(SelectionStrategy::Random);
        let vas = v.v_as(50.0);
        assert!(!vas.is_empty());
        for w in vas.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }

    #[test]
    fn lp_decays_faster_than_random() {
        let lp = collect(SelectionStrategy::LeastPopular).v_as(50.0);
        let random = collect(SelectionStrategy::Random).v_as(50.0);
        // By the third interest the LP median audience should be far below
        // the random one.
        let k = 2.min(lp.len() - 1).min(random.len() - 1);
        assert!(
            lp[k] < random[k],
            "LP {} should be below random {} at N={}",
            lp[k],
            random[k],
            k + 1
        );
    }

    #[test]
    fn samples_at_counts_short_rows() {
        let v = AudienceVectors::from_rows(
            SelectionStrategy::Random,
            20,
            vec![vec![100.0, 50.0], vec![80.0], vec![90.0, 40.0, 20.0]],
        );
        assert_eq!(v.samples_at(1), 3);
        assert_eq!(v.samples_at(2), 2);
        assert_eq!(v.samples_at(3), 1);
        assert_eq!(v.samples_at(4), 0);
    }

    #[test]
    fn v_as_indices_resamples() {
        let v = AudienceVectors::from_rows(
            SelectionStrategy::Random,
            20,
            vec![vec![100.0], vec![200.0]],
        );
        let only_first = v.v_as_indices(50.0, Some(&[0, 0]));
        assert_eq!(only_first, vec![100.0]);
        let both = v.v_as(50.0);
        assert_eq!(both, vec![150.0]);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn quantile_must_be_percentile() {
        let v = AudienceVectors::from_rows(SelectionStrategy::Random, 20, vec![vec![1.0]]);
        v.v_as(0.5);
    }

    #[test]
    fn quantile_ordering_across_q() {
        let v = collect(SelectionStrategy::Random);
        let v50 = v.v_as(50.0);
        let v90 = v.v_as(90.0);
        for (a, b) in v50.iter().zip(&v90) {
            assert!(b >= a, "higher quantile must dominate: {b} vs {a}");
        }
    }
}
