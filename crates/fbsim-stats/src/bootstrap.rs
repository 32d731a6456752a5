//! Percentile-bootstrap confidence intervals.
//!
//! Section 4.1: *"we repeat the data aggregation and model fit in 10,000
//! bootstrap samples, calculating this way the 95% Confidence Interval (CI)
//! of the cutpoint"*. The statistic being bootstrapped there is the whole
//! pipeline (resample users → quantile vectors → log fit → `N_P`); this
//! module provides the generic machinery: resample row indices with
//! replacement, apply a user-supplied statistic, and report percentile CIs.
//!
//! Resampling is seeded and deterministic. Each replicate derives its RNG
//! from the master seed and the replicate index via splitmix64, so a
//! replicate's value is a pure function of `(seed, index)` — independent of
//! which worker thread runs it. Replicates execute in parallel on the
//! vendored rayon pool, which collects results in replicate order, so the
//! retained-value vector and the resulting CI are **bit-identical at any
//! `UOF_THREADS`** (including the strictly sequential `UOF_THREADS=1`).

use crate::quantile::{QuantileError, SortedSample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// A percentile-bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Lower bound of the interval.
    pub lo: f64,
    /// Upper bound of the interval.
    pub hi: f64,
    /// Confidence level used, e.g. `0.95`.
    pub level: f64,
    /// Number of bootstrap replicates that produced a finite statistic.
    pub replicates: usize,
}

impl BootstrapCi {
    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x <= self.hi
    }

    /// Interval width.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Errors from bootstrap estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapError {
    /// The dataset had no rows to resample.
    EmptyData,
    /// Zero replicates were requested.
    NoReplicates,
    /// The confidence level was not in `(0, 1)`.
    InvalidLevel,
    /// Every replicate produced a non-finite statistic, so no interval
    /// can be formed.
    AllReplicatesFailed,
    /// The retained replicate values could not form a quantile sample.
    Quantile(QuantileError),
}

impl From<QuantileError> for BootstrapError {
    fn from(err: QuantileError) -> Self {
        BootstrapError::Quantile(err)
    }
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::EmptyData => write!(f, "cannot bootstrap an empty dataset"),
            BootstrapError::NoReplicates => write!(f, "need at least one bootstrap replicate"),
            BootstrapError::InvalidLevel => write!(f, "confidence level must be in (0, 1)"),
            BootstrapError::AllReplicatesFailed => {
                write!(f, "every bootstrap replicate produced a non-finite statistic")
            }
            BootstrapError::Quantile(err) => {
                write!(f, "replicate values rejected by the quantile sample: {err}")
            }
        }
    }
}

impl std::error::Error for BootstrapError {}

/// Deterministic per-replicate RNG: mixes the master seed with the replicate
/// index via splitmix64 so replicate streams are independent of scheduling.
fn replicate_rng(seed: u64, replicate: u64) -> StdRng {
    let mut z = seed ^ replicate.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

/// Draws `n` row indices with replacement from `0..n`.
fn resample_indices(rng: &mut StdRng, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

/// Runs a percentile bootstrap of `statistic` over row indices `0..n_rows`.
///
/// `statistic` receives a resampled index multiset (length `n_rows`) and
/// returns the statistic of interest computed on those rows; it may return
/// `None` (or a non-finite value) when the statistic is undefined for that
/// resample — such replicates are dropped, mirroring how a failed fit is
/// handled in the paper's pipeline.
///
/// Returns the percentile CI at `level` plus the retained replicate values.
///
/// # Errors
///
/// See [`BootstrapError`].
pub fn bootstrap_ci<F>(
    n_rows: usize,
    replicates: usize,
    level: f64,
    seed: u64,
    statistic: F,
) -> Result<(BootstrapCi, Vec<f64>), BootstrapError>
where
    F: Fn(&[usize]) -> Option<f64> + Sync,
{
    if n_rows == 0 {
        return Err(BootstrapError::EmptyData);
    }
    if replicates == 0 {
        return Err(BootstrapError::NoReplicates);
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(BootstrapError::InvalidLevel);
    }

    let mut values: Vec<f64> = (0..replicates as u64)
        .into_par_iter()
        .filter_map(|r| {
            let mut rng = replicate_rng(seed, r);
            let idx = resample_indices(&mut rng, n_rows);
            statistic(&idx).filter(|v| v.is_finite())
        })
        .collect();
    if values.is_empty() {
        return Err(BootstrapError::AllReplicatesFailed);
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let sorted = SortedSample::from_sorted(values.clone())?;
    let alpha = (1.0 - level) / 2.0;
    let ci = BootstrapCi {
        lo: sorted.quantile(alpha)?,
        hi: sorted.quantile(1.0 - alpha)?,
        level,
        replicates: values.len(),
    };
    Ok((ci, values))
}

/// Convenience: bootstrap CI of the mean of `data`.
///
/// # Errors
///
/// See [`BootstrapError`].
pub fn bootstrap_mean_ci(
    data: &[f64],
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, BootstrapError> {
    let (ci, _) = bootstrap_ci(data.len(), replicates, level, seed, |idx| {
        Some(idx.iter().map(|&i| data[i]).sum::<f64>() / idx.len() as f64)
    })?;
    Ok(ci)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let a = bootstrap_mean_ci(&data, 500, 0.95, 42).unwrap();
        let b = bootstrap_mean_ci(&data, 500, 0.95, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64).cos() * 5.0).collect();
        let a = bootstrap_mean_ci(&data, 500, 0.95, 1).unwrap();
        let b = bootstrap_mean_ci(&data, 500, 0.95, 2).unwrap();
        assert_ne!((a.lo, a.hi), (b.lo, b.hi));
    }

    #[test]
    fn ci_covers_sample_mean() {
        let data: Vec<f64> = (0..200).map(|i| (i % 13) as f64).collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let ci = bootstrap_mean_ci(&data, 2000, 0.95, 7).unwrap();
        assert!(ci.contains(mean), "{ci:?} should contain {mean}");
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 31) % 17) as f64).collect();
        let c90 = bootstrap_mean_ci(&data, 2000, 0.90, 3).unwrap();
        let c99 = bootstrap_mean_ci(&data, 2000, 0.99, 3).unwrap();
        assert!(c99.width() >= c90.width());
    }

    #[test]
    fn constant_data_gives_zero_width() {
        let data = vec![4.2; 30];
        let ci = bootstrap_mean_ci(&data, 200, 0.95, 11).unwrap();
        assert!((ci.lo - 4.2).abs() < 1e-12);
        assert!((ci.hi - 4.2).abs() < 1e-12);
        assert!(ci.width() < 1e-12);
    }

    #[test]
    fn failed_replicates_are_dropped() {
        // Statistic fails whenever index 0 is absent from the resample;
        // with n=3 that's common, but some replicates still succeed.
        let (ci, kept) =
            bootstrap_ci(3, 400, 0.95, 9, |idx| idx.contains(&0).then_some(1.0)).unwrap();
        assert!(ci.replicates < 400);
        assert_eq!(ci.replicates, kept.len());
        assert_eq!(ci.lo, 1.0);
        assert_eq!(ci.hi, 1.0);
    }

    #[test]
    fn all_failed_errors() {
        let err = bootstrap_ci(5, 50, 0.95, 1, |_| None::<f64>).unwrap_err();
        assert_eq!(err, BootstrapError::AllReplicatesFailed);
    }

    #[test]
    fn non_finite_statistics_are_dropped() {
        let (ci, _) =
            bootstrap_ci(
                5,
                50,
                0.95,
                1,
                |idx| {
                    if idx[0] % 2 == 0 {
                        Some(f64::NAN)
                    } else {
                        Some(2.0)
                    }
                },
            )
            .unwrap();
        assert_eq!(ci.lo, 2.0);
        assert_eq!(ci.hi, 2.0);
    }

    #[test]
    fn input_validation() {
        assert_eq!(
            bootstrap_ci(0, 10, 0.95, 0, |_| Some(0.0)).unwrap_err(),
            BootstrapError::EmptyData
        );
        assert_eq!(
            bootstrap_ci(5, 0, 0.95, 0, |_| Some(0.0)).unwrap_err(),
            BootstrapError::NoReplicates
        );
        assert_eq!(
            bootstrap_ci(5, 10, 1.0, 0, |_| Some(0.0)).unwrap_err(),
            BootstrapError::InvalidLevel
        );
        assert_eq!(
            bootstrap_ci(5, 10, 0.0, 0, |_| Some(0.0)).unwrap_err(),
            BootstrapError::InvalidLevel
        );
    }

    #[test]
    fn bootstrap_bit_identical_across_thread_counts() {
        let data: Vec<f64> = (0..240).map(|i| ((i * 131) % 89) as f64 / 3.0).collect();
        let statistic =
            |idx: &[usize]| Some(idx.iter().map(|&i| data[i]).sum::<f64>() / idx.len() as f64);
        let (ci_seq, values_seq) =
            rayon::with_thread_count(1, || bootstrap_ci(data.len(), 800, 0.95, 77, statistic))
                .unwrap();
        for threads in [2, 4, 8] {
            let (ci, values) = rayon::with_thread_count(threads, || {
                bootstrap_ci(data.len(), 800, 0.95, 77, statistic)
            })
            .unwrap();
            assert_eq!(ci.lo.to_bits(), ci_seq.lo.to_bits(), "{threads} threads");
            assert_eq!(ci.hi.to_bits(), ci_seq.hi.to_bits(), "{threads} threads");
            assert_eq!(values.len(), values_seq.len());
            for (a, b) in values.iter().zip(&values_seq) {
                assert_eq!(a.to_bits(), b.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn replicate_rng_streams_are_distinct() {
        let mut a = replicate_rng(99, 0);
        let mut b = replicate_rng(99, 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }
}
