//! Shared scaffolding for the table/figure regeneration binaries and the
//! `bench_*`/`loadgen` benchmarks.
//!
//! Every binary honours the `UOF_SCALE` environment variable:
//!
//! * `test` — the tiny world used by unit tests (seconds).
//! * `medium` (default) — the paper's 1.5B-user universe with a reduced
//!   Monte-Carlo panel and cohort, sized for a single-core machine
//!   (a few minutes per binary).
//! * `paper` — full paper scale: 99k interests, 200k panel users, the
//!   2,390-user cohort and 10,000 bootstrap replicates.
//!
//! `UOF_SEED` overrides the master seed (default 2021).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use fbsim_fdvt::dataset::CohortConfig;
use fbsim_fdvt::FdvtDataset;
use fbsim_population::{World, WorldConfig};
use uof_telemetry::json::Value;

/// Scale preset for a regeneration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Unit-test scale.
    Test,
    /// Paper universe, reduced panel/cohort (default).
    Medium,
    /// Full paper scale.
    Paper,
}

impl Scale {
    /// Reads the scale from `UOF_SCALE`.
    pub fn from_env() -> Self {
        match std::env::var("UOF_SCALE").as_deref() {
            Ok("test") => Scale::Test,
            Ok("paper") => Scale::Paper,
            Ok("medium") | Err(_) => Scale::Medium,
            Ok(other) => {
                eprintln!("unknown UOF_SCALE={other:?}, using medium");
                Scale::Medium
            }
        }
    }

    /// The world configuration for this scale.
    pub fn world_config(self, seed: u64) -> WorldConfig {
        match self {
            Scale::Test => WorldConfig::test_scale(seed),
            Scale::Medium => WorldConfig { panel_size: 50_000, ..WorldConfig::paper_scale(seed) },
            Scale::Paper => WorldConfig::paper_scale(seed),
        }
    }

    /// Cohort size for this scale.
    pub fn cohort_size(self) -> u32 {
        match self {
            Scale::Test => 239,
            Scale::Medium => 600,
            Scale::Paper => 2_390,
        }
    }

    /// Bootstrap replicates for this scale (the paper uses 10,000).
    pub fn bootstrap_replicates(self) -> usize {
        match self {
            Scale::Test => 200,
            Scale::Medium => 1_000,
            Scale::Paper => 10_000,
        }
    }
}

/// Master seed from `UOF_SEED` (default 2021, the publication year).
pub fn seed_from_env() -> u64 {
    std::env::var("UOF_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(2021)
}

/// The machine's available parallelism, for BENCH_*.json artifacts: a
/// speedup ≈ 1.0 between sequential and parallel timings is expected on a
/// single-core box and a red flag on a many-core one — recording the core
/// count makes that diagnosable from the artifact alone (ROADMAP
/// cross-cutting notes). `0` when the platform cannot say.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(0)
}

/// Builds the world for the environment-selected scale, logging progress.
pub fn build_world() -> (Scale, World) {
    let scale = Scale::from_env();
    let seed = seed_from_env();
    eprintln!("[setup] scale {scale:?}, seed {seed}: generating world…");
    let start = std::time::Instant::now();
    // lint:allow(no-unwrap) — bench presets are compile-time constants validated by tests
    let world = World::generate(scale.world_config(seed)).expect("preset configs are valid");
    eprintln!(
        "[setup] world ready in {:.1?} (calibration median error {:.3})",
        start.elapsed(),
        world.calibration().median_rel_error
    );
    (scale, world)
}

/// Builds the FDVT cohort for a world at the given scale.
pub fn build_cohort(world: &World, scale: Scale) -> FdvtDataset {
    let start = std::time::Instant::now();
    let cohort = FdvtDataset::generate(
        world,
        CohortConfig {
            size: scale.cohort_size(),
            seed: seed_from_env() ^ 0xC0_0047,
            demographic_effects: true,
        },
    );
    eprintln!("[setup] cohort of {} users in {:.1?}", cohort.len(), start.elapsed());
    cohort
}

/// Prints a two-column paper-vs-measured comparison line.
pub fn compare(label: &str, paper: f64, measured: f64) {
    println!("{label:<18} paper {paper:>10.2}   measured {measured:>10.2}");
}

/// Times `f` with one warm-up and `reps` measured runs; returns the best
/// wall-clock seconds and the (identical) checksum.
///
/// # Panics
///
/// If a measured run's checksum differs from the warm-up's.
pub fn time_best<F: Fn() -> u64>(reps: usize, f: F) -> (f64, u64) {
    let checksum = f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let got = f();
        best = best.min(start.elapsed().as_secs_f64());
        assert_eq!(got, checksum, "benchmark run was not deterministic");
    }
    (best, checksum)
}

/// A `BENCH_*.json` report for a run at `scale`: `bench`, `scale`, `seed`,
/// `threads` and `available_parallelism`, then `members`.
pub fn report<const N: usize>(bench: &str, scale: Scale, members: [(&str, Value); N]) -> Value {
    let header = [
        ("bench", bench.into()),
        ("scale", format!("{scale:?}").to_lowercase().into()),
        ("seed", seed_from_env().into()),
        ("threads", rayon::current_num_threads().into()),
        ("available_parallelism", available_parallelism().into()),
    ];
    let members = header.into_iter().chain(members);
    Value::Obj(members.map(|(k, v)| (k.to_string(), v)).collect())
}

/// Writes a `BENCH_*.json` report to `path` in the working directory and
/// prints it on stdout.
///
/// # Errors
///
/// The write's I/O error.
pub fn write_report(path: &str, report: &Value) -> std::io::Result<()> {
    let rendered = report.to_json_string();
    std::fs::write(path, &rendered)?;
    println!("{rendered}");
    Ok(())
}

/// One workload timed on one thread and on the whole pool:
/// `{"sequential_secs","parallel_secs","speedup"}`.
pub fn thread_timing(sequential_secs: f64, parallel_secs: f64) -> Value {
    Value::obj([
        ("sequential_secs", sequential_secs.into()),
        ("parallel_secs", parallel_secs.into()),
        ("speedup", (sequential_secs / parallel_secs).into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_configs_are_valid() {
        for scale in [Scale::Test, Scale::Medium, Scale::Paper] {
            assert!(scale.world_config(1).validate().is_ok());
            assert!(scale.cohort_size() > 0);
            assert!(scale.bootstrap_replicates() > 0);
        }
    }

    #[test]
    fn paper_scale_is_full_size() {
        let cfg = Scale::Paper.world_config(1);
        assert_eq!(cfg.panel_size, 200_000);
        assert_eq!(Scale::Paper.cohort_size(), 2_390);
        assert_eq!(Scale::Paper.bootstrap_replicates(), 10_000);
    }
}
