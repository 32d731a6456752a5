//! Wall-clock benchmark of the parallel reach pipeline: nested-reach sweeps
//! and bootstrap CIs timed under `UOF_THREADS=1` (strictly sequential) and
//! the default thread count, with a bit-identity cross-check between the two
//! runs. Writes `BENCH_reach.json` to the working directory.
//!
//! Honours `UOF_SCALE` (default `medium`) and `UOF_SEED` like every other
//! bench binary; `UOF_THREADS` sets the parallel side's worker count.

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ReachEngine};

/// Interest sequences shaped like the paper's audiences: 25-interest walks
/// spread across the catalog, one per cohort member sampled.
fn sequences(catalog_len: u32, count: u32) -> Vec<Vec<InterestId>> {
    (0..count)
        .map(|s| (0..25u32).map(|i| InterestId((s * 997 + i * 37) % catalog_len)).collect())
        .collect()
}

/// Runs the nested-reach sweep once, returning a bit-level checksum of every
/// prefix reach (order-sensitive, so any drift shows up).
fn reach_sweep(engine: &ReachEngine<'_>, seqs: &[Vec<InterestId>]) -> u64 {
    let mut checksum = 0u64;
    for seq in seqs {
        for v in engine.nested_reaches_in(seq, CountryFilter::ALL) {
            checksum = checksum.rotate_left(7) ^ v.to_bits();
        }
    }
    checksum
}

/// Runs the bootstrap once, returning a checksum over the CI and every
/// retained replicate value.
fn bootstrap_run(data: &[f64], replicates: usize, seed: u64) -> u64 {
    let (ci, values) = fbsim_stats::bootstrap_ci(data.len(), replicates, 0.95, seed, |idx| {
        Some(idx.iter().map(|&i| data[i]).sum::<f64>() / idx.len() as f64)
    })
    .expect("bootstrap succeeds on finite data");
    let mut checksum = ci.lo.to_bits().rotate_left(13) ^ ci.hi.to_bits();
    for v in values {
        checksum = checksum.rotate_left(7) ^ v.to_bits();
    }
    checksum
}

fn main() {
    let (scale, world) = bench::build_world();
    let seed = bench::seed_from_env();
    let threads = rayon::current_num_threads();
    let engine = world.reach_engine();
    let seqs = sequences(world.catalog().len() as u32, 40);
    let data: Vec<f64> = (0..600).map(|i| ((i * 271) % 97) as f64 / 7.0).collect();
    let replicates = scale.bootstrap_replicates();

    eprintln!("[run] reach sweep: {} sequences × 25 interests…", seqs.len());
    let (reach_seq, reach_seq_sum) =
        rayon::with_thread_count(1, || bench::time_best(3, || reach_sweep(&engine, &seqs)));
    let (reach_par, reach_par_sum) =
        rayon::with_thread_count(threads, || bench::time_best(3, || reach_sweep(&engine, &seqs)));
    assert_eq!(reach_seq_sum, reach_par_sum, "reach sweep must be thread-count invariant");

    eprintln!("[run] bootstrap: {replicates} replicates…");
    let (boot_seq, boot_seq_sum) = rayon::with_thread_count(1, || {
        bench::time_best(3, || bootstrap_run(&data, replicates, seed))
    });
    let (boot_par, boot_par_sum) = rayon::with_thread_count(threads, || {
        bench::time_best(3, || bootstrap_run(&data, replicates, seed))
    });
    assert_eq!(boot_seq_sum, boot_par_sum, "bootstrap must be thread-count invariant");

    let report = bench::report(
        "reach",
        scale,
        [
            ("bit_identical_across_thread_counts", true.into()),
            ("reach_sequences", seqs.len().into()),
            ("interests_per_sequence", 25usize.into()),
            ("bootstrap_replicates", replicates.into()),
            ("reach_sweep", bench::thread_timing(reach_seq, reach_par)),
            ("bootstrap", bench::thread_timing(boot_seq, boot_par)),
        ],
    );
    bench::write_report("BENCH_reach.json", &report).expect("write BENCH_reach.json");
    eprintln!(
        "[done] reach {reach_seq:.3}s → {reach_par:.3}s, bootstrap {boot_seq:.3}s → {boot_par:.3}s \
         on {threads} thread(s); wrote BENCH_reach.json"
    );
}
