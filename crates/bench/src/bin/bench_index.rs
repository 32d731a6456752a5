//! Wall-clock benchmark of the bit-packed posting-list reach index against
//! the float-engine panel scan: index build cost (demand-driven, only the
//! queried interests), per-query AND-chain latency vs a full
//! `conjunction_reach_in` sweep, memory per interest, and an exact
//! cross-check against the boolean reference scan. Writes
//! `BENCH_index.json` to the working directory.
//!
//! Honours `UOF_SCALE` (default `medium`) and `UOF_SEED` like every other
//! bench binary.

use fbsim_population::index::{boolean_reference_count, ReachIndex, BLOCK_USERS};
use fbsim_population::reach::CountryFilter;
use fbsim_population::InterestId;
use std::time::Instant;
use uof_telemetry::json::Value;

/// One query timed both ways: `scan_secs` per float-engine panel scan,
/// `index_secs` per index AND-chain + popcount, and their ratio.
fn conjunction_timing(interests: usize, scan_secs: f64, index_secs: f64) -> Value {
    Value::obj([
        ("interests", interests.into()),
        ("scan_secs", scan_secs.into()),
        ("index_secs", index_secs.into()),
        ("speedup", (scan_secs / index_secs).into()),
    ])
}

fn main() {
    let (scale, world) = bench::build_world();
    let engine = world.reach_engine();
    let catalog_len = world.catalog().len() as u32;

    // The paper-shaped query: a 25-interest conjunction spread across the
    // catalog (same walk as bench_reach's first sequence).
    let conjunction: Vec<InterestId> =
        (0..25u32).map(|i| InterestId((i * 37) % catalog_len)).collect();
    let singles: Vec<InterestId> = (0..8u32).map(|s| InterestId((s * 997) % catalog_len)).collect();
    let mut queried = conjunction.clone();
    queried.extend(&singles);

    eprintln!("[run] building posting lists for {} interests…", queried.len());
    let build_start = Instant::now();
    let index = ReachIndex::build_for(&world, &queried);
    let build_secs = build_start.elapsed().as_secs_f64();
    let (dense, sparse) = queried.iter().fold((0usize, 0usize), |(d, s), &id| {
        let (di, si) = index.posting(id).expect("just built").container_mix();
        (d + di, s + si)
    });

    eprintln!("[run] float-engine scan vs index AND-chain: 25-interest conjunction…");
    let (scan_secs, _) = bench::time_best(5, || {
        engine.conjunction_reach_in(&conjunction, CountryFilter::ALL).to_bits()
    });
    // The AND-chain is microseconds; time a batch and divide.
    const BATCH: u32 = 512;
    let (index_batch_secs, _) = bench::time_best(5, || {
        let mut checksum = 0u64;
        for _ in 0..BATCH {
            checksum = checksum.rotate_left(7)
                ^ index.conjunction_count(&conjunction, CountryFilter::ALL).expect("built");
        }
        checksum
    });
    let index_secs = index_batch_secs / f64::from(BATCH);

    eprintln!("[run] single-interest timings and statistical consistency…");
    let (single_scan_secs, _) = bench::time_best(5, || {
        engine.conjunction_reach_in(&singles[..1], CountryFilter::ALL).to_bits()
    });
    let (single_index_batch, _) = bench::time_best(5, || {
        let mut checksum = 0u64;
        for _ in 0..BATCH {
            checksum = checksum.rotate_left(7)
                ^ index.conjunction_count(&singles[..1], CountryFilter::ALL).expect("built");
        }
        checksum
    });
    let single_index_secs = single_index_batch / f64::from(BATCH);

    // Exact cross-check: the index must equal the boolean reference scan on
    // every measured query (conjunction + each single, two filters).
    eprintln!("[check] index vs boolean reference scan…");
    let scale_factor = world.panel().scale();
    let mut matches = true;
    let mut max_sigma = 0.0f64;
    let filters = [CountryFilter::ALL, CountryFilter::of(&[0, 3, 7])];
    for filter in filters {
        let got = index.conjunction_count(&conjunction, filter);
        matches &= got == Some(boolean_reference_count(&world, &conjunction, filter));
        for &id in &singles {
            let ids = [id];
            let got = index.conjunction_count(&ids, filter);
            let reference = boolean_reference_count(&world, &ids, filter);
            matches &= got == Some(reference);
            if filter == CountryFilter::ALL {
                let expected = engine.conjunction_reach_in(&ids, filter) / scale_factor;
                let sigma = (reference as f64 - expected).abs() / expected.sqrt().max(1.0);
                max_sigma = max_sigma.max(sigma);
            }
        }
    }
    assert!(matches, "index diverged from the boolean reference scan");

    let heap_bytes = index.heap_bytes();
    let built = index.built_interests().max(1) as f64;
    let report = bench::report(
        "index",
        scale,
        [
            ("panel_len", index.panel_len().into()),
            ("interests_built", index.built_interests().into()),
            // One-off cost of materializing the queried posting lists.
            ("build_secs", build_secs.into()),
            ("build_secs_per_interest", (build_secs / built).into()),
            ("heap_bytes", heap_bytes.into()),
            ("bytes_per_interest", (heap_bytes as f64 / built).into()),
            ("dense_containers", dense.into()),
            ("sparse_containers", sparse.into()),
            ("blocks_per_interest", index.panel_len().div_ceil(BLOCK_USERS).into()),
            // Index count == boolean reference scan, for every measured query.
            ("index_matches_reference_scan", matches.into()),
            // max |sampled − expected| / max(√expected, 1) over the
            // single-interest queries — the statistical-consistency view in σ
            // units (a realized Bernoulli count has ≈ √expected noise; values
            // within a few σ are consistent with the float engine).
            ("max_single_interest_sigma", max_sigma.into()),
            ("conjunction", conjunction_timing(conjunction.len(), scan_secs, index_secs)),
            ("single_interest", conjunction_timing(1, single_scan_secs, single_index_secs)),
        ],
    );
    bench::write_report("BENCH_index.json", &report).expect("write BENCH_index.json");
    eprintln!(
        "[done] 25-interest conjunction: scan {scan_secs:.4}s vs index {index_secs:.7}s \
         ({:.0}× speedup); build {build_secs:.2}s for {} interests; wrote BENCH_index.json",
        scan_secs / index_secs,
        index.built_interests(),
    );
}
