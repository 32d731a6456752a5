//! Wall-clock benchmark of the reach query cache: the uniqueness pipeline's
//! repetitive workload (repeated conjunction audiences and 25-interest
//! nested sweeps) run against a disabled cache, a cold cache, and a warm
//! cache, with `to_bits`-level cross-checks that all three agree. Also
//! times prefix memoization: a 25-interest sweep resumed from a resident
//! 20-interest prefix versus swept from scratch.
//!
//! Writes `BENCH_cache.json` to the working directory. Honours `UOF_SCALE`
//! (default `medium`), `UOF_SEED`, and `UOF_THREADS` like every other bench
//! binary.

use fbsim_population::reach::CountryFilter;
use fbsim_population::{InterestId, ReachEngine};
use reach_api::proto::encode;
use reach_api::ReachResponse;
use reach_cache::{CacheConfig, CacheStats, ReachCache};
use std::time::Instant;
use uof_telemetry::json::{self, Value};

/// Prefix length seeded before the extension measurement.
const PREFIX_LEN: usize = 20;
/// Full sequence length (the paper's 25-interest ceiling).
const SEQUENCE_LEN: usize = 25;

fn timing(disabled_secs: f64, cold_secs: f64, warm_secs: f64) -> Value {
    Value::obj([
        ("disabled_secs", disabled_secs.into()),
        ("cold_secs", cold_secs.into()),
        ("warm_secs", warm_secs.into()),
        ("warm_speedup_vs_cold", (cold_secs / warm_secs).into()),
    ])
}

/// `stats` as the wire codec writes it in a `stats` response.
fn stats_json(stats: CacheStats) -> Value {
    let frame = encode(&ReachResponse::Stats { stats });
    let text = std::str::from_utf8(&frame).expect("frames are UTF-8");
    let body = json::parse(text.trim_end()).expect("codec output parses");
    body.get("stats").cloned().expect("a stats response carries `stats`")
}

/// Interest sequences shaped like the paper's audiences: 25-interest walks
/// spread across the catalog.
fn sequences(catalog_len: u32, count: u32) -> Vec<Vec<InterestId>> {
    (0..count)
        .map(|s| {
            (0..SEQUENCE_LEN as u32)
                .map(|i| InterestId((s * 1013 + i * 41) % catalog_len))
                .collect()
        })
        .collect()
}

/// Small conjunction audiences (3 interests each) for the scalar workload.
fn audiences(catalog_len: u32, count: u32) -> Vec<Vec<InterestId>> {
    (0..count)
        .map(|s| (0..3u32).map(|i| InterestId((s * 389 + i * 101) % catalog_len)).collect())
        .collect()
}

/// One pass of the scalar workload through a cache; returns a bit-level
/// checksum of every answer.
fn scalar_pass(cache: &ReachCache, engine: &ReachEngine<'_>, audiences: &[Vec<InterestId>]) -> u64 {
    let mut checksum = 0u64;
    for ids in audiences {
        let v = cache.reach(ids, CountryFilter::ALL, None, || {
            engine.conjunction_reach_in(ids, CountryFilter::ALL)
        });
        checksum = checksum.rotate_left(7) ^ v.to_bits();
    }
    checksum
}

/// One pass of the nested workload; checksums every prefix reach.
fn nested_pass(cache: &ReachCache, engine: &ReachEngine<'_>, seqs: &[Vec<InterestId>]) -> u64 {
    let mut checksum = 0u64;
    for seq in seqs {
        for v in cache.nested_reaches_in(engine, seq, CountryFilter::ALL) {
            checksum = checksum.rotate_left(7) ^ v.to_bits();
        }
    }
    checksum
}

/// Cache knobs for the bench: the default shape, but with a prefix budget
/// comfortably above the working set. The default `prefix_capacity` is a
/// deliberately small per-shard LRU; an unlucky shard distribution could
/// evict a seeded prefix mid-measurement and turn a resume into a full
/// sweep, which would measure eviction luck instead of extension cost.
fn bench_config() -> CacheConfig {
    CacheConfig { prefix_capacity: 1024, ..CacheConfig::default() }
}

/// Times one cold pass: a fresh cache is built inside the timed region (its
/// construction cost is part of a cold start) and returned warm.
fn time_cold<F: Fn(&ReachCache) -> u64>(f: F) -> (f64, u64, ReachCache) {
    let cache = ReachCache::new(bench_config());
    let start = Instant::now();
    let checksum = f(&cache);
    (start.elapsed().as_secs_f64(), checksum, cache)
}

fn main() {
    let (scale, world) = bench::build_world();
    let engine = world.reach_engine();
    let catalog_len = world.catalog().len() as u32;
    let seqs = sequences(catalog_len, 24);
    let auds = audiences(catalog_len, 60);
    let disabled = ReachCache::new(CacheConfig::disabled());
    disabled.sync_generation(world.generation());

    // --- Scalar conjunction workload -----------------------------------
    eprintln!("[run] scalar: {} audiences, disabled/cold/warm…", auds.len());
    let (scalar_off, scalar_off_sum) =
        bench::time_best(3, || scalar_pass(&disabled, &engine, &auds));
    let (scalar_cold, scalar_cold_sum, scalar_cache) =
        time_cold(|cache| scalar_pass(cache, &engine, &auds));
    let (scalar_warm, scalar_warm_sum) =
        bench::time_best(5, || scalar_pass(&scalar_cache, &engine, &auds));
    assert_eq!(scalar_off_sum, scalar_cold_sum, "cold cache must match uncached bits");
    assert_eq!(scalar_off_sum, scalar_warm_sum, "warm cache must match uncached bits");

    // --- Nested sweep workload ------------------------------------------
    eprintln!("[run] nested: {} sequences × {SEQUENCE_LEN}, disabled/cold/warm…", seqs.len());
    let (nested_off, nested_off_sum) =
        bench::time_best(3, || nested_pass(&disabled, &engine, &seqs));
    let (nested_cold, nested_cold_sum, nested_cache) =
        time_cold(|cache| nested_pass(cache, &engine, &seqs));
    let (nested_warm, nested_warm_sum) =
        bench::time_best(5, || nested_pass(&nested_cache, &engine, &seqs));
    assert_eq!(nested_off_sum, nested_cold_sum, "cold cache must match uncached bits");
    assert_eq!(nested_off_sum, nested_warm_sum, "warm cache must match uncached bits");

    // --- Prefix extension: resume a 20-prefix vs sweep 25 from scratch --
    eprintln!("[run] prefix extension: {PREFIX_LEN}-prefix resume vs full sweep…");
    let prefixes: Vec<Vec<InterestId>> = seqs.iter().map(|s| s[..PREFIX_LEN].to_vec()).collect();
    let (ext_full, ext_full_sum, _) = time_cold(|cache| nested_pass(cache, &engine, &seqs));
    let seeded = ReachCache::new(bench_config());
    nested_pass(&seeded, &engine, &prefixes);
    let before = seeded.stats().prefix_extensions;
    let ext_start = Instant::now();
    let ext_sum = nested_pass(&seeded, &engine, &seqs);
    let ext_secs = ext_start.elapsed().as_secs_f64();
    assert_eq!(ext_full_sum, ext_sum, "extended sweeps must match from-scratch bits");
    let extensions = seeded.stats().prefix_extensions - before;
    assert_eq!(
        extensions,
        seqs.len() as u64,
        "every full-length sweep must resume its resident prefix"
    );

    let cold_total = scalar_cold + nested_cold;
    let warm_total = scalar_warm + nested_warm;
    assert!(
        warm_total * 5.0 <= cold_total,
        "warm cache must be at least 5x faster than cold: cold {cold_total:.4}s warm {warm_total:.4}s"
    );

    let report = bench::report(
        "cache",
        scale,
        [
            ("audiences", auds.len().into()),
            ("sequences", seqs.len().into()),
            ("interests_per_sequence", SEQUENCE_LEN.into()),
            ("prefix_len", PREFIX_LEN.into()),
            ("bit_identical_disabled_cold_warm", true.into()),
            ("scalar", timing(scalar_off, scalar_cold, scalar_warm)),
            ("nested", timing(nested_off, nested_cold, nested_warm)),
            (
                "prefix_extension",
                // 25-interest sweeps from scratch (no resident prefix) against
                // the same sweeps resumed from resident 20-interest prefixes.
                Value::obj([
                    ("full_sweep_secs", ext_full.into()),
                    ("extended_secs", ext_secs.into()),
                    ("speedup", (ext_full / ext_secs).into()),
                ]),
            ),
            ("prefix_extensions_used", extensions.into()),
            ("scalar_warm_stats", stats_json(scalar_cache.stats())),
            ("nested_warm_stats", stats_json(nested_cache.stats())),
        ],
    );
    bench::write_report("BENCH_cache.json", &report).expect("write BENCH_cache.json");
    eprintln!(
        "[done] scalar {scalar_cold:.3}s cold → {scalar_warm:.6}s warm; \
         nested {nested_cold:.3}s cold → {nested_warm:.6}s warm; \
         extension {ext_full:.3}s full → {ext_secs:.3}s resumed; wrote BENCH_cache.json"
    );
}
