//! Wall-clock benchmark of the token-level lint engine: the full workspace
//! walk timed under `UOF_THREADS=1` (strictly sequential) and the default
//! thread count, with a byte-identity cross-check of the JSON report
//! between the two runs — the same invariant `tests/lint_gate.rs` pins,
//! measured here instead of just asserted. Writes `BENCH_lint.json` to the
//! working directory.

use std::path::PathBuf;
use std::time::Instant;

use uof_telemetry::json::Value;

fn workspace_root() -> PathBuf {
    // crates/bench/ -> workspace root is two levels up.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
}

/// Times the best of `reps` full lint walks, returning the JSON bytes so
/// the caller can cross-check runs against each other.
fn time_best(reps: usize, root: &std::path::Path) -> (f64, String) {
    let baseline =
        xtask::lint_workspace_report(root).expect("workspace tree is readable").to_json();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let report = xtask::lint_workspace_report(root).expect("workspace tree is readable");
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(report.to_json(), baseline, "lint walk was not deterministic");
        best = best.min(elapsed);
    }
    (best, baseline)
}

fn main() {
    let root = workspace_root();
    let threads = rayon::current_num_threads();

    eprintln!("[run] lint walk over {}…", root.display());
    let (seq_secs, seq_json) = rayon::with_thread_count(1, || time_best(5, &root));
    let (par_secs, par_json) = rayon::with_thread_count(threads, || time_best(5, &root));
    assert_eq!(seq_json, par_json, "lint JSON must be byte-identical at any thread count");

    let report = xtask::lint_workspace_report(&root).expect("workspace tree is readable");
    let active = report.active().count();
    let out = Value::obj([
        ("bench", "lint".into()),
        ("threads", threads.into()),
        ("available_parallelism", bench::available_parallelism().into()),
        ("files", report.files.into()),
        ("findings_total", report.findings.len().into()),
        ("findings_active", active.into()),
        ("findings_waived", (report.findings.len() - active).into()),
        ("json_bytes", seq_json.len().into()),
        ("byte_identical_across_thread_counts", true.into()),
        ("walk", bench::thread_timing(seq_secs, par_secs)),
    ]);
    bench::write_report("BENCH_lint.json", &out).expect("write BENCH_lint.json");
    eprintln!(
        "[done] lint {} files: {seq_secs:.4}s → {par_secs:.4}s on {threads} thread(s); \
         wrote BENCH_lint.json",
        report.files
    );
}
