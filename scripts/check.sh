#!/usr/bin/env bash
# Full local verification gate — what CI and ROADMAP.md's tier-1 check run.
#
#   scripts/check.sh          # fmt check + lint + release builds + tests
#
# The root suite runs twice: once strictly sequentially (UOF_THREADS=1)
# and once at the default thread count, so a scheduling-dependent
# regression in the parallel pipeline cannot hide behind either
# configuration. Cache, index, telemetry and deployment shape are not
# swept through the environment: `tests/config_matrix.rs` builds every
# combination as an explicit config and checks that each answers byte for
# byte like the reference node. The per-crate sweeps below run suites the
# root `cargo test` does not reach: the reach kernel (`fbsim-population`,
# including its row-at-a-time oracle), the whole `reach-api` suite (unit
# tests plus lifecycle, loopback, proptests — the wire codec's differential
# check against serde_json — router and telemetry), the vendored
# `serde_json` parser's own tests (outside the workspace), and the
# marketplace. The last step builds and tests the repository benchmark
# (`perfbench/`, its own workspace), so a change that breaks its build or
# its `correct` check fails here.
#
# Each step fails fast; run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> xtask lint"
cargo run -q -p xtask -- lint

echo "==> xtask lint --format json (round-trip check)"
LINT_JSON="$(mktemp)"
trap 'rm -f "$LINT_JSON"' EXIT
cargo run -q -p xtask -- lint --format json > "$LINT_JSON"
cargo run -q -p xtask -- check-json "$LINT_JSON"

echo "==> xtask lint --waivers (budget check)"
cargo run -q -p xtask -- lint --waivers

echo "==> cargo build --release"
cargo build --release

# The root build covers only the root package; the bench bins (loadgen,
# bench_telemetry, ...) drive the reach client too, so build them here.
echo "==> cargo build --release -p bench"
cargo build --release -p bench

echo "==> cargo test -q (UOF_THREADS=1, strictly sequential)"
UOF_THREADS=1 cargo test -q

echo "==> cargo test -q (default thread count)"
cargo test -q

echo "==> reach-kernel sweep (fbsim-population suite incl. the row-oracle proptest, UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p fbsim-population
cargo test -q -p fbsim-population

echo "==> reach-api sweep (wire codec, server, client, router; UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p reach-api
cargo test -q -p reach-api

echo "==> vendored serde_json parser (depth cap, linear-time strings)"
cargo test -q --offline --manifest-path vendor/serde_json/Cargo.toml

echo "==> marketplace smoke sweep (auction/pacing determinism + zero-competition bit-identity, UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p fbsim-marketplace
UOF_THREADS=1 cargo test -q --test marketplace_equivalence
cargo test -q -p fbsim-marketplace
cargo test -q --test marketplace_equivalence

echo "==> perfbench build + smoke test (every workload at test scale, traced and untraced)"
# Building perfbench refreshes a stale entry in its own lockfile; put the
# committed one back, so the gate leaves the benchmark's files as it found
# them.
PERFBENCH_LOCK="$(mktemp)"
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
trap 'cp "$PERFBENCH_LOCK" perfbench/Cargo.lock; rm -f "$LINT_JSON" "$PERFBENCH_LOCK"' EXIT
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> all checks passed"
