#!/usr/bin/env bash
# Full local verification gate — what CI and ROADMAP.md's tier-1 check run.
#
#   scripts/check.sh          # fmt + clippy + lint + release builds + tests
#
# The workspace's `default-members` are the root package and every crate,
# so the root `cargo test` runs every workspace suite: the reach kernel
# and its row-at-a-time oracle, the whole `reach-api` suite (with the wire
# codec's differential proptests against serde_json over serde-derived
# mirrors of the wire types), the marketplace and the root integration
# tests. It runs twice: once strictly sequentially
# (UOF_THREADS=1) and once at the default thread count, so a
# scheduling-dependent regression in the parallel pipeline cannot hide
# behind either configuration. Cache, index, telemetry and deployment
# shape are not swept through the environment: `tests/config_matrix.rs`
# builds every combination as an explicit config and checks that each
# answers byte for byte like the reference node. The vendored
# `serde_json` crate sits outside the workspace, so its own tests run in a
# step of their own. The last step builds and tests the repository
# benchmark (`perfbench/`, its own workspace), so a change that breaks its
# build or its `correct` check fails here.
#
# Each step fails fast; run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (every workspace target, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> serde stays a test-only dependency"
# serde, serde_derive and serde_json are the wire codec's test oracle: no
# workspace crate may build them into a non-test target.
if cargo tree --offline -e normal --workspace --prefix none | grep -E '^serde'; then
    echo "a workspace crate has a normal dependency on serde; make it a dev-dependency" >&2
    exit 1
fi

echo "==> xtask lint"
cargo run -q -p xtask -- lint

echo "==> xtask lint --format json (round-trip check)"
LINT_JSON="$(mktemp)"
trap 'rm -f "$LINT_JSON"' EXIT
cargo run -q -p xtask -- lint --format json > "$LINT_JSON"
cargo run -q -p xtask -- check-json "$LINT_JSON"

echo "==> xtask lint --waivers (budget check)"
cargo run -q -p xtask -- lint --waivers

# Builds every workspace crate, the bench bins (loadgen, bench_telemetry,
# ...) that drive the reach client included.
echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (UOF_THREADS=1, strictly sequential)"
UOF_THREADS=1 cargo test -q

echo "==> cargo test -q (default thread count)"
cargo test -q

echo "==> vendored serde_json parser (depth cap, linear-time strings)"
cargo test -q --offline --manifest-path vendor/serde_json/Cargo.toml

echo "==> perfbench build + smoke test (every workload at test scale, traced and untraced)"
# Building perfbench refreshes a stale entry in its own lockfile; put the
# committed one back, so the gate leaves the benchmark's files as it found
# them.
PERFBENCH_LOCK="$(mktemp)"
cp perfbench/Cargo.lock "$PERFBENCH_LOCK"
trap 'cp "$PERFBENCH_LOCK" perfbench/Cargo.lock; rm -f "$LINT_JSON" "$PERFBENCH_LOCK"' EXIT
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> all checks passed"
