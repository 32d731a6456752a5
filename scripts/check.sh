#!/usr/bin/env bash
# Full local verification gate — what CI and ROADMAP.md's tier-1 check run.
#
#   scripts/check.sh          # fmt check + lint + release builds + tests
#
# Tests run five times: once strictly sequentially (UOF_THREADS=1), once
# at the default thread count — so a scheduling-dependent regression in the
# parallel pipeline cannot hide behind either configuration — once with
# the reach query cache disabled (UOF_REACH_CACHE=0), so nothing silently
# depends on cached answers, once with telemetry recording enabled
# (UOF_TELEMETRY=1), so instrumentation can never perturb an output, and
# once with the posting-list index enabled (UOF_REACH_INDEX=1), so the
# sampled-count path cannot perturb the float oracle. Tests that assert
# cache, telemetry, or index behaviour construct explicit configs and are
# immune to the sweeps. The per-crate sweeps below run suites the root
# `cargo test` does not reach: the reach kernel (`fbsim-population`,
# including its row-at-a-time oracle), the whole `reach-api` suite (unit
# tests plus lifecycle, loopback, proptests — the wire codec's differential
# check against serde_json — router and telemetry), the vendored
# `serde_json` parser's own tests (outside the workspace), and the
# marketplace.
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

echo "==> cargo test -q (UOF_REACH_CACHE=0, query cache disabled)"
UOF_REACH_CACHE=0 cargo test -q

echo "==> cargo test -q (UOF_TELEMETRY=1, telemetry recording enabled)"
UOF_TELEMETRY=1 cargo test -q

echo "==> cargo test -q (UOF_REACH_INDEX=1, posting-list index enabled)"
UOF_REACH_INDEX=1 cargo test -q

echo "==> reach-kernel sweep (fbsim-population suite incl. the row-oracle proptest, UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p fbsim-population
cargo test -q -p fbsim-population

echo "==> reach-api sweep (wire codec, server, client, router; UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p reach-api
cargo test -q -p reach-api

echo "==> vendored serde_json parser (depth cap, linear-time strings)"
cargo test -q --offline --manifest-path vendor/serde_json/Cargo.toml

echo "==> traced smoke sweep (UOF_TELEMETRY=1 + trace path; trace-report must reconstruct >= 1 complete trace)"
TRACE_JSONL="$(mktemp)"
UOF_TELEMETRY=1 UOF_TELEMETRY_TRACE_PATH="$TRACE_JSONL" cargo test -q -p reach-api --test loopback
cargo run -q -p xtask -- trace-report "$TRACE_JSONL" --min-complete 1 > /dev/null
rm -f "$TRACE_JSONL"

echo "==> marketplace smoke sweep (auction/pacing determinism + zero-competition bit-identity, UOF_THREADS=1 and default)"
UOF_THREADS=1 cargo test -q -p fbsim-marketplace
UOF_THREADS=1 cargo test -q --test marketplace_equivalence
cargo test -q -p fbsim-marketplace
cargo test -q --test marketplace_equivalence

echo "==> all checks passed"
