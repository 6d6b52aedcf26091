#!/usr/bin/env bash
# Runs the engine-throughput sweep and rewrites BENCH_throughput.json, from
# the repo root:
#
#   scripts/bench.sh            # full sweep (n = 256 ... 1048576)
#   scripts/bench.sh --quick    # dense-grid sweep only (n <= 4096):
#                               # seconds, for smoke-testing the harness.
#                               # Writes to target/ so the checked-in
#                               # full-sweep JSON is never clobbered by a
#                               # partial run. See docs/testing.md for
#                               # measured runtimes.
#
# Extra flags are passed through to the tables binary (e.g. --jobs N).
# The repo's end-to-end and per-layer benchmark is benchmark/run.sh; its
# explorer scaling is netsim.explore.*.
set -euo pipefail
cd "$(dirname "$0")/.."

throughput_json=BENCH_throughput.json
for arg in "$@"; do
    if [[ "$arg" == "--quick" ]]; then
        mkdir -p target
        throughput_json=target/BENCH_throughput.quick.json
    fi
done
cargo run --offline --release -p ard-bench --bin tables -- \
    --bench-throughput "$throughput_json" "$@"
