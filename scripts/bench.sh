#!/usr/bin/env bash
# Runs the engine-throughput and explorer-scaling benches and rewrites
# BENCH_throughput.json + BENCH_explore.json in one step, from the repo root:
#
#   scripts/bench.sh            # full sweep (n = 256 ... 1048576; criterion
#                               # covers the small sizes, the JSON the
#                               # full tail)
#   scripts/bench.sh --quick    # dense-grid sweep only (n <= 4096), skips
#                               # criterion: seconds, for smoke-testing
#                               # the harness. Writes to
#                               # target/ so the checked-in full-sweep JSON
#                               # is never clobbered by a partial run. See
#                               # docs/testing.md for measured runtimes.
#
# Extra flags are passed through to the tables binary (e.g. --jobs N).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    [[ "$arg" == "--quick" ]] && quick=1
done

throughput_json=BENCH_throughput.json
explore_json=BENCH_explore.json
if [[ "$quick" == 0 ]]; then
    cargo bench --offline -p ard-bench --bench throughput
    cargo bench --offline -p ard-bench --bench explore
else
    mkdir -p target
    throughput_json=target/BENCH_throughput.quick.json
    explore_json=target/BENCH_explore.quick.json
fi
cargo run --offline --release -p ard-bench --bin tables -- \
    --bench-throughput "$throughput_json" "$@"
cargo run --offline --release -p ard-bench --bin tables -- \
    --bench-explore "$explore_json" "$@"
