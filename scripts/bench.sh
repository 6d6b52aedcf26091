#!/usr/bin/env bash
# Runs the engine-throughput bench and rewrites BENCH_throughput.json, from
# the repo root:
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
# Explorer scaling is measured by benchmark/run.sh (netsim.explore.*).
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    [[ "$arg" == "--quick" ]] && quick=1
done

throughput_json=BENCH_throughput.json
if [[ "$quick" == 0 ]]; then
    cargo bench --offline -p ard-bench --bench throughput
else
    mkdir -p target
    throughput_json=target/BENCH_throughput.quick.json
fi
cargo run --offline --release -p ard-bench --bin tables -- \
    --bench-throughput "$throughput_json" "$@"
