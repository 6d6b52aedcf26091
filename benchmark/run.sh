#!/usr/bin/env bash
# The benchmark's one command. Builds the standalone benchmark crate
# (release, offline) and runs it; see README.md.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload — the benchmark contract's call; the last
#       line of standard output is the result object
#   benchmark/run.sh [--seed S] [--quick] [--workload NAME] [--out PATH]
#       every workload, untraced and traced; prints every metric by name
#       with its unit and writes the result document
#   benchmark/run.sh --self-check [--seed S] [--quick]
#       the full set twice, then `compare` of the two documents
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --schema            checks BENCHMARK.json
#   benchmark/run.sh --catalogue         prints the BENCHMARK.json the code implies
set -euo pipefail

# Run from the checkout root whatever the caller's directory: relative
# paths (CARGO_TARGET_DIR, BENCHMARK.json, the CLI's output) resolve there.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

# Build output goes to stderr: stdout is the benchmark's own.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/ard-benchmark"

has() {
    local want="$1"
    shift
    for arg in "$@"; do
        [[ "$arg" == "$want" ]] && return 0
    done
    return 1
}

# Drops the first occurrence of a bare flag from the argument list.
without() {
    local drop="$1"
    shift
    rest=()
    for arg in "$@"; do
        if [[ "$arg" == "$drop" && -n "$drop" ]]; then
            drop=""
        else
            rest+=("$arg")
        fi
    done
}

if has --compare "$@"; then
    without --compare "$@"
    exec "$bin" compare "${rest[@]}"
elif has --schema "$@"; then
    exec "$bin" schema BENCHMARK.json
elif has --catalogue "$@"; then
    exec "$bin" catalogue
elif has --self-check "$@"; then
    without --self-check "$@"
    out="$CARGO_TARGET_DIR/results"
    "$bin" all "${rest[@]}" --out "$out/self-check-a.json"
    "$bin" all "${rest[@]}" --out "$out/self-check-b.json"
    exec "$bin" compare "$out/self-check-a.json" "$out/self-check-b.json"
elif has --trace "$@"; then
    exec "$bin" run "$@"
else
    exec "$bin" all "$@"
fi
