#!/usr/bin/env bash
# Tier-1 verification, from the repo root:
#
#   scripts/verify.sh
#
# Runs the build + test + lint gate from ROADMAP.md (with the tests of
# every workspace crate, not only the root package) and `cargo doc` with
# warnings denied (a dangling intra-doc link fails). Then the n = 100,000
# round-loop-vs-FifoScheduler comparison and the full-size (n = 16,384)
# record -> strict replay under the faulty-16k plan, then
# benchmark/ci-smoke.sh:
# `benchmark/` is a Cargo workspace of its own, so nothing above compiles
# it, and its Cargo.lock is part of the freeze. Last, the checked-in
# BENCH_throughput.json must carry the keys scripts/bench.sh writes. The
# seeded CLI smokes (chaos, byzantine, dpor, discover, cli-surface:
# tests/cli_snapshots.rs against tests/snapshots/) and the explorer's
# determinism, --jobs and --check-snapshots checks (`explore_*` in
# crates/cli/src/commands.rs) are cargo tests. See docs/testing.md for the
# tiers.
#
# Everything here builds into target/. Cargo trusts file mtimes, so a
# target/ left over from other sources (an unmerged branch, files restored
# with old timestamps) can pass for fresh and the gate then runs a binary
# that is in no tree: `cargo clean` first when in doubt.
#
# Each step prints its wall seconds (bash SECONDS) to stderr when it
# finishes, and the last line gives the total.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    local start=$SECONDS
    "$@"
    echo "verify: $((SECONDS - start)) s  $*" >&2
}

step cargo build --release
# --workspace: a bare `cargo test` at the root covers the umbrella package
# only and skips every crate-level suite (unit tests, set/payload oracles,
# netsim/graph/overlay props).
step cargo test --workspace --offline -q
# --all-targets: every crate's unit and integration tests, the examples and
# the `tables` and `ard` binaries are linted with the libraries.
step cargo clippy --workspace --all-targets -- -D warnings
# Doc comments link to types by name; nothing above notices when a refactor
# deletes or renames one.
RUSTDOCFLAGS="-D warnings" step cargo doc --workspace --no-deps --offline

# Large-n smoke: a 10⁵-node discovery must complete inside a capped step
# budget, and the fifo round loop must agree with the FifoScheduler run on
# steps, leaders, metrics (value and text) and the terminal state digest.
step cargo test --release --offline --test round_fifo -- --ignored

# Full-size record -> strict replay: 1.37 M choices recorded under the
# faulty-16k plan must all replay, leave no token pending and reproduce
# the outcome.
step cargo test --release --offline --test faulty_replay -- --ignored

# The frozen benchmark crate: outside the workspace, so only this step
# notices a public-API change that stops it compiling, or a workload whose
# checks (requirements, budgets, cross-engine digests) stop passing. Its
# lock file is frozen with it: cargo rewrites it when a crate reachable
# from `ard-cli` gains or drops a dependency, and the benchmark driver
# must not build against a graph nobody reviewed.
lock_before="$(cksum < benchmark/Cargo.lock)"
step benchmark/ci-smoke.sh > /dev/null
if [[ "$(cksum < benchmark/Cargo.lock)" != "$lock_before" ]]; then
    echo "verify: benchmark/ci-smoke.sh rewrote benchmark/Cargo.lock" >&2
    echo "verify: a crate under ard-cli changed its dependency list; restore it (git checkout benchmark/Cargo.lock)" >&2
    exit 1
fi

# Checked-in bench artifact schema: the throughput JSON must carry the
# payload metrics that scripts/bench.sh writes (a stale artifact means the
# sweep was not regenerated).
for key in '"payload_bytes_per_event"' '"payload_peak_bytes"'; do
    if ! grep -q "$key" BENCH_throughput.json; then
        echo "verify: BENCH_throughput.json is missing the $key key" >&2
        echo "verify: regenerate it with scripts/bench.sh" >&2
        exit 1
    fi
done

echo "verify: $SECONDS s in all" >&2
echo "verify: OK (workspace tests, clippy and docs clean; n=100000 round loop equals the FifoScheduler run; n=16384 faulty recording replays strictly; benchmark/ci-smoke.sh green with benchmark/Cargo.lock untouched; bench JSON schema ok)"
