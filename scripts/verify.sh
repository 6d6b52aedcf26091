#!/usr/bin/env bash
# Tier-1 verification, from the repo root:
#
#   scripts/verify.sh
#
# Runs the build + test + lint gate from ROADMAP.md (with the tests of
# every workspace crate, not only the root package) and `cargo doc` with
# warnings denied (a dangling intra-doc link fails), then three seeded CLI
# smokes, each diffed against a pinned snapshot under scripts/ (regenerate
# one with --regen-chaos, --regen-byzantine or --regen-dpor after an
# intentional change and review the diff): chaos — one lossy discovery run
# per variant; byzantine — the explorer must find and shrink the planted
# equivocation bug, and a traitor + churn run must report its pinned
# guarantee-survival verdicts; dpor — the sleep-set-reduced DFS must find
# the violations the unreduced DFS finds. Then the n = 100,000
# round-loop-vs-FifoScheduler comparison, then benchmark/ci-smoke.sh:
# `benchmark/` is a Cargo workspace of its own, so nothing above compiles
# it, and its Cargo.lock is part of the freeze. Last, the checked-in
# BENCH_throughput.json must carry the keys scripts/bench.sh writes. The
# explorer's determinism, --jobs and --check-snapshots checks are cargo
# tests (`explore_*` in crates/cli/src/commands.rs). See docs/testing.md
# for the tiers.
#
# Everything here builds into target/. Cargo trusts file mtimes, so a
# target/ left over from other sources (an unmerged branch, files restored
# with old timestamps) can pass for fresh and the gate then runs a binary
# that is in no tree: `cargo clean` first when in doubt.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# --workspace: a bare `cargo test` at the root covers the umbrella package
# only and skips every crate-level suite (unit tests, set/payload oracles,
# netsim/graph/overlay props).
cargo test --workspace --offline -q
cargo clippy --workspace -- -D warnings
# Doc comments link to types by name; nothing above notices when a refactor
# deletes or renames one.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Chaos smoke: one seeded lossy/crashy run per variant, byte-compared
# against the pinned snapshot (everything is seeded, so the output is
# deterministic down to the metrics table).
chaos() {
    local variant
    for variant in oblivious bounded adhoc; do
        echo "=== chaos $variant ==="
        cargo run --offline --release -p ard-cli --bin ard -- \
            discover --topology random:n=16,extra=24,seed=4 --variant "$variant" \
            --scheduler random:11 --faults drop=0.1,dup=0.05,crash=1,seed=6
    done
}
snapshot=scripts/chaos-smoke.snapshot
if [[ "${1:-}" == "--regen-chaos" ]]; then
    chaos > "$snapshot"
    echo "verify: regenerated $snapshot — review the diff"
    exit 0
fi
if ! diff -u "$snapshot" <(chaos); then
    echo "verify: chaos smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-chaos" >&2
    exit 1
fi

# Byzantine smoke: the explorer, searching under a one-traitor
# equivocate-only plan, must find the planted second-leader election in
# the equiv fixture and ddmin-shrink it; a seeded two-traitor + churn
# discovery run must report the pinned guarantee-survival verdicts. Both
# are fully seeded, so the combined output is byte-compared against the
# pinned snapshot.
# The schedule lands in a file of this run's own (two gates on one host
# must not clobber each other); the snapshot carries the fixed name.
byz_out="$(mktemp "${TMPDIR:-/tmp}/ard-verify-equiv.XXXXXX")"
byzantine() {
    {
        echo "=== byzantine explore equiv:3 ==="
        cargo run --offline --release -p ard-cli --bin ard -- \
            explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate \
            --budget 64 --seed 0 --out "$byz_out"
        echo "=== byzantine discover ring:12 ==="
        cargo run --offline --release -p ard-cli --bin ard -- \
            discover --topology ring:12 --scheduler random:5 \
            --byzantine f=2,seed=7 --churn rate=0.2,seed=11
    } | sed "s|$byz_out|/tmp/ard-verify-equiv.schedule|g"
}
byz_snapshot=scripts/byzantine-smoke.snapshot
if [[ "${1:-}" == "--regen-byzantine" ]]; then
    byzantine > "$byz_snapshot"
    rm -f "$byz_out"
    echo "verify: regenerated $byz_snapshot — review the diff"
    exit 0
fi
byz_actual="$(byzantine)"
rm -f "$byz_out"
if ! grep -q "violation : forged endorsements elected 2 leaders" <<<"$byz_actual"; then
    echo "verify: byzantine smoke did not find the planted equivocation bug" >&2
    printf '%s\n' "$byz_actual" >&2
    exit 1
fi
if ! grep -q "shrunk    :" <<<"$byz_actual"; then
    echo "verify: byzantine smoke found the bug but did not shrink it" >&2
    printf '%s\n' "$byz_actual" >&2
    exit 1
fi
if ! diff -u "$byz_snapshot" <(printf '%s\n' "$byz_actual"); then
    echo "verify: byzantine smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-byzantine" >&2
    exit 1
fi

# DPOR smoke: a pure-DFS search (--walks 0) under sleep-set reduction
# must find the planted race and the planted equivocation, report
# non-trivial pruning on the racy fixture, and print the very same
# violation line the unreduced DFS prints — reduction prunes redundant
# interleavings, never the witnesses. The reduced output is fully seeded,
# so it is byte-compared against the pinned snapshot.
dpor_out="$(mktemp "${TMPDIR:-/tmp}/ard-verify-dpor.XXXXXX")"
dpor_racy=(cargo run --offline --release -p ard-cli --bin ard -- \
    explore --system racy:3 --budget 64 --walks 0 --depth 7 --seed 0 \
    --stats --out "$dpor_out")
dpor_equiv=(cargo run --offline --release -p ard-cli --bin ard -- \
    explore --system equiv:3 --byzantine f=1,seed=3,class=equivocate \
    --budget 64 --walks 0 --depth 4 --seed 0 --stats --out "$dpor_out")
dpor_reduced() {
    {
        echo "=== dpor explore racy:3 (reduced) ==="
        "${dpor_racy[@]}" --reduce
        echo "=== dpor explore equiv:3 (reduced) ==="
        "${dpor_equiv[@]}" --reduce
    } | sed "s|$dpor_out|/tmp/ard-verify-dpor.schedule|g"
}
dpor_snapshot=scripts/dpor-smoke.snapshot
if [[ "${1:-}" == "--regen-dpor" ]]; then
    dpor_reduced > "$dpor_snapshot"
    rm -f "$dpor_out"
    echo "verify: regenerated $dpor_snapshot — review the diff"
    exit 0
fi
dpor_actual="$(dpor_reduced)"
if ! grep -Eq "reduction : mode=sleep, sleep-pruned=[1-9]" <<<"$dpor_actual"; then
    echo "verify: dpor smoke pruned nothing on the racy fixture:" >&2
    printf '%s\n' "$dpor_actual" >&2
    exit 1
fi
for full in "$("${dpor_racy[@]}")" "$("${dpor_equiv[@]}")"; do
    line="$(grep '^violation :' <<<"$full" || true)"
    if [[ -z "$line" ]]; then
        echo "verify: an unreduced dpor-smoke run found no violation:" >&2
        printf '%s\n' "$full" >&2
        exit 1
    fi
    if ! grep -qF "$line" <<<"$dpor_actual"; then
        echo "verify: reduced search missed the violation the full search found:" >&2
        printf 'full:    %s\n' "$line" >&2
        printf 'reduced output:\n%s\n' "$dpor_actual" >&2
        exit 1
    fi
done
rm -f "$dpor_out"
if ! diff -u "$dpor_snapshot" <(printf '%s\n' "$dpor_actual"); then
    echo "verify: dpor smoke diverged from the pinned snapshot" >&2
    echo "verify: if intentional, regenerate with scripts/verify.sh --regen-dpor" >&2
    exit 1
fi

# Large-n smoke: a 10⁵-node discovery must complete inside a capped step
# budget, and the fifo round loop must agree with the FifoScheduler run on
# steps, leaders, metrics (value and text) and the terminal state digest.
cargo test --release --offline --test round_fifo -- --ignored

# The frozen benchmark crate: outside the workspace, so only this step
# notices a public-API change that stops it compiling, or a workload whose
# checks (requirements, budgets, cross-engine digests) stop passing. Its
# lock file is frozen with it: cargo rewrites it when a crate reachable
# from `ard-cli` gains or drops a dependency, and the benchmark driver
# must not build against a graph nobody reviewed.
lock_before="$(cksum < benchmark/Cargo.lock)"
benchmark/ci-smoke.sh > /dev/null
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

echo "verify: OK (workspace tests, clippy and docs clean; chaos, byzantine and dpor smokes match their snapshots; n=100000 round loop equals the FifoScheduler run; benchmark/ci-smoke.sh green with benchmark/Cargo.lock untouched; bench JSON schema ok)"
