#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload — the
# measurement behind every performance claim in this repo (ROADMAP "Open
# items", docs/perf.md "Ground rules"), from the root of the checkout that
# holds the change:
#
#   scripts/pairs.sh PARENT_CHECKOUT WORKLOAD[,WORKLOAD...] [PAIRS=10] [SEED=1]
#
# PARENT_CHECKOUT is a second checkout at the parent commit (`git clone` or
# `git archive`; the frozen benchmark/ is the same on both sides). Each
# side's benchmark/ is built into its own fresh CARGO_TARGET_DIR — never a
# reused target/: cargo's mtime fingerprints can accept another build's
# artifacts as fresh, and the binary then measures code that is not in
# either tree. Every pair runs `benchmark/run.sh --workload W --seed SEED
# --seconds S --trace 0` (S = BENCHMARK.json's run_seconds) once per side,
# alternating which side goes first.
#
# Per end-to-end metric it prints both medians with their quartiles, the
# change relative to the parent median, in how many pairs the change read
# better (ties count for neither), and whether the medians differ by more
# than the parent's interquartile range; then whether the three simulated
# counts (msgs_per_node, bits_per_node, causal_depth) were equal to the
# last digit in every pair and whether any operation failed. A gain is
# claimed only at wins >= 9/10 of the pairs with the medians apart by more
# than the IQR; "no regression" is the median within the metric's bound.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '2,8p' "$0" >&2
    exit 1
fi
change="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workloads="$2"
pairs="${3:-10}"
seed="${4:-1}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")"

work="$(mktemp -d "${TMPDIR:-/tmp}/ard-pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# One run: the result object is the last line of standard output.
run() { # side checkout workload
    (cd "$2" && CARGO_TARGET_DIR="$work/target-$1" benchmark/run.sh \
        --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$work/build.log" | tail -n 1)
}

echo "pairs: building both sides into $work (log: build.log there)" >&2
for workload in ${workloads//,/ }; do
    : > "$work/parent.jsonl"
    : > "$work/change.jsonl"
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$parent" "$workload" >> "$work/parent.jsonl"
            run change "$change" "$workload" >> "$work/change.jsonl"
        else
            run change "$change" "$workload" >> "$work/change.jsonl"
            run parent "$parent" "$workload" >> "$work/parent.jsonl"
        fi
        echo "pairs: $workload pair $((i + 1))/$pairs done" >&2
    done
    python3 - "$workload" "$seed" "$change/BENCHMARK.json" "$work/parent.jsonl" "$work/change.jsonl" <<'EOF'
import json, statistics, sys

workload, seed, spec, parent_path, change_path = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
parent = [json.loads(line) for line in open(parent_path)]
change = [json.loads(line) for line in open(change_path)]
counts = ("msgs_per_node", "bits_per_node", "causal_depth")

def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print(f"== {workload}, seed {seed}, {len(parent)} pairs")
print(f"{'metric':<18}{'parent median [q1, q3]':>42}{'change median [q1, q3]':>42}"
      f"{'change':>9}{'wins':>7}  > parent IQR")
for name in parent[0]["metrics"]:
    if name in counts:
        continue
    p, c = values(parent, name), values(change, name)
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    lower = better[name] == "lower"
    wins = sum((y < x) if lower else (y > x) for x, y in zip(p, c))
    apart = abs(cm - pm) > pq3 - pq1
    rel = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
    cell = lambda m, a, b: f"{m:.6g} [{a:.6g}, {b:.6g}]"
    print(f"{name:<18}{cell(pm, pq1, pq3):>42}{cell(cm, cq1, cq3):>42}"
          f"{rel:>9}{wins:>4}/{len(p):<2}  {'yes' if apart else 'no'}")
for name in counts:
    p, c = values(parent, name), values(change, name)
    same = len(set(p + c)) == 1
    print(f"{name:<18}{'equal to the last digit: ' + repr(p[0]) if same else 'DIFFER: ' + repr(sorted(set(p + c)))}")
failed = lambda runs: sum(r["failed"] for r in runs)
wrong = sum(not r["correct"] for r in parent + change)
print(f"failed operations: parent {failed(parent)}, change {failed(change)}; runs not correct: {wrong}")
EOF
done
