#!/usr/bin/env bash
# Smoke test for CI: every workload at 1/16 size with one repetition
# (under 20 s after the build), then the schema check of BENCHMARK.json —
# names, units, directions, bounds, one-line `why`s and the contract's
# counts (8 workloads / 16 end-to-end / 128 per-layer at most).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
"$here/run.sh" --quick "$@"
"$here/run.sh" --schema
