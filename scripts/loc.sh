#!/usr/bin/env bash
# Non-test lines of the workspace's Rust source, per file, per crate and in
# total, from the repo root:
#
#   scripts/loc.sh                                  # every crate under crates/
#   scripts/loc.sh crates/core crates/netsim crates/cli
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`,
# or the whole file when it has none; blank lines and comments count. This
# is the one count simplicity changes quote, parent -> change.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- crates/*
fi
for dir in "$@"; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    find "$dir/src" -name '*.rs' | sort | while read -r file; do
        printf '%s\t%s\n' "$name" "$file"
    done
done | awk -F '\t' '
    function commas(x,   s) {
        s = sprintf("%d", x)
        while (s ~ /[0-9][0-9][0-9][0-9]/) sub(/[0-9][0-9][0-9]($|,)/, ",&", s)
        return s
    }
    function flush() {
        if (crate != "") printf "%9s  %s\n\n", commas(crate_total), crate
    }
    {
        lines = 0
        while ((getline line < $2) > 0) {
            if (line ~ /#\[cfg\(test\)\]/) break
            lines++
        }
        close($2)
        if ($1 != crate) { flush(); crate = $1; crate_total = 0 }
        printf "%9s  %s\n", commas(lines), $2
        crate_total += lines
        total += lines
    }
    END { flush(); printf "%9s  total\n", commas(total) }
'
