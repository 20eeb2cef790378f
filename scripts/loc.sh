#!/usr/bin/env bash
# Prints non-test lines of code for the core, transport and sim crates,
# then for `crates/core/src/gossip.rs` alone (the admission file the
# ROADMAP's size target names).
#
# Convention: for every `src/**/*.rs` file, count the lines before the
# file's first `#[cfg(test)]` (the whole file when it has none). Blank
# lines and comments count; `tests/`, `benches/` and `examples/` do not.
#
# Usage: scripts/loc.sh            (run from anywhere inside the repo)
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

non_test_lines() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

for crate in core transport sim; do
    total=0
    while IFS= read -r file; do
        total=$((total + $(non_test_lines "$file")))
    done < <(find "$root/crates/$crate/src" -name '*.rs' | sort)
    printf '%-10s %6d\n' "$crate" "$total"
done
printf '%-10s %6d\n' "gossip.rs" "$(non_test_lines "$root/crates/core/src/gossip.rs")"
