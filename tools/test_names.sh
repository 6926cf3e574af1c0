#!/usr/bin/env bash
# Every workspace test name, from `cargo test -- --list`: unit tests,
# integration suites and doctests, ignored ones included. One line per
# test, `TARGET::NAME`, sorted, then the count. TARGET is the test
# binary's name without its hash (`dtrack_sim`, `exec_equivalence`) or
# `doc` for a doctest; a doctest's `(line N)` is dropped, so editing the
# text above one does not rename it. Run it on a `git clone` of the
# parent and on the change, and `diff` the two: a line only the parent
# has is a test the change lost — the "test floor" ROADMAP names. A test
# removed or renamed on purpose is listed, with its reason, in
# tools/tests_removed.json.
#
#   tools/test_names.sh [ROOT]     ROOT defaults to the repository this script is in
#
# It builds the test targets (debug) first; set CARGO_TARGET_DIR to keep
# two checkouts from sharing one build directory.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

# Cargo reports the binary it is about to list on stderr and the list on
# stdout; 2>&1 keeps the two in order.
names=$(cargo test --workspace --offline -- --list 2>&1 | awk '
    /^[[:space:]]+Running / {
        bin = $NF; sub(/\)$/, "", bin); sub(/.*\//, "", bin); sub(/-[0-9a-f]+$/, "", bin)
        target = bin; next
    }
    /^[[:space:]]+Doc-tests / { target = "doc"; next }
    /: test$/ {
        name = $0; sub(/: test$/, "", name); sub(/ \(line [0-9]+\)$/, "", name)
        print target "::" name
    }
' | LC_ALL=C sort)

printf '%s\n' "$names"
printf '%s\n' "$names" | grep -c . || true
