#!/usr/bin/env bash
# Non-test Rust lines per crate: for every `src/**/*.rs` under crates/*
# and vendor/*, the lines above the file's first `#[cfg(test)]` — in
# total, and code only (blank lines and `//` comment lines, doc comments
# included, left out). The number ROADMAP's "refactors carry their own
# proof" asks a simplification PR to state, parent and change.
#
#   tools/loc.sh [ROOT]     ROOT defaults to the repository this script is in
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

printf '%-26s %7s %7s\n' crate lines code
sum_lines=0 sum_code=0
for crate in crates/*/ vendor/*/; do
    crate="${crate%/}"
    [[ -d "$crate/src" ]] || continue
    read -r lines code < <(
        find "$crate/src" -name '*.rs' -print0 | xargs -0 awk '
            FNR == 1 { in_tests = 0 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
            in_tests { next }
            { lines++ }
            !/^[[:space:]]*($|\/\/)/ { code++ }
            END { print lines + 0, code + 0 }
        '
    )
    printf '%-26s %7d %7d\n' "$crate" "$lines" "$code"
    sum_lines=$((sum_lines + lines)) sum_code=$((sum_code + code))
done
printf '%-26s %7d %7d\n' total "$sum_lines" "$sum_code"
