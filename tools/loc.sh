#!/usr/bin/env bash
# Non-test Rust lines per crate: for every `src/**/*.rs` under crates/*
# and vendor/*, the lines above the file's test module (the first
# `#[cfg(test)]` directly followed by a `mod` item; a `#[cfg(test)]` on a
# test-only accessor does not end the count) — in total, code only (blank
# lines and `//` comment lines, doc comments included, left out), and
# lines containing the word `unsafe` (not the `unsafe_code` of a lint
# attribute), the surface ROADMAP direction 3 has to model-check. The
# numbers ROADMAP's "refactors carry their own proof"
# asks a simplification PR to state, parent and change.
#
#   tools/loc.sh [ROOT]     ROOT defaults to the repository this script is in
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

printf '%-26s %7s %7s %7s\n' crate lines code unsafe
sum_lines=0 sum_code=0 sum_unsafe=0
for crate in crates/*/ vendor/*/; do
    crate="${crate%/}"
    [[ -d "$crate/src" ]] || continue
    read -r lines code unsafe < <(
        find "$crate/src" -name '*.rs' -print0 | xargs -0 awk '
            FNR == 1 { in_tests = 0; after_cfg = 0 }
            in_tests { next }
            after_cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod[[:space:]]/ {
                lines--; code--; in_tests = 1; next  # un-count the attribute
            }
            { after_cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
            { lines++ }
            !/^[[:space:]]*($|\/\/)/ { code++ }
            /(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/ { unsafe++ }
            END { print lines + 0, code + 0, unsafe + 0 }
        '
    )
    printf '%-26s %7d %7d %7d\n' "$crate" "$lines" "$code" "$unsafe"
    sum_lines=$((sum_lines + lines)) sum_code=$((sum_code + code))
    sum_unsafe=$((sum_unsafe + unsafe))
done
printf '%-26s %7d %7d %7d\n' total "$sum_lines" "$sum_code" "$sum_unsafe"
