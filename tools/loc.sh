#!/usr/bin/env bash
# Non-test Rust lines per crate: for every `src/**/*.rs` under crates/*
# and vendor/*, the lines above the file's test module (the first
# `#[cfg(test)]` directly followed by a `mod` item; a `#[cfg(test)]` on a
# test-only accessor does not end the count) — in total, code only (blank
# lines and `//` comment lines, doc comments included, left out), and
# lines containing the word `unsafe` (not the `unsafe_code` of a lint
# attribute), the surface ROADMAP direction 3 has to model-check. Then
# the test code, counted the same way: the in-file test modules the
# first table skips, the integration suites under `tests/`, and those
# under `crates/*/tests/`. The numbers ROADMAP's "refactors carry their
# own proof" asks a simplification PR to state, parent and change.
#
#   tools/loc.sh [ROOT]     ROOT defaults to the repository this script is in
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
cd "$root"

# Prints `lines code unsafe test_lines test_code` for the files on stdin
# (NUL-separated); with `-v all_test=1` every line is test code.
count() {
    xargs -0 -r awk -v all_test="${1:-0}" '
        function tally(is_test) {
            if (is_test) { tlines++; if (!/^[[:space:]]*($|\/\/)/) tcode++; return }
            lines++
            if (!/^[[:space:]]*($|\/\/)/) code++
            if (/(^|[^[:alnum:]_])unsafe([^[:alnum:]_]|$)/) unsafe++
        }
        FNR == 1 { in_tests = all_test; after_cfg = 0 }
        in_tests { tally(1); next }
        after_cfg && /^[[:space:]]*(pub(\([a-z]+\))? )?mod[[:space:]]/ {
            # Move the attribute line over to the test count.
            lines--; code--; tlines++; tcode++; in_tests = 1; tally(1); next
        }
        { after_cfg = /^[[:space:]]*#\[cfg\(test\)\]/ }
        { tally(0) }
        END { print lines + 0, code + 0, unsafe + 0, tlines + 0, tcode + 0 }
    '
}

printf '%-26s %7s %7s %7s\n' crate lines code unsafe
sum_lines=0 sum_code=0 sum_unsafe=0 mod_lines=0 mod_code=0
for crate in crates/*/ vendor/*/; do
    crate="${crate%/}"
    [[ -d "$crate/src" ]] || continue
    read -r lines code unsafe tlines tcode < <(find "$crate/src" -name '*.rs' -print0 | count)
    printf '%-26s %7d %7d %7d\n' "$crate" "$lines" "$code" "$unsafe"
    sum_lines=$((sum_lines + lines)) sum_code=$((sum_code + code))
    sum_unsafe=$((sum_unsafe + unsafe))
    mod_lines=$((mod_lines + tlines)) mod_code=$((mod_code + tcode))
done
printf '%-26s %7d %7d %7d\n' total "$sum_lines" "$sum_code" "$sum_unsafe"

echo
printf '%-26s %7s %7s\n' 'test code' lines code
printf '%-26s %7d %7d\n' 'in-file test modules' "$mod_lines" "$mod_code"
test_lines=$mod_lines test_code=$mod_code
shopt -s nullglob
for suite in 'tests/*.rs' 'crates/*/tests/*.rs'; do
    # Unquoted on purpose: the glob expands here, one directory level.
    # shellcheck disable=SC2086
    read -r _ _ _ tlines tcode < <(printf '%s\0' $suite | count 1)
    printf '%-26s %7d %7d\n' "$suite" "$tlines" "$tcode"
    test_lines=$((test_lines + tlines)) test_code=$((test_code + tcode))
done
printf '%-26s %7d %7d\n' total "$test_lines" "$test_code"
