#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package (offline, with
# its own manifest — the root workspace never sees it) and runs it.
#
#   benchmark/run.sh                       every workload once, end to end: prints every
#                                          metric by name with its unit, checks the answers,
#                                          writes benchmark/out/set-<time>.json, exits
#                                          non-zero on any failed check
#   benchmark/run.sh --runs N [--seed S]   N runs per workload (seeds S..S+N-1), one set file
#   benchmark/run.sh --trace               the traced run of every workload: per-layer
#                                          metrics, spans in benchmark/out/trace-<workload>.jsonl
#   benchmark/run.sh --layers              the layer panel alone (isolated cells)
#   benchmark/run.sh --quick               sizes / 16, about a second per workload; checks
#                                          on, timings not comparable with full runs
#   benchmark/run.sh --compare A.json B.json
#                                          apply each metric's bound, one row per
#                                          metric x workload; exit 1 on a regression,
#                                          3 when rows are only unresolved
#   benchmark/run.sh --spec                print BENCHMARK.json as the code defines it
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                          one run; the last stdout line is the result
#                                          object (correct, attempted, failed, metrics)
#
# Other flags: --workload W (with a set: only that workload), --seconds T,
# --out FILE, --out-dir DIR (default benchmark/out).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr so stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2

export DTRACK_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export DTRACK_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
bin="$target/release/dtrack-benchmark"

case "${1:-}" in
    --compare) shift; exec "$bin" compare "$@" ;;
    --layers)  shift; exec "$bin" layers "$@" ;;
    --spec)    exec "$bin" spec ;;
esac

# The driver's form — a workload and `--trace 0|1` — is one run; anything
# else is a set of runs (where `--trace` is a bare flag).
mode=set prev="" has_workload=""
for arg in "$@"; do
    [[ "$arg" == "--workload" ]] && has_workload=1
    [[ "$prev" == "--trace" && ( "$arg" == "0" || "$arg" == "1" ) ]] && mode=run
    prev="$arg"
done
[[ -z "$has_workload" ]] && mode=set
exec "$bin" "$mode" --out-dir "$here/out" "$@"
