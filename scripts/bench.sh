#!/bin/sh
# scripts/bench.sh — run the perf-trajectory benchmark set and write a
# machine-readable snapshot.
#
# Usage:
#   scripts/bench.sh [OUTPUT.json]       # default: BENCH_<yyyymmdd>.json
#
# Environment overrides:
#   BENCH_PKGS     packages to benchmark (default: the protocol hot path —
#                  including the DriftRepair local-vs-full pair at 10k and
#                  100k nodes — the trace recorder, the grid k-search and
#                  cell lookup, the tree delay pass, the multi-group
#                  substrate, the flight recorder, and the in-cell
#                  Bisection: the surfaces the tracing layer, the analytic
#                  rebuild path, the kinetic repair loop, the metrics phase
#                  of every build, the shared-substrate overhead, the
#                  per-round sampling cost and every build's wiring must
#                  not slow down; the default set also runs the
#                  root package's end-to-end BenchmarkTable1, BenchmarkFig8
#                  and BenchmarkBuildND builds, 2-D, 3-D and d-D, and only
#                  those root benchmarks, as the other figure ones are slow)
#   BENCH_PATTERN  -bench regexp (default: all benchmarks in BENCH_PKGS)
#   BENCH_COUNT    -count repetitions (default 1; use 5+ for a decision)
#
# The snapshot is a JSON array of {name, ns_per_op, allocs_per_op, n}, one
# entry per benchmark run; the root rows are named Table1/n=.../deg=...,
# Fig8/n=.../deg=... and BuildND/d=.../n=.../deg=.... Compare a fresh snapshot against the committed
# BENCH_baseline.json to spot regressions; see EXPERIMENTS.md for the
# regression workflow and the <2% budget on the protocol benchmarks.
set -eu

cd "$(dirname "$0")/.."

PKGS=${BENCH_PKGS:-"./internal/protocol ./internal/obs/trace ./internal/obs/flight ./internal/grid ./internal/tree ./internal/multigroup ./internal/bisect"}
PATTERN=${BENCH_PATTERN:-.}
COUNT=${BENCH_COUNT:-1}
OUT=${1:-BENCH_$(date +%Y%m%d).json}

{
    # shellcheck disable=SC2086  # PKGS is a deliberate word list
    go test -run '^$' -bench "$PATTERN" -benchmem -count "$COUNT" $PKGS
    if [ -z "${BENCH_PKGS:-}" ]; then
        go test -run '^$' -bench '^Benchmark(Table1|Fig8|BuildND)$' -benchmem -count "$COUNT" .
    fi
} \
    | tee /dev/stderr \
    | awk '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1
            sub(/^Benchmark/, "", name)
            sub(/-[0-9]+$/, "", name)
            n = $2; ns = $3; allocs = 0
            for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i - 1)
            if (count++) printf ",\n"
            printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"n\": %s}", \
                name, ns, allocs, n
        }
        END { if (count) printf "\n"; print "]" }
    ' > "$OUT"

echo "bench: wrote $OUT" >&2
