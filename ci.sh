#!/bin/sh
# ci.sh — the repo's full gate: formatting, vet, the regular test suite,
# one iteration of every benchmark in the bench set, the race-detector run
# that guards the parallel build pipeline and the shared multi-group
# substrate, and short fuzz smokes over the codec, tree-validation walk,
# fault-schedule, partition-schedule, drift-schedule, incremental-rebuild,
# multi-group, SLO-rule, snapshot round-trip (overlay and shared-state
# group), grid cell-classifier and points-file fuzzers. `ci.sh bench` runs the benchmark regression gate instead.
set -eu

cd "$(dirname "$0")"

# `ci.sh bench` runs only the benchmark regression gate: a fresh snapshot
# (scripts/bench.sh) diffed against BENCH_baseline.json, failing on >2%
# ns/op regressions (override with BENCH_TOLERANCE). It is not part of the
# default gate because ns/op is too noisy on shared runners to block every
# PR on it.
if [ "${1:-}" = "bench" ]; then
    echo "== bench compare =="
    exec scripts/bench_compare.sh
fi

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...
# perfbench is a nested module that imports the facade and the internal
# packages it times; vetting it builds it, so a rename it depends on fails
# here rather than inside a benchmark run.
(cd perfbench && go vet ./...)

echo "== go test =="
go test ./...

echo "== coverage floors =="
# Checked-in floors for the packages whose correctness the rest of the repo
# leans on. Floors sit a few points below the coverage measured when each
# was set (core and grid measured ~94.8% when their floors were last
# raised; tree measured 92.7% when its walk validated and measured every
# build, and 92.2% once builds proved their grid cells themselves and the
# walk kept Validate, FromParents and Delays; geom, knn and stats measured
# 85.5%, 98.5% and 91.7% when their floors were set; invariant, the
# conformance oracle every tree-producing path's tests lean on, measured
# 99.4%; cliutil, the output lifecycle all three CLIs run through,
# measured 92.0%; par, the worker-pool fan-outs every parallel build and
# rebuild runs on, measured 100.0%, and cmd/omtree, whose build creates
# its -o and -dot files through that lifecycle, 85.5%, when their floors
# were set) so honest refactors pass but a change that lands untested
# code fails.
check_cover() {
    pkg=$1 floor=$2
    pct=$(go test -cover "$pkg" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "coverage: no figure reported for $pkg" >&2
        exit 1
    fi
    if [ "$(printf '%s %s\n' "$pct" "$floor" | awk '{print ($1 < $2)}')" = 1 ]; then
        echo "coverage: $pkg at ${pct}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "coverage: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/obs 92
check_cover ./internal/obs/trace 90
check_cover ./internal/obs/flight 90
check_cover ./internal/bisect 90
check_cover ./internal/cliutil 88
check_cover ./internal/core 92
check_cover ./internal/coords 92
check_cover ./internal/geom 82
check_cover ./internal/grid 92
check_cover ./internal/invariant 95
check_cover ./internal/knn 95
check_cover ./internal/protocol 92
check_cover ./internal/multigroup 90
check_cover ./internal/par 97
check_cover ./internal/snapshot 90
check_cover ./internal/stats 89
check_cover ./internal/tree 89
check_cover ./cmd/omtree 82

echo "== benchmarks, one iteration each =="
# The scripts/bench.sh package set plus the root Table I, Figure 8 and
# d-D builds, run once each: a benchmark whose set-up breaks or panics fails
# the gate here. Timings are not judged; `ci.sh bench` is the regression
# gate.
go test -run '^$' -bench . -benchtime 1x \
    ./internal/protocol ./internal/obs/trace ./internal/obs/flight \
    ./internal/grid ./internal/tree ./internal/multigroup ./internal/bisect
go test -run '^$' -bench '^Benchmark(Table1|Fig8|BuildND)$' -benchtime 1x .

# Golden files (cmd/omt-sim and cmd/omt-experiments CLI output;
# internal/protocol trace timelines) are compared byte-for-byte by the
# regular test run above. After an INTENDED behavior or format change,
# regenerate with
#   go test ./cmd/omt-sim ./cmd/omt-experiments ./internal/protocol -update
# and review the diff — never hand-edit a .golden file.

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke =="
go test -run='^$' -fuzz='^FuzzWireRoundTrip$' -fuzztime=10s ./internal/core
go test -run='^$' -fuzz='^FuzzCodecRoundTrip$' -fuzztime=10s ./internal/tree
go test -run='^$' -fuzz='^FuzzFromParents$' -fuzztime=10s ./internal/tree
go test -run='^$' -fuzz='^FuzzFaultSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzPartitionSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzDriftSchedule$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzIncrementalRebuild$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzMultiGroup$' -fuzztime=10s ./internal/multigroup
go test -run='^$' -fuzz='^FuzzGroupSnapshotRoundTrip$' -fuzztime=10s ./internal/multigroup
go test -run='^$' -fuzz='^FuzzSLORules$' -fuzztime=10s ./internal/obs/flight
go test -run='^$' -fuzz='^FuzzSnapshotRoundTrip$' -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz='^FuzzCellOf$' -fuzztime=10s ./internal/grid
go test -run='^$' -fuzz='^FuzzPointsFile$' -fuzztime=10s ./cmd/omtree

echo "ci: all green"
