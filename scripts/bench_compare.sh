#!/bin/sh
# scripts/bench_compare.sh — diff a benchmark snapshot against the
# committed baseline and fail on regressions.
#
# Usage:
#   scripts/bench_compare.sh [SNAPSHOT.json] [BASELINE.json]
#     SNAPSHOT defaults to a fresh run via scripts/bench.sh (written to a
#     temp file); BASELINE defaults to BENCH_baseline.json.
#
# Environment overrides:
#   BENCH_TOLERANCE  allowed ns/op regression as a fraction (default 0.02,
#                    i.e. the 2% budget from EXPERIMENTS.md)
#
# Benchmarks are matched by name. A benchmark present only in the snapshot
# gets a "new" verdict row (it has no baseline yet — add it to
# BENCH_baseline.json to start tracking it); one present only in the
# baseline is skipped with a warning on stderr (retired benchmarks no
# longer matter). Neither fails the comparison. Exit status is non-zero
# when any shared benchmark's ns/op exceeds baseline * (1 + tolerance).
#
# ns/op on a shared CI box is noisy; re-run with BENCH_COUNT=5 (see
# scripts/bench.sh) before treating a small overshoot as real. A name with
# several rows on one side (BENCH_COUNT > 1) is judged by the median of its
# rows, on both sides and in the flight-recorder gate below; a name with
# one row is its own median.
set -eu

cd "$(dirname "$0")/.."

TOL=${BENCH_TOLERANCE:-0.02}
SNAP=${1:-}
BASE=${2:-BENCH_baseline.json}

if [ ! -f "$BASE" ]; then
    echo "bench_compare: baseline $BASE not found" >&2
    exit 2
fi

cleanup=""
if [ -z "$SNAP" ]; then
    SNAP=$(mktemp "${TMPDIR:-/tmp}/bench_snap.XXXXXX")
    cleanup=$SNAP
    trap 'rm -f "$cleanup"' EXIT INT TERM
    scripts/bench.sh "$SNAP" >&2
fi
if [ ! -f "$SNAP" ]; then
    echo "bench_compare: snapshot $SNAP not found" >&2
    exit 2
fi

# The snapshots are one {...} object per line (scripts/bench.sh writes
# them that way), so awk can pull name and ns_per_op without jq.
awk -v tol="$TOL" -v basefile="$BASE" -v snapfile="$SNAP" '
    function parse(line,   name, ns) {
        if (match(line, /"name": *"[^"]*"/) == 0) return 0
        name = substr(line, RSTART, RLENGTH)
        sub(/^"name": *"/, "", name); sub(/"$/, "", name)
        if (match(line, /"ns_per_op": *[0-9.eE+-]+/) == 0) return 0
        ns = substr(line, RSTART, RLENGTH)
        sub(/^"ns_per_op": */, "", ns)
        pname = name; pns = ns + 0
        return 1
    }
    # median returns the median of rows[name, 1..n].
    function median(rows, name, n,   a, i, j, t) {
        for (i = 1; i <= n; i++) a[i] = rows[name, i]
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
        if (n % 2) return a[(n + 1) / 2]
        return (a[n / 2] + a[n / 2 + 1]) / 2
    }
    BEGIN {
        while ((getline line < basefile) > 0)
            if (parse(line)) baserows[pname, ++nbase[pname]] = pns
        close(basefile)
        while ((getline line < snapfile) > 0)
            if (parse(line)) snaprows[pname, ++nsnap[pname]] = pns
        close(snapfile)
        for (name in nbase) base[name] = median(baserows, name, nbase[name])
        for (name in nsnap) snap[name] = median(snaprows, name, nsnap[name])
        if (length(base) == 0) { print "bench_compare: no benchmarks in " basefile > "/dev/stderr"; exit 2 }
        if (length(snap) == 0) { print "bench_compare: no benchmarks in " snapfile > "/dev/stderr"; exit 2 }
        fail = 0; base_only = 0; snap_only = 0
        for (name in base) {
            if (!(name in snap)) {
                printf "bench_compare: warning: skipping %s (baseline only; retired?)\n", \
                    name > "/dev/stderr"
                base_only++
                continue
            }
            delta = (snap[name] - base[name]) / base[name]
            verdict = "ok"
            if (delta > tol) { verdict = "REGRESSION"; fail = 1 }
            printf "  %-16s %12.2f -> %12.2f ns/op  %+7.2f%%  %s\n", \
                name, base[name], snap[name], 100 * delta, verdict
        }
        for (name in snap) {
            if (!(name in base)) {
                printf "  %-16s %12s -> %12.2f ns/op  %7s  new\n", \
                    name, "-", snap[name], "-"
                snap_only++
            }
        }
        # Zero-overhead gate: a disabled flight recorder must cost the same
        # as no recorder at all (its fast path is one atomic load). The
        # bound is absolute ns, not a ratio — both sides sit around 2 ns,
        # where any percentage is pure timer noise.
        if (("FlightSample/disabled" in snap) && ("FlightSample/none" in snap)) {
            over = snap["FlightSample/disabled"] - snap["FlightSample/none"]
            if (over > 5) {
                printf "bench_compare: disabled flight recorder costs %.2f ns/op over the nil-recorder path (budget 5 ns)\n", \
                    over > "/dev/stderr"
                fail = 1
            } else {
                printf "  FlightSample disabled-vs-none overhead %+.2f ns/op (budget 5 ns)  ok\n", over
            }
        }
        if (snap_only > 0)
            printf "bench_compare: %d new benchmark(s) have no baseline yet; add them to BENCH_baseline.json\n", \
                snap_only > "/dev/stderr"
        if (base_only > 0)
            printf "bench_compare: skipped %d baseline-only benchmark(s)\n", \
                base_only > "/dev/stderr"
        if (fail) {
            printf "bench_compare: ns/op regression beyond %.0f%% tolerance\n", 100 * tol > "/dev/stderr"
            exit 1
        }
        print "bench_compare: within tolerance"
    }
'
