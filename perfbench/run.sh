#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload session --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache) lands in .bench_build/
# under the current directory. Without the repository's module next to this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
