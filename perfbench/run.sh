#!/usr/bin/env bash
# Builds rtled and the benchmark from the checkout this is run in, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seed 1 --seconds 3
#   bash perfbench/run.sh compare .bench_build/results-a .bench_build/results-b
#
# Everything the build and the runs leave behind goes under .bench_build:
# the Go build cache, the binaries, per-run result files, and spans.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rtled" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a full rtle checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/rtled" ./cmd/rtled
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -rtled "$out/bin/rtled" -out "$out" "$@"
