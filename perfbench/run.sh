#!/usr/bin/env bash
# Builds the benchmark and the vgiwd daemon from source, then runs one
# workload. Run it from the root of a repository checkout:
#
#   bash perfbench/run.sh --workload suite-timed --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes lands under .bench_build/ in the checkout,
# including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/vgiwd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go build -o "$out/bin/vgiwd" ./cmd/vgiwd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -vgiwd "$out/bin/vgiwd" "$@"
