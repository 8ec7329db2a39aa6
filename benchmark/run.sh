#!/bin/bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
#   bash benchmark/run.sh compare A.json B.json
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it and does not depend on $HOME.
set -eu
root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout (needs go.mod and benchmark/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/tebaldi-benchmark" .
exec "$build/tebaldi-benchmark" "$@"
