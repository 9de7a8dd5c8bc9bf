#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload airfoil-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The benchmark module replaces op2hpx with the repository root, so the
# build fails (and nothing is measured) where the program's sources are
# missing.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
