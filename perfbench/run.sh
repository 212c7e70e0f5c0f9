#!/usr/bin/env bash
# Builds the herosign benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload sign-fleet --seed 1 --seconds 45 --trace 0
#
# Run from the repository root. Everything the build writes (Go build cache,
# binary) stays under .bench_build/ in the checkout; the build never goes to
# the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the herosign repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
