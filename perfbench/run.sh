#!/usr/bin/env bash
# Entry point of the vmdg benchmark. Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 10 --trace 0
#
# It builds the dgrid CLI and the harness from the checkout's sources
# into .bench_build/ and then runs the harness. The Go build cache and
# every temporary file live under .bench_build/ too, so a run writes
# nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dgrid || ! -d internal/engine || ! -f perfbench/go.mod ]]; then
	echo "perfbench: not the root of a vmdg checkout (go.mod, cmd/dgrid or internal/engine missing)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOENV=off

go build -o "$build/dgrid" ./cmd/dgrid
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -dgrid "$build/dgrid" "$@"
