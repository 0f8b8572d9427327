#!/usr/bin/env bash
# Builds cmd/certify, cmd/injector, cmd/served and the benchmark from
# the sources of the checkout it is run in, then runs the benchmark
# with the arguments given. Run it from the repository root:
#
#   bash fmeabench/run.sh --workload certify-v2 --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/fmeabench.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/certify" ] || [ ! -f "$root/fmeabench/go.mod" ]; then
	echo "fmeabench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build/fmeabench"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/certify ./cmd/injector ./cmd/served
(cd fmeabench && go build -o "$out/bin/fmeabench" .)
exec "$out/bin/fmeabench" -bin "$out/bin" -tmp "$out/tmp" "$@"
