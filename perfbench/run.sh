#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/, so
# building and running write nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the root of an agave checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
