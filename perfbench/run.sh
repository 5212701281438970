#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache and span files stay under .bench_build/
# at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! grep -qs '^module repro$' go.mod; then
	echo "perfbench: not a checkout of module repro (no go.mod here)" >&2
	exit 2
fi
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
