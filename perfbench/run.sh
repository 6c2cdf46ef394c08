#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with every
# argument passed through:
#
#   bash perfbench/run.sh --workload plaza --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and everything else the build or the run
# writes stay under .bench_build/ in the checkout. The build needs the
# repository's own module one directory up; without it, it fails and the
# script exits non-zero before anything runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
