#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through. Run it from anywhere:
#
#   bash perfbench/run.sh --workload paper-hybrid --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build caches live under .bench_build/ at the
# checkout root, so nothing is read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
