#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it. Run it
# from the repository root; every argument is passed on:
#
#   bash perfbench/run.sh --workload jobs-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -runs 5 -workloads frontier-cold
#
# Build outputs, the Go build cache and scratch stores all stay under
# $CARGO_TARGET_DIR (default .bench_build), so nothing outside the
# checkout is written; compilation happens before any timing starts.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@" --out "$out"
