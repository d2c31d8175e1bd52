#!/usr/bin/env bash
# Builds the angstromd serving benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs, the Go build cache and
# each run's scratch data directory stay under $CARGO_TARGET_DIR
# (default .bench_build) in the working directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench/tmp"

export GOCACHE="$out/perfbench/gocache"
export GOMODCACHE="$out/perfbench/gomodcache"
export GOPATH="$out/perfbench/gopath"
export GOTMPDIR="$out/perfbench/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Build output goes to stderr: standard output carries only the
# benchmark's report and its final JSON line.
(cd "$root/perfbench" && go build -o "$out/perfbench/angbench" .) >&2
exec "$out/perfbench/angbench" -out "$out/perfbench" "$@"
