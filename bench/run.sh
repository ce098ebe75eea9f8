#!/usr/bin/env bash
# Builds jobgraph's benchmark from this checkout's source and runs it
# with the given arguments, from the repository root:
#
#   bash bench/run.sh --workload ingest-csv --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -sets 2
#
# The binary, the Go build cache and the benchmark's generated inputs
# all stay under .bench_build/ in the repository root, which the first
# run fills (a cold build compiles the standard library too).
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the go command's caches, temporary files and settings inside the
# checkout, and keep it off the network: the module has no dependencies.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$bench" build -o "$out/jobgraph-bench" .
cd "$root"
exec "$out/jobgraph-bench" "$@"
