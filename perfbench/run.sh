#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload fig5 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the benchmark's own
# outputs. The build needs the repository's Go module one level up; without
# it the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go -C "$bench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
