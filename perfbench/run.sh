#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ at
# the repository root, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload flat-1k --seed 1 --seconds 15 --trace 0
#
# Every file the build writes (binary, Go build cache, temp files) stays
# under .bench_build/. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
(
	cd "$here"
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
