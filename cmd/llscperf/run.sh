#!/usr/bin/env bash
# Builds llscperf from this checkout's source and runs it with the given
# flags. Run it from the repository root:
#
#   bash cmd/llscperf/run.sh --workload rpc --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: the Go build cache, the binary, temporary data
# directories, and the toolchain's own telemetry.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/cmd/llscperf" && go build -o "$out/llscperf" .)
TMPDIR="$out/tmp" exec "$out/llscperf" "$@"
