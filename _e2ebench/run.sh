#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a checkout:
#
#   bash _e2ebench/run.sh --workload burst --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, state dirs and trace files all go under
# .bench_build/ in the current directory, so the run writes nothing outside
# the checkout. The build fails, and the script exits non-zero without a
# result, when the checkout around the benchmark is missing.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
