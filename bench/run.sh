#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it. Run it from the root of a
# checkout; every build product and scratch file stays in .bench_build.
#
#   bash bench/run.sh --workload mintest-encode --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/ninec-bench" .)
exec "$build/ninec-bench" -root "$root" "$@"
