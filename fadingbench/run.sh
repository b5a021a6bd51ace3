#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash fadingbench/run.sh --workload paper-eq22 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's configuration and telemetry, the binary) and the traced run's
# spans go under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

(cd fadingbench && go build -o "$out/fadingbench" .)
exec "$out/fadingbench" "$@"
