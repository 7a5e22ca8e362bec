#!/usr/bin/env bash
# Entry point named by BENCHMARK.json; run it from the repository root:
#
#   bash benchmark/run.sh --workload hybrid-compute --seed 1 --seconds 20 --trace 0
#
# It builds the benchmark from source into .bench_build/ inside the
# checkout -- Go's build cache, temp files and the toolchain's telemetry
# counters (kept under the user config directory) included, so nothing
# is written outside the checkout -- and runs it with the arguments
# given. The first build compiles the standard library into
# the fresh cache and takes about a minute; later ones are incremental.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd benchmark && XDG_CONFIG_HOME="$build/config" go build -o "$build/hybridbench" .)
exec "$build/hybridbench" "$@"
