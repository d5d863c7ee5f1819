#!/usr/bin/env bash
# Builds unbench from source and runs it with the given arguments. This is
# the `command` of BENCHMARK.json; run it from the root of a checkout:
#
#   bash benchmarks/run.sh --workload fwd-flows --seed 1 --seconds 20 --trace 0
#   bash benchmarks/run.sh                    # every workload, both passes
#   bash benchmarks/run.sh -compare a/results.json b/results.json
#
# Everything it writes (the Go build cache included) stays under the
# checkout: .bench_build/ for the build, benchmarks/out/ for results.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$here/unbench" && go build -o "$build/unbench" .)
cd "$root"
exec "$build/unbench" "$@"
