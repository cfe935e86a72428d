#!/usr/bin/env bash
# Builds the check-job benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload svc-large --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, journals and span files all stay under
# .bench_build/ in the checkout. A failed build exits non-zero without
# printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
