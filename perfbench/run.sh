#!/usr/bin/env bash
# Builds the daemons and the benchmark from this checkout, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload kv-write --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes
# under $CARGO_TARGET_DIR (default .bench_build), including the Go build
# cache, so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/basicskv" || ! -d "$root/cmd/basicsjobd" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/basicskv, cmd/basicsjobd)" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local

go build -o "$build/bin/" ./cmd/basicskv ./cmd/basicsjobd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -spec BENCHMARK.json -bin "$build/bin" -work "$build/work" -spans "$build/spans" "$@"
