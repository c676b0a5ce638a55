#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command): build
# cmd/servebench from the checkout it is run in, then run it with the
# driver's arguments (--workload, --seed, --seconds, --trace).
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, Go's build cache, temporary files, module
# path and per-user configuration (where the toolchain keeps its
# telemetry counters).
# Outside a checkout of the repository (no go.mod) there is no program
# to build: the script exits non-zero without printing a result and
# without starting anything.
set -euo pipefail

if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: not a checkout of the repository" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# With telemetry in its default "local" mode, the go command starts a
# detached copy of itself to tidy its counter files, and that copy can
# outlive this script. Mode "off" starts nothing.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/servebench" ./cmd/servebench
exec "$build/servebench" "$@"
