#!/usr/bin/env bash
# The benchmark's entry point, named by BENCHMARK.json:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It compiles the benchmark (a module of its own, see go.mod) and hands
# over to it; the benchmark then builds the binaries it drives. All
# build output — the Go build cache, the go command's temporary files
# and its telemetry counters included — stays under .bench_build/ in
# the checkout, so a run writes nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomod   # never filled: neither module has dependencies
export GOFLAGS=-modcacherw
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config   # where the go command keeps its counters
export GOTOOLCHAIN=local         # never fetch another toolchain

(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
