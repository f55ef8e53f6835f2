#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it: the command in
# BENCHMARK.json. Everything it writes stays inside the checkout: Go's build
# cache, module cache, configuration and the binary under .bench_build/,
# traces and WAL scratch under bench/out/. Arguments go to the benchmark
# unchanged.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(cd "$root/bench" && env GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
	go build -o "$build/safetypin-bench" .)
cd "$root"
exec "$build/safetypin-bench" "$@"
