#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark into
# .bench_build/ at the root of the checkout and runs it there. The Go
# caches and the toolchain's own files live under .bench_build/ too, so a
# run reads and writes nothing outside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
