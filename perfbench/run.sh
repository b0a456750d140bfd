#!/usr/bin/env bash
# Builds the lock-service benchmark from this checkout's sources and runs
# it. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload owned-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, span dumps and the durable-ur store directories.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/go/cache" "$build/go/tmp" "$build/go/path" "$build/go/config"

export GOCACHE="$build/go/cache"
export GOTMPDIR="$build/go/tmp"
export GOPATH="$build/go/path"
export GOMODCACHE="$build/go/path/pkg/mod"
export XDG_CONFIG_HOME="$build/go/config"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
