#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash benchmark/run.sh --workload s1-steady --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, config and telemetry directories,
# the binary) lives under .bench_build/ in the checkout, so the run reads
# and writes nothing outside it. The benchmark imports the simulator's
# packages from the checkout root, so outside a full checkout the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/benchmark/go.mod" ]]; then
	echo "run.sh: run from the checkout root (benchmark/go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

go_bin="$(command -v go || true)"
if [[ -z "$go_bin" && -x /usr/local/go/bin/go ]]; then
	# The official Go distribution's default install location.
	go_bin=/usr/local/go/bin/go
fi
if [[ -z "$go_bin" ]]; then
	echo "run.sh: no go toolchain on PATH" >&2
	exit 2
fi

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0
unset GOFLAGS

# -buildvcs=false: the checkout need not be a git repository, and when it
# sits inside one that git refuses to read (another owner, a held lock),
# VCS stamping would fail the build.
(cd "$root/benchmark" && "$go_bin" build -buildvcs=false -o "$build/ivbenchmark" .)
exec "$build/ivbenchmark" "$@"
