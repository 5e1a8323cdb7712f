#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives from the sources of the
# checkout it is run in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build in that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The toolchain's caches, temporary files and telemetry counters all stay in
# the build directory; the module needs nothing from the network.
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
(cd "$root" && go build -o "$build/reprosrv" ./cmd/reprosrv) >&2
exec "$build/perfbench" "$@"
