#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — Go's build cache, its temporary files, its
# telemetry counters (XDG_CONFIG_HOME), the binary — stays under
# benchmark/out/build/, which git ignores.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/build"
mkdir -p "$build/tmp"
(
	export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
	cd benchmark && go build -o "$build/vifi-benchmark" .
)
exec "$build/vifi-benchmark" "$@"
