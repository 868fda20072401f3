#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Every
# build artifact (Go build cache, temp files, the binary) and every file a
# run writes stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's own state (telemetry counters under the user config
# directory, GOPATH) stays in the checkout too.
export XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOENV=off
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
