#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it with the given arguments from that root. Binary, Go
# build cache and the go command's own state (HOME: telemetry counters,
# GOPATH) all live under .bench_build/, so nothing is written outside
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/home"
(cd "$here" && env -u XDG_CONFIG_HOME HOME="$out/home" GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off \
	go build -o "$out/xprs-bench" .)
cd "$root"
exec "$out/xprs-bench" "$@"
