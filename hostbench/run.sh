#!/usr/bin/env bash
# Builds hostbench and the melody binary from this checkout, then runs
# hostbench with the given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload sweep-fig8a --seed 1 --seconds 15 --trace 0
#
# Build output, the Go build cache, traces and service data all stay
# under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/config"
# Keep the toolchain's cache, temporary files, module path and user
# config (Go telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(
	cd "$here"
	go build -o "$out/bin/hostbench" .
	go build -o "$out/bin/melody" github.com/moatlab/melody/cmd/melody
)
cd "$root"
exec "$out/bin/hostbench" --melody "$out/bin/melody" --work "$out" "$@"
