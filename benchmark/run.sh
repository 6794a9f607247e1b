#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# root of a checkout; every argument is passed to it:
#
#   bash benchmark/run.sh --workload sim-grid --seed 42 --seconds 20 --trace 0
#
# The binary and the Go build cache live under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout. Build output goes to stderr,
# so the JSON result stays the last line of stdout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/nextdvfs-bench" .) >&2
exec "$out/nextdvfs-bench" "$@"
