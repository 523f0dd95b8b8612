#!/usr/bin/env bash
# Builds ceaffd and the benchmark from this checkout, then runs one workload:
#
#   bash ceaffbench/run.sh --workload hot-single --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays under
# .bench_build/: the Go build cache, temporary files, and the Go tool's
# per-user configuration and telemetry, which live under $HOME.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C ceaffbench build -o "$out/ceaffbench" . >&2
go build -o "$out/ceaffd" ./cmd/ceaffd >&2
exec "$out/ceaffbench" -ceaffd "$out/ceaffd" -out "$out" -root "$root" "$@"
