#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; every argument is
# passed on (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload gasync --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the compiler's temporary files and
# span files stay inside the checkout, under $CARGO_TARGET_DIR (default
# .bench_build).
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
