#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build in the current
# directory: the Go build cache, the binary, and the benchmark's scratch
# directories. CARGO_TARGET_DIR, when set, names that directory instead.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
