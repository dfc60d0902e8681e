#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it from the
# checkout root, e.g.
#
#	bash perfbench/run.sh --workload pool-healthy --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and CPU profiles stay under
# .bench_build/perfbench in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
