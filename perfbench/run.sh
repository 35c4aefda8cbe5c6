#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload steady-slide --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build artefact, Go cache and data
# directory stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (need go.mod and perfbench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -data "$out" "$@"
