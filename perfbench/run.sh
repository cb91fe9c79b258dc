#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload echo-hpi --seed 1 --seconds 30 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ at the checkout root, and the Go toolchain is kept
# offline (GOPROXY=off, GOTOOLCHAIN=local). Without the ncs module one
# directory up it exits non-zero without building or printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no ncs module at $root" >&2
	exit 2
fi

mkdir -p "$out/gocache" "$out/gomodcache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
