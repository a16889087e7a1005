#!/usr/bin/env bash
# Builds cmd/stochbench from the checkout it sits in and runs it from the
# checkout's root with the given flags, e.g.
#
#   bash cmd/stochbench/run.sh --workload fig5-natural --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's own state (config, telemetry, module
# path), the binary and the journal files all stay under .bench_build/ in
# the checkout. The benchmark needs no module downloads.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/cmd/stochbench" build -o "$out/stochbench" .
cd "$root"
exec "$out/stochbench" -workdir "$out/work" "$@"
