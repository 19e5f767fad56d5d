#!/usr/bin/env bash
# Builds homunculusd and the benchmark from this checkout's sources, then
# runs the benchmark with the given arguments, e.g.
#
#   bash daemonbench/run.sh --workload classify-single --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/homunculusd" ]]; then
	echo "daemonbench: run from the repository root; no go.mod or cmd/homunculusd in $root" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home/.config/go/telemetry" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
# With telemetry on or local, the go command starts a detached upload
# process that can outlive this script; "off" makes it start none.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/bin/homunculusd" ./cmd/homunculusd
(cd daemonbench && go build -o "$out/bin/daemonbench" .)
exec "$out/bin/daemonbench" -daemon "$out/bin/homunculusd" -work "$out/work" "$@"
