#!/usr/bin/env bash
# Builds the D-RaNGe benchmark from the surrounding source tree and runs it.
# Run from the repository root; arguments pass through to the benchmark:
#
#   bash bench/run.sh --workload raw-pool --seed 7 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files) goes
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$out/drange-bench" .) >&2
exec "$out/drange-bench" -out "$out" "$@"
