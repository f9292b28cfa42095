#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and trace files go under
# $CARGO_TARGET_DIR (default .bench_build), so the run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"

(
	cd "$here"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out "$out" "$@"
