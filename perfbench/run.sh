#!/usr/bin/env bash
# Builds the benchmark harness and the ltexpd daemon from the checkout's
# sources, then runs the harness. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-timing --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, temporary files, the
# binaries and the benchmark's scratch cache directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/run.sh" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
go build -o "$out/ltexpd" ./cmd/ltexpd

exec "$out/perfbench" -root "$root" -out "$out" "$@"
