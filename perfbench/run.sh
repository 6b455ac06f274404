#!/usr/bin/env bash
# Builds perfbench from the checkout this script sits in, then runs it with
# the given arguments from the checkout's root, for example:
#
#   bash perfbench/run.sh --workload oltp-tcp --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the traced run's span files all stay
# in .bench_build at the checkout's root.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/joinview.go" ]; then
	echo "perfbench: no joinview module at $root; run from a full checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$bench_dir" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
