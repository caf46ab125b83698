#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash perfbench/run.sh -workload colossal -seed 1 -seconds 15 -trace 0
#
# The binary, the Go build cache and the toolchain's temporary and
# config files all live under $CARGO_TARGET_DIR (default .bench_build)
# in the working directory, so a run writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
