#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through. All build state (Go build cache, module
# cache, tool config) stays under .bench_build in the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
