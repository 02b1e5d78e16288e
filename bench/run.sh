#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it, from the root of the
# checkout, with the given arguments; see README.md. Everything building and
# running leave behind (binary, Go build cache, results, traces, scratch logs)
# stays under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/ickpt-bench" .
cd "$(dirname "$here")"
exec "$out/ickpt-bench" "$@"
