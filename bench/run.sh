#!/usr/bin/env bash
# Builds kbbench and the three programs it drives into .bench_build/ at
# the root of the checkout, then runs kbbench with the given arguments.
# Everything Go writes (build cache, temp files) stays in .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/bin/kbbench" ./kbbench)
(cd "$root" && go build -o "$out/bin/" ./cmd/kbbuild ./cmd/kbserve ./cmd/kbrouter)
cd "$root"
exec "$out/bin/kbbench" "$@"
