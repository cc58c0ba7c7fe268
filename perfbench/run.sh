#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wordcount-bulk --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced run's span files all live
# under .bench_build/ at the checkout root, so nothing is written outside
# the checkout. The build fails, and the script exits non-zero without a
# result, when the program's sources (the parent module) are missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
