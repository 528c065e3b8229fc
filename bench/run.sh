#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through, e.g.
#
#   bash bench/run.sh --workload fixpoint --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary data directories and trace files all stay under .bench_build/
# in the current directory, so the run reads and writes nothing outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/p2pdb-bench" .)
exec "$out/p2pdb-bench" -out "$out" "$@"
