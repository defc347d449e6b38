#!/usr/bin/env bash
# Builds the benchmark and scgnn-node from this checkout, then runs one
# measurement. Run from the repository root:
#
#   bash trainbench/run.sh --workload semantic-nodecut-10k --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the Go build cache, the binaries, node sockets,
# checkpoints and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
# The go command keeps its settings and telemetry under the user's config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME="$out/config" GOENV=off

(cd "$root/trainbench" && go build -o "$out/bin/trainbench" . && go build -o "$out/bin/scgnn-node" scgnn/cmd/scgnn-node) >&2

exec "$out/bin/trainbench" --node-bin .bench_build/bin/scgnn-node --out .bench_build "$@"
