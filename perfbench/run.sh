#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare base.jsonl new.jsonl
#
# Every build product (binary, Go build cache) stays in .bench_build/
# under the current directory. The build fails, and the script exits
# non-zero, when the simulator's sources are not beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
