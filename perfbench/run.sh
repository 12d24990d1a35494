#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload timed --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under $CARGO_TARGET_DIR (default .bench_build), so the
# run reads and writes nothing outside the checkout. The build is offline:
# the module has no dependencies beyond the repository itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters, which it
# writes under the user's configuration directory, in the checkout too.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spans "$out/spans" "$@"
