#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload colocate --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans all go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout. Build messages go
# to standard error, so the last line of standard output is the result.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-.bench_build}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
mkdir -p "$target"

# Keep everything the Go toolchain writes inside the build directory, never
# download anything, and start no telemetry helper process: a telemetry
# child of a go command would outlive this script.
export GOCACHE=$target/gocache GOPATH=$target/gopath XDG_CONFIG_HOME=$target/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GO_TELEMETRY_CHILD=2

(cd "$here" && go build -o "$target/perfbench" .) >&2
exec "$target/perfbench" --spans-dir "$target/spans" "$@"
