#!/bin/sh
# Builds the benchmark once, runs the untraced set and then the traced set,
# and leaves end_to_end.json, per_layer.json and the span files in the
# directory given as first argument. Further arguments go to both runs
# (-seed, -seconds, -scale, -workload). Exits nonzero when a correctness
# check fails.
#
#	benchmark/run.sh /tmp/base
#	benchmark/run.sh /tmp/change
#	/tmp/base/soda-benchmark -compare /tmp/base/end_to_end.json /tmp/change/end_to_end.json
set -eu
out=${1:?usage: run.sh OUTDIR [flags]}
shift
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
go build -C "$here" -o "$out/soda-benchmark" .
"$out/soda-benchmark" -out "$out" "$@"
"$out/soda-benchmark" -out "$out" -trace 1 "$@"
