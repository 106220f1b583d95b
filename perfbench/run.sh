#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one measurement.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/perfbench: the Go build cache, the harness binary,
# the figure8-warm memo snapshot and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout and
# never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2

workload=""
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ ${args[i]} == --workload ]] && ((i + 1 < ${#args[@]})); then
		workload=${args[i + 1]}
	fi
done

# The warm workload loads a memo snapshot made by a separate process of
# the same binary, so the measured process never pays for (or counts the
# peak memory of) the cold pass that produced it.
if [[ $workload == figure8-warm ]]; then
	"$out/perfbench" snapshot --out "$out" >&2
fi
exec "$out/perfbench" measure --out "$out" "$@"
