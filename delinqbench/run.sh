#!/usr/bin/env bash
# Builds the delinq CLI and the benchmark driver from source, then runs
# the driver with the arguments given:
#
#   bash delinqbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a checkout. Every build product, Go cache and
# temporary file stays under .bench_build/ in that checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/delinq" ]]; then
	echo "delinqbench: run from the root of a delinq checkout" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOPATH="$out/gopath"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off

go build -o "$out/delinq" ./cmd/delinq
(cd delinqbench && go build -o "$out/delinqbench" .)
exec "$out/delinqbench" "$@"
