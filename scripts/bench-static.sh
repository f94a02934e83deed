#!/bin/sh
# Measures the static path of a cold analyze at a parent revision and
# at the working tree, the method behind BENCH_static.json:
#
#   sh scripts/bench-static.sh <parent-rev> [rounds]
#
# It extracts <parent-rev> into a temporary directory, builds `go test
# -c` binaries of the root package, internal/workerpool and
# internal/pattern on both sides, and runs the two sides alternately
# for the given number of rounds (default 10), swapping which side runs
# first each round. It prints JSON on stdout: "benchmarks" in
# BENCH_static.json's schema (each side's median and quartiles, by
# linear interpolation between ranks) and "won", the rounds in which
# the working tree's ns/op was lower. Run it from anywhere in the
# repository.
set -eu
cd "$(dirname "$0")/.."
parent=${1:?usage: sh scripts/bench-static.sh <parent-rev> [rounds]}
rounds=${2:-10}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"

# Each line: package directory, benchmark pattern.
specs='. BenchmarkPatternAnalysis$|BenchmarkCompiler$
internal/workerpool BenchmarkExecuteProgen$
internal/pattern BenchmarkAnalyzeProgram'

for side in parent change; do
	src=$PWD
	[ "$side" = parent ] && src=$tmp/parent
	echo "$specs" | while read -r pkg pattern; do
		echo "building $side $pkg" >&2
		(cd "$src" && go test -c -o "$tmp/$side-$(echo "$pkg" | tr / _).test" "./$pkg")
	done
done

run() { # side round
	src=$PWD
	[ "$1" = parent ] && src=$tmp/parent
	echo "$specs" | while read -r pkg pattern; do
		out=$(cd "$src/$pkg" && "$tmp/$1-$(echo "$pkg" | tr / _).test" \
			-test.run '^$' -test.bench "$pattern" -test.benchmem -test.timeout 10m) ||
			{ echo "$out" >&2; exit 1; }
		echo "$out" | awk -v side="$1" -v round="$2" '/^Benchmark/ {
			sub(/-[0-9]+$/, "", $1)
			for (i = 3; i < NF; i += 2) m[$(i + 1)] = $i
			print $1, side, round, m["ns/op"], m["B/op"], m["allocs/op"]
		}'
	done
}

i=1
while [ "$i" -le "$rounds" ]; do
	echo "round $i of $rounds" >&2
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i" && run change "$i"
	else
		run change "$i" && run parent "$i"
	fi
	i=$((i + 1))
done >"$tmp/runs"

# One line per benchmark, side order, metric order and value, sorted so
# each (benchmark, side, metric) group is contiguous and ascending.
awk '{
	s = ($2 == "parent") ? 1 : 2
	print $1, s, 1, $4; print $1, s, 2, $5; print $1, s, 3, $6
}' "$tmp/runs" | sort -k1,1 -k2,2n -k3,3n -k4,4n >"$tmp/sorted"

awk -v rounds="$rounds" '
function q(p,   pos, lo) {
	pos = (n - 1) * p; lo = int(pos)
	if (lo + 1 >= n) return v[lo]
	return v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
function flush() {
	if (n == 0) return
	printf "%s\"%s\": {\"median\": %.0f, \"q1\": %.0f, \"q3\": %.0f, \"n\": %d}", \
		(metric == 1 ? "" : ", "), name[metric], q(0.5), q(0.25), q(0.75), n
	n = 0
}
BEGIN {
	name[1] = "ns/op"; name[2] = "B/op"; name[3] = "allocs/op"
	side[1] = "parent"; side[2] = "change"
	printf "{\n  \"rounds\": %d,\n  \"benchmarks\": {", rounds
}
NR == FNR {
	# The ns/op of every round, to count the rounds the change won.
	t[$1 " " $2 " " $3] = $4
	next
}
$1 != bench || $2 != s || $3 != metric {
	flush()
	if ($1 != bench) {
		if (bench != "") printf "}},"
		order[nb++] = $1
		printf "\n    \"%s\": {\"%s\": {", $1, side[$2]
	} else if ($2 != s) {
		printf "}, \"%s\": {", side[$2]
	}
	bench = $1; s = $2; metric = $3
}
{ v[n++] = $4 }
END {
	flush()
	printf "}}\n  },\n  \"won\": {"
	for (i = 0; i < nb; i++) {
		won = 0
		for (r = 1; r <= rounds; r++)
			if (t[order[i] " change " r] < t[order[i] " parent " r]) won++
		printf "%s\n    \"%s\": %d", (i ? "," : ""), order[i], won
	}
	printf "\n  }\n}\n"
}' "$tmp/runs" "$tmp/sorted"
