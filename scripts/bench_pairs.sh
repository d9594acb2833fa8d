#!/bin/sh
# bench_pairs: A/B the Go benchmarks of one package between a base
# revision and the working tree. It builds one test binary per side
# (the base from `git archive BASE`, so the checkout is untouched), runs
# the two alternately N times at -cpu 1,2 and a fixed -benchtime,
# swapping which goes first in every other pair. Then
# scripts/bench_verdict.awk prints per benchmark each side's median
# ns/op with its [min, max], the delta, how many pairs the working tree
# won and a verdict, and the script exits non-zero if any benchmark
# fails there.
#
#   sh scripts/bench_pairs.sh BASE PKG BENCH [N]
#   sh scripts/bench_pairs.sh HEAD~1 ./internal/core 'EncodeSetK|DecodeSetK' 6
set -eu

if [ $# -lt 3 ]; then
	echo "usage: $0 BASE PKG BENCH [N]" >&2
	exit 2
fi
base=$1 pkg=$2 bench=$3 n=${4:-6}
benchtime=200ms
GO=${GO:-go}
cd "$(dirname "$0")/.."
root=$(pwd)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && $GO test -c -o "$tmp/base.test" "$pkg")
$GO test -c -o "$tmp/head.test" "$pkg"

# run SIDE TREE I: one pass of the benchmarks, from the package
# directory of its own tree so tests find their testdata.
run() {
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime" \
		-test.cpu 1,2 -test.timeout 30m) >"$tmp/$1.$3"
}
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$tmp/base" "$i"
		run head "$root" "$i"
	else
		run head "$root" "$i"
		run base "$tmp/base" "$i"
	fi
	echo "pair $i/$n done" >&2
	i=$((i + 1))
done

for f in "$tmp"/base.[0-9]* "$tmp"/head.[0-9]*; do
	side=${f##*/}
	awk -v side="${side%%.*}" -v pair="${side#*.}" \
		'$1 ~ /^Benchmark/ && $4 == "ns/op" { print side, pair, substr($1, 10), $3 }' "$f"
done | awk -f scripts/bench_verdict.awk
