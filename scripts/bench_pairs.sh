#!/bin/sh
# bench_pairs: A/B the Go benchmarks of one package between a base
# revision and the working tree. It builds one test binary per side
# (the base from `git archive BASE`, so the checkout is untouched), runs
# the two alternately N times at -cpu 1,2, swapping which goes first in
# every other pair, and prints per benchmark each side's median ns/op
# with its [min, max] and how many pairs the working tree won.
#
#   sh scripts/bench_pairs.sh BASE PKG BENCH [N]
#   sh scripts/bench_pairs.sh HEAD~1 ./internal/core 'EncodeSetK|DecodeSetK' 6
#
# It gates nothing: a win count says which side was faster, and the
# [min, max] columns say whether the gap is larger than the noise.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: $0 BASE PKG BENCH [N]" >&2
	exit 2
fi
base=$1 pkg=$2 bench=$3 n=${4:-6}
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
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" -test.cpu 1,2 -test.timeout 30m) \
		>"$tmp/$1.$3"
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
done | awk -v n="$n" '
	# median, min and max of the space-separated values in s
	function stats(s,    v, k, i, j, t) {
		k = split(s, v, " ")
		for (i = 2; i <= k; i++)
			for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
				t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
			}
		med = k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
		lo = v[1]; hi = v[k]
	}
	{
		if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
		vals[$1, $3] = vals[$1, $3] " " $4
		ns[$1, $2, $3] = $4
	}
	END {
		printf "%-36s %30s %30s %7s %6s\n", "ns/op", "base median [min, max]", "head median [min, max]", "delta", "wins"
		for (i = 1; i <= nn; i++) {
			b = names[i]
			stats(vals["base", b]); bm = med; bl = lo; bh = hi
			stats(vals["head", b]); hm = med; hl = lo; hh = hi
			wins = 0; pairs = 0
			for (p = 1; p <= n; p++)
				if (("base", p, b) in ns && ("head", p, b) in ns) {
					pairs++
					if (ns["head", p, b] + 0 < ns["base", p, b] + 0) wins++
				}
			printf "%-36s %10.0f [%8.0f, %8.0f] %10.0f [%8.0f, %8.0f] %+6.1f%% %3d/%d\n",
				b, bm, bl, bh, hm, hl, hh, 100 * (hm - bm) / bm, wins, pairs
		}
	}'
