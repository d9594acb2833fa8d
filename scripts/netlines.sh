#!/bin/sh
# netlines: count the lines the working tree adds and removes against a
# base revision (default HEAD~1), split into non-test Go, test Go and
# every other file. New files count once they are staged (git add).
#
#   sh scripts/netlines.sh [BASE]
set -eu

base=${1:-HEAD~1}
cd "$(dirname "$0")/.."

git diff --numstat --no-renames "$base" -- | awk -F '\t' '
	# Binary files report "-" for both counts; they carry no lines.
	$1 == "-" { next }
	{
		k = "other"
		if ($3 ~ /_test\.go$/) k = "test Go"
		else if ($3 ~ /\.go$/) k = "non-test Go"
		add[k] += $1; del[k] += $2
		add["total"] += $1; del["total"] += $2
	}
	END {
		printf "%-12s %8s %8s %8s\n", "", "added", "removed", "net"
		n = split("non-test Go,test Go,other,total", ks, ",")
		for (i = 1; i <= n; i++) {
			k = ks[i]
			printf "%-12s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
		}
	}'
