#!/bin/sh
# cache-smoke gate: prove the content-addressed result cache end to
# end. A duplicate-heavy replay (97% of encodes drawn from a small
# corpus) against a cache-enabled ninecd must (1) verify byte-identical
# responses against a local reference encode — a hit is
# indistinguishable from a cold encode, (2) land a cache hit ratio
# above 0.9, and (3) cost the daemon at most CPU_RATIO_MAX of the CPU
# per request that the identical replay costs a ninecd running
# -cache=false. CPU is the daemon's own utime+stime from
# /proc/<pid>/stat, so a load generator sharing the host's cores does
# not blur the verdict the way a goodput ratio did. (4) A unique-only
# replay — every request a distinct body, seen once — must leave the
# cache empty: a result is stored only on its key's second sighting.
set -eu

GO=${GO:-go}
cd "$(dirname "$0")/.."

# CPU_RATIO_MAX bounds cache-on CPU per request over cache-off CPU per
# request. Eleven runs per arm on a 2-vCPU host measured 200–275 us
# cache on and 575–875 us cache off (ratios 0.26–0.41): the worst
# pairing of the two arms' extremes is 275/575 = 0.48, while two
# cache-off runs read 575/875 = 0.66 at the least. 0.60 sits between,
# so the check fails once the cache stops absorbing the duplicates.
CPU_RATIO_MAX=0.60

tmp=$(mktemp -d)
pid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/ninecd" ./cmd/ninecd
$GO build -o "$tmp/ninecload" ./cmd/ninecload

# boot starts a ninecd with the given extra flags and sets $addr and
# $pid. Globals, not command substitution: a subshell would strand the
# daemon outside the cleanup trap's reach.
boot() {
	"$tmp/ninecd" -addr localhost:0 -k 8 "$@" >"$tmp/log" 2>&1 &
	pid=$!
	addr=
	i=0
	while [ $i -lt 100 ]; do
		addr=$(sed -n 's/.*listening on //p' "$tmp/log" | head -n 1)
		[ -n "$addr" ] && break
		if ! kill -0 "$pid" 2>/dev/null; then
			echo "cache-smoke: ninecd died on startup:" >&2
			cat "$tmp/log" >&2
			exit 1
		fi
		sleep 0.1
		i=$((i + 1))
	done
	if [ -z "$addr" ]; then
		echo "cache-smoke: never saw a listen address" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
}

stop() {
	kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
	pid=
}

# cputicks prints the daemon's utime+stime in clock ticks: fields 14
# and 15 of /proc/<pid>/stat, counted after the parenthesised command
# name (which may hold spaces).
cputicks() {
	sed 's/.*) //' "/proc/$pid/stat" | awk '{ print $12 + $13 }'
}

# The replay: encodes only (-mix 0), 97% duplicates over an 8-set
# corpus of CPU-heavy 512x512 sets, -verify so every corpus response is
# checked byte for byte against a local reference encode. With no chaos
# setting, ninecload reuses its connections, so transport cost does not
# mask the codec cost. Seeded: reruns replay the exact same request
# sequence against both daemons.
n=800
replay() {
	"$tmp/ninecload" \
		-addr "$1" -n $n -c 8 -seed 9414 \
		-mix 0 -dup-ratio 0.97 -corpus 8 -patterns 512 -width 512 \
		-verify -slo-p99 30s -slo-success 0.999
}

# field extracts a numeric field from the indented JSON report.
field() {
	sed -n 's/.*"'"$2"'": \([0-9.]*\).*/\1/p' "$1" | head -n 1
}

# measure boots a daemon with the given flags, replays into $1.json and
# sets $cpu_us to the daemon's CPU per request over the replay.
measure() {
	out=$1
	shift
	boot "$@"
	t0=$(cputicks)
	if ! replay "$addr" >"$tmp/$out.json"; then
		echo "cache-smoke: $out replay reported SLO violations:" >&2
		cat "$tmp/$out.json" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	t1=$(cputicks)
	stop
	# One clock tick is 10 ms (the /proc ABI fixes USER_HZ at 100).
	cpu_us=$(awk "BEGIN { printf \"%.1f\", ($t1 - $t0) * 10000 / $n }")
}

# Warm pass: cache on (the default).
measure warm
warm_cpu=$cpu_us
mismatches=$(field "$tmp/warm.json" verify_mismatches)
if [ "$mismatches" != "0" ]; then
	echo "cache-smoke: $mismatches cached responses differed from the reference encode:" >&2
	cat "$tmp/warm.json" >&2
	exit 1
fi
ratio=$(field "$tmp/warm.json" cache_hit_ratio)
if ! awk "BEGIN { exit !($ratio > 0.9) }"; then
	echo "cache-smoke: cache hit ratio $ratio, want > 0.9:" >&2
	cat "$tmp/warm.json" >&2
	exit 1
fi

# Baseline pass: the identical seeded replay with the cache off. Every
# duplicate re-runs the codec.
measure cold -cache=false
cold_cpu=$cpu_us
cold_ratio=$(field "$tmp/cold.json" cache_hit_ratio)
if [ "$cold_ratio" != "0" ]; then
	echo "cache-smoke: -cache=false still reported hit ratio $cold_ratio" >&2
	exit 1
fi

if ! awk "BEGIN { exit !($cold_cpu > 0 && $warm_cpu <= $CPU_RATIO_MAX * $cold_cpu) }"; then
	echo "cache-smoke: cached CPU $warm_cpu us/request is above $CPU_RATIO_MAX x the no-cache baseline $cold_cpu us/request" >&2
	cat "$tmp/warm.json" "$tmp/cold.json" >&2
	exit 1
fi

# Unique-only pass: with -dup-ratio 0 ninecload replays its corpus
# round-robin, so a corpus of -n sets sends every body exactly once.
# Each request is a first sighting, and the cache must stay empty.
boot
if ! "$tmp/ninecload" -addr "$addr" -n 64 -c 8 -seed 9414 \
	-mix 0 -dup-ratio 0 -corpus 64 -patterns 64 -width 256 \
	-verify -slo-p99 30s -slo-success 0.999 >"$tmp/unique.json"; then
	echo "cache-smoke: unique replay reported SLO violations:" >&2
	cat "$tmp/unique.json" >&2
	exit 1
fi
prom=$(curl -fsS "http://$addr/metrics")
stop
entries=$(printf '%s\n' "$prom" | sed -n 's/^ninecd_cache_entries \([0-9.]*\)$/\1/p')
first=$(printf '%s\n' "$prom" | sed -n 's/^ninecd_cache_first_sighting_total \([0-9.]*\)$/\1/p')
if [ "$entries" != "0" ] || [ "$first" != "64" ]; then
	echo "cache-smoke: after 64 unique bodies ninecd.cache.entries is '$entries' and first_sighting '$first', want 0 and 64" >&2
	exit 1
fi

speedup=$(awk "BEGIN { printf \"%.2f\", $warm_cpu / $cold_cpu }")
echo "cache-smoke: ok (hit ratio $ratio; daemon CPU $warm_cpu vs $cold_cpu us/request, ratio $speedup <= $CPU_RATIO_MAX; 64 unique bodies left 0 entries)"
