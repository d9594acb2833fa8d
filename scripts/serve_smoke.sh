#!/bin/sh
# serve-smoke gate: boot ninecd on an ephemeral port, round-trip the
# example cube set through /encode -> /decode with curl, scrape the
# Prometheus text exposition at /metrics, check the X-Request-ID echo,
# drive ninestat -once against the live daemon under curl load, then
# prove SIGTERM drains gracefully (exit 0, drain log).
set -eu

GO=${GO:-go}
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

$GO build -o "$tmp/ninecd" ./cmd/ninecd
$GO build -o "$tmp/ninestat" ./cmd/ninestat
"$tmp/ninecd" -addr localhost:0 -k 8 >"$tmp/log" 2>&1 &
pid=$!

# The daemon logs its bound address; poll for it.
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/.*listening on //p' "$tmp/log" | head -n 1)
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "serve-smoke: ninecd died on startup:" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "serve-smoke: never saw a listen address" >&2
	cat "$tmp/log" >&2
	exit 1
fi
base="http://$addr"

curl -fsS "$base/healthz" >/dev/null

# Round trip: 01X text -> v4 container -> 01X text. The decoded side
# may specify bits the source left as X (matched halves get filled),
# so compare pattern counts and check the source's care bits survive
# via the ninec verifier semantics: same pattern count, same width.
curl -fsS -o "$tmp/out.9c" --data-binary @examples/cubes.txt \
	"$base/encode?k=8&name=smoke"
curl -fsS -o "$tmp/out.txt" --data-binary @"$tmp/out.9c" "$base/decode"

want=$(grep -c '^[01X]' examples/cubes.txt)
got=$(grep -c '^[01X]' "$tmp/out.txt")
if [ "$want" != "$got" ]; then
	echo "serve-smoke: round trip lost patterns: want $want, got $got" >&2
	exit 1
fi

# Every response must echo X-Request-ID: an inbound value verbatim, a
# generated one otherwise.
echoed=$(curl -fsS -D - -o /dev/null -H 'X-Request-ID: smoke-rid-7' "$base/healthz" |
	tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p')
if [ "$echoed" != "smoke-rid-7" ]; then
	echo "serve-smoke: X-Request-ID not echoed (got '$echoed')" >&2
	exit 1
fi
generated=$(curl -fsS -D - -o /dev/null "$base/healthz" |
	tr -d '\r' | sed -n 's/^[Xx]-[Rr]equest-[Ii][Dd]: //p')
if [ -z "$generated" ]; then
	echo "serve-smoke: no generated X-Request-ID on a bare request" >&2
	exit 1
fi

# Prometheus exposition: a histogram _bucket series and the request
# counter family must be present in valid text format.
prom=$(curl -fsS "$base/metrics")
case $prom in
*'_bucket{le="'*) ;;
*)
	echo "serve-smoke: /metrics has no _bucket series:" >&2
	echo "$prom" | head -40 >&2
	exit 1
	;;
esac
case $prom in
*'ninecd_http_requests_total'*) ;;
*)
	echo "serve-smoke: /metrics missing ninecd_http_requests_total:" >&2
	echo "$prom" | head -40 >&2
	exit 1
	;;
esac

# The one smoke /encode so far is counted by its route.
case $prom in
*'ninecd_http_encode_requests_total 1'*) ;;
*)
	echo "serve-smoke: /metrics missing ninecd_http_encode_requests_total 1:" >&2
	echo "$prom" | grep ninecd_http_encode >&2
	exit 1
	;;
esac

# ninestat -once against the live daemon while curl generates load: the
# summary must be JSON reporting non-zero req/s and a non-zero encode
# p50 and p99.
(
	i=0
	while [ $i -lt 50 ]; do
		curl -fsS -o /dev/null --data-binary @examples/cubes.txt \
			"$base/encode?k=8&name=load" || break
		i=$((i + 1))
	done
) &
loadpid=$!
"$tmp/ninestat" -addr "$addr" -once -interval 1s >"$tmp/stat.json"
wait "$loadpid" || true
rps=$(sed -n 's/^[[:space:]]*"req_per_sec": \([0-9.]*\).*/\1/p' "$tmp/stat.json" | head -n 1)
case $rps in
'' | 0 | 0.0)
	echo "serve-smoke: ninestat -once reported req/s '$rps' under load:" >&2
	cat "$tmp/stat.json" >&2
	exit 1
	;;
esac
lat=$(awk '/"route": "encode"/ { e = 1 }
	e && /"p50_ms"/ { p50 = $2 }
	e && /"p99_ms"/ { print p50, $2; exit }' "$tmp/stat.json" | tr -d ',')
case $lat in
'' | '0 '* | *' 0')
	echo "serve-smoke: ninestat -once reported encode p50/p99 '$lat' under load:" >&2
	cat "$tmp/stat.json" >&2
	exit 1
	;;
esac

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$pid"
if ! wait "$pid"; then
	echo "serve-smoke: ninecd exited non-zero after SIGTERM:" >&2
	cat "$tmp/log" >&2
	exit 1
fi
if ! grep -q "drained" "$tmp/log"; then
	echo "serve-smoke: no drain message in the log:" >&2
	cat "$tmp/log" >&2
	exit 1
fi
pid=

echo "serve-smoke: ok ($want patterns round-tripped via $base)"
