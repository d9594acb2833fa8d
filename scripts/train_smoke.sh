#!/bin/sh
# train-smoke gate: boot ninecd, train a tuned codec profile on the
# example corpus, and require (1) a stable profile ID — training twice
# yields the same sha256, (2) non-negative CR
# uplift over the fixed 9C code, (3) byte-identical profiled encodes
# that still decode back to the full pattern count, (4) the canonical
# profile text retrievable at /profiles/{id}.
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
"$tmp/ninecd" -addr localhost:0 -k 8 >"$tmp/log" 2>&1 &
pid=$!

# The daemon logs its bound address; poll for it.
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/.*listening on //p' "$tmp/log" | head -n 1)
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "train-smoke: ninecd died on startup:" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "train-smoke: never saw a listen address" >&2
	cat "$tmp/log" >&2
	exit 1
fi
base="http://$addr"

curl -fsS "$base/healthz" >/dev/null

# Training is deterministic, so the profile ID (sha256 of the canonical
# profile) must come out identical on a second run over the same corpus.
curl -fsS -o "$tmp/train1.json" --data-binary @examples/cubes.txt "$base/train"
curl -fsS -o "$tmp/train2.json" --data-binary @examples/cubes.txt "$base/train"
id=$(sed -n 's/.*"id":"\([0-9a-f]\{64\}\)".*/\1/p' "$tmp/train1.json" | head -n 1)
id2=$(sed -n 's/.*"id":"\([0-9a-f]\{64\}\)".*/\1/p' "$tmp/train2.json" | head -n 1)
if [ -z "$id" ]; then
	echo "train-smoke: no profile ID in the train report:" >&2
	cat "$tmp/train1.json" >&2
	exit 1
fi
if [ "$id" != "$id2" ]; then
	echo "train-smoke: same corpus produced different profiles: $id vs $id2" >&2
	exit 1
fi

# fill=none is searched, and Huffman over its counts costs no more than
# the fixed code, so tuned can never lose.
uplift=$(sed -n 's/.*"uplift_pct":\(-\{0,1\}[0-9.]*\).*/\1/p' "$tmp/train1.json" | head -n 1)
case $uplift in
'' | -*)
	echo "train-smoke: tuned uplift '$uplift' missing or negative:" >&2
	cat "$tmp/train1.json" >&2
	exit 1
	;;
esac

# The canonical profile text must be resident and versioned.
prof=$(curl -fsS "$base/profiles/$id")
case $prof in
'9cprof/1 '*) ;;
*)
	echo "train-smoke: /profiles/$id returned '$prof'" >&2
	exit 1
	;;
esac

# Profiled encodes are deterministic: two encodes of the same corpus
# under the same profile must be byte-identical, and the container
# must decode back to every source pattern.
curl -fsS -o "$tmp/a.9c" -H "X-Codec-Profile: $id" \
	--data-binary @examples/cubes.txt "$base/encode?name=smoke"
curl -fsS -o "$tmp/b.9c" -H "X-Codec-Profile: $id" \
	--data-binary @examples/cubes.txt "$base/encode?name=smoke"
if ! cmp -s "$tmp/a.9c" "$tmp/b.9c"; then
	echo "train-smoke: two profiled encodes of the same corpus differ" >&2
	exit 1
fi
curl -fsS -o "$tmp/out.txt" --data-binary @"$tmp/a.9c" "$base/decode"
want=$(grep -c '^[01X]' examples/cubes.txt)
got=$(grep -c '^[01X]' "$tmp/out.txt")
if [ "$want" != "$got" ]; then
	echo "train-smoke: profiled round trip lost patterns: want $want, got $got" >&2
	exit 1
fi

# An unknown profile must be refused, not silently encoded fixed.
bogus=0000000000000000000000000000000000000000000000000000000000000000
code=$(curl -sS -o /dev/null -w '%{http_code}' \
	-H "X-Codec-Profile: $bogus" \
	--data-binary @examples/cubes.txt "$base/encode?name=smoke")
if [ "$code" != "404" ]; then
	echo "train-smoke: unknown profile got HTTP $code, want 404" >&2
	exit 1
fi

kill -TERM "$pid"
wait "$pid" || true
pid=

echo "train-smoke: ok (profile $(printf %.12s "$id"), uplift +${uplift}pp over fixed 9C, $want patterns round-tripped)"
