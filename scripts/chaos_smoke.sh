#!/bin/sh
# chaos-smoke gate: boot ninecd, then fire ninecload at it through the
# seeded chaos proxy — added latency, 5% connection resets, 5%
# slow-loris drips — and require a clean SLO verdict: every request
# lands or fails with a classified error, nothing overruns its retry
# budget, the daemon never panics, and client p99 stays inside a
# CI-generous objective. The run must also exercise the retry loop: at
# least one reset fired, retried and recovered. Finishes by proving
# SIGTERM still drains (readyz flips to 503 before the listener
# closes).
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
$GO build -o "$tmp/ninecload" ./cmd/ninecload
"$tmp/ninecd" -addr localhost:0 -k 8 >"$tmp/log" 2>&1 &
pid=$!

# The daemon logs its bound address; poll for it.
addr=
i=0
while [ $i -lt 100 ]; do
	addr=$(sed -n 's/.*listening on //p' "$tmp/log" | head -n 1)
	[ -n "$addr" ] && break
	if ! kill -0 "$pid" 2>/dev/null; then
		echo "chaos-smoke: ninecd died on startup:" >&2
		cat "$tmp/log" >&2
		exit 1
	fi
	sleep 0.1
	i=$((i + 1))
done
if [ -z "$addr" ]; then
	echo "chaos-smoke: never saw a listen address" >&2
	cat "$tmp/log" >&2
	exit 1
fi

# Seeded chaos load: the run is replayable with the same seed. The p99
# objective is generous because CI machines are noisy; the invariants
# that must hold exactly (zero unclassified, zero panics, budgets
# respected, success rate) are enforced by ninecload itself.
#
# The proxy plans each reset at a downstream byte offset in [0, 4096),
# so a reset only fires on a response longer than that. 256 patterns
# of 64 bits make every response longer: ~16.6 KB of decoded text,
# ~5 KB of container.
if ! "$tmp/ninecload" \
	-addr "$addr" -n 120 -c 8 -seed 9314 -patterns 256 \
	-chaos-latency 5ms -chaos-reset 0.05 -chaos-slowloris 0.05 \
	-retries 6 -budget 20s -attempt-timeout 5s \
	-slo-p99 15s -slo-success 0.99 >"$tmp/report.json"; then
	echo "chaos-smoke: ninecload reported SLO violations:" >&2
	cat "$tmp/report.json" >&2
	cat "$tmp/log" >&2
	exit 1
fi

# Belt and braces on top of ninecload's own exit code: the report must
# say zero unclassified errors and zero daemon panics in so many words.
for want in '"unclassified": 0' '"daemon_panics": 0'; do
	if ! grep -q "$want" "$tmp/report.json"; then
		echo "chaos-smoke: report missing $want:" >&2
		cat "$tmp/report.json" >&2
		exit 1
	fi
done

# The faults must have reached the retry loop, or the smoke proves
# nothing about it: at least one reset, one retry, one recovery.
field() {
	sed -n "s/^ *\"$1\": \([0-9][0-9]*\).*/\1/p" "$tmp/report.json" | head -n 1
}
for f in resets retries recovered; do
	n=$(field "$f")
	if [ "${n:-0}" -lt 1 ]; then
		echo "chaos-smoke: report has $f=${n:-missing}, want >= 1:" >&2
		cat "$tmp/report.json" >&2
		exit 1
	fi
done

# Drain correctness after chaos: readyz must flip to 503 the moment
# SIGTERM lands, then the process exits 0 with the drain log line.
kill -TERM "$pid"
readyz=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/readyz" || true)
case $readyz in
503 | 000) ;; # 000: listener already closed, also an honest "not ready"
*)
	echo "chaos-smoke: readyz returned $readyz during drain, want 503" >&2
	exit 1
	;;
esac
if ! wait "$pid"; then
	echo "chaos-smoke: ninecd exited non-zero after SIGTERM:" >&2
	cat "$tmp/log" >&2
	exit 1
fi
if ! grep -q "drained" "$tmp/log"; then
	echo "chaos-smoke: no drain message in the log:" >&2
	cat "$tmp/log" >&2
	exit 1
fi
pid=

echo "chaos-smoke: ok (120 requests through seeded chaos at $addr)"
