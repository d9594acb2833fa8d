# bench_verdict: the pass/fail rule of scripts/bench_pairs.sh. Input
# lines are "SIDE PAIR NAME NS" (SIDE is base or head, NS the ns/op of
# NAME in pair PAIR), as the script writes them. For every NAME it
# prints each side's median ns/op with its [min, max], the delta of the
# medians, how many pairs the working tree (head) won, and a verdict.
#
# A benchmark fails when head's median is worse than base's by more than
# bound AND base won most of the pairs both sides ran: a median shift
# alone can be one noisy run, a majority alone can be a tie broken by
# noise. A benchmark found on one side only is listed, not failed. The
# exit status is 1 if any benchmark fails.
#
#   awk -f scripts/bench_verdict.awk PAIRS

BEGIN { bound = 0.10 }

# stats(s) sets med, lo and hi of the space-separated values in s.
function stats(s,    v, k, i, j, t) {
	k = split(s, v, " ")
	for (i = 2; i <= k; i++)
		for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) {
			t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
		}
	med = k % 2 ? v[(k + 1) / 2] : (v[k / 2] + v[k / 2 + 1]) / 2
	lo = v[1]; hi = v[k]
}

NF == 4 {
	if (!($3 in seen)) { seen[$3] = 1; names[++nn] = $3 }
	vals[$1, $3] = vals[$1, $3] " " $4
	ns[$1, $2, $3] = $4
	if ($2 + 0 > np) np = $2 + 0
}

END {
	printf "%-44s %30s %30s %7s %6s  %s\n", "ns/op", "base median [min, max]", "head median [min, max]", "delta", "wins", "verdict"
	failed = 0
	for (i = 1; i <= nn; i++) {
		b = names[i]
		if (!(("base", b) in vals) || !(("head", b) in vals)) {
			side = ("base", b) in vals ? "base" : "head"
			stats(vals[side, b])
			printf "%-44s %10.0f [%8.0f, %8.0f] %-30s %7s %6s  %s only\n", b, med, lo, hi, "", "", "", side
			continue
		}
		stats(vals["base", b]); bm = med; bl = lo; bh = hi
		stats(vals["head", b]); hm = med; hl = lo; hh = hi
		wins = 0; losses = 0; pairs = 0
		for (p = 1; p <= np; p++)
			if (("base", p, b) in ns && ("head", p, b) in ns) {
				pairs++
				if (ns["head", p, b] + 0 < ns["base", p, b] + 0) wins++
				if (ns["base", p, b] + 0 < ns["head", p, b] + 0) losses++
			}
		verdict = "ok"
		if (hm > bm * (1 + bound) && 2 * losses > pairs) { verdict = "FAIL"; failed++ }
		printf "%-44s %10.0f [%8.0f, %8.0f] %10.0f [%8.0f, %8.0f] %+6.1f%% %3d/%-2d  %s\n",
			b, bm, bl, bh, hm, hl, hh, 100 * (hm - bm) / bm, wins, pairs, verdict
	}
	if (failed) {
		printf "bench verdict: %d benchmark(s) slower by more than %d%% in most pairs\n", failed, 100 * bound
		exit 1
	}
}
