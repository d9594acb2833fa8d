package core

import (
	"time"

	"repro/internal/obs"
)

// caseCounters are the metric names of the per-case block counters,
// indexed like Counts (caseCounters[0] tracks N1).
var caseCounters = [NumCases]string{
	"core.case.n1", "core.case.n2", "core.case.n3", "core.case.n4",
	"core.case.n5", "core.case.n6", "core.case.n7", "core.case.n8",
	"core.case.n9",
}

// observeEncode publishes the telemetry of one finished encode — block
// and bit counters, the per-case N_i statistics behind Tables VI/VII,
// and the encode throughput gauge — then ends the stage span sp. When
// telemetry is disabled both sp and the registry are nil and the call
// reduces to two nil checks.
func observeEncode(sp *obs.Span, r *Result) {
	reg := obs.Active()
	if reg == nil {
		sp.End()
		return
	}
	elapsed := sp.Elapsed()
	reg.Counter("core.encode.calls").Inc()
	reg.Counter("core.encode.blocks").Add(int64(r.Blocks))
	reg.Counter("core.encode.bits_in").Add(int64(r.OrigBits))
	reg.Counter("core.encode.bits_out").Add(int64(r.CompressedBits()))
	for cs := CaseAll0; cs <= CaseMisMis; cs++ {
		reg.Counter(caseCounters[cs-1]).Add(int64(r.Counts.N(cs)))
	}
	if ns := elapsed.Nanoseconds(); ns > 0 {
		reg.Gauge("core.encode.bits_per_sec").Set(
			int64(float64(r.OrigBits) * float64(time.Second) / float64(ns)))
	}
	sp.Set("k", r.K).Set("patterns", r.Patterns).
		Set("blocks", r.Blocks).Set("bits_in", r.OrigBits).
		Set("bits_out", r.CompressedBits()).Set("leftover_x", r.LeftoverX).
		End()
}

// observeDecode publishes the telemetry of one finished decode and
// ends its stage span.
func observeDecode(sp *obs.Span, bitsOut int, err error) {
	reg := obs.Active()
	if reg == nil {
		sp.End()
		return
	}
	reg.Counter("core.decode.calls").Inc()
	if err != nil {
		reg.Counter("core.decode.errors").Inc()
		sp.Set("error", err.Error()).End()
		return
	}
	reg.Counter("core.decode.bits_out").Add(int64(bitsOut))
	sp.Set("bits_out", bitsOut).End()
}
