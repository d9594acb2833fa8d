package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/tcube"
)

// encodeParallel is Encode's fan-out: the set is split into workers
// contiguous pattern chunks (the same chunking as
// faultsim.CampaignParallel), each worker encodes its chunk into a
// private writer, and the writers are appended to w in chunk order with
// the per-chunk Counts summed into counts. Patterns are encoded
// independently — each scan load pads to a block multiple on its own —
// so the stream is bit-identical to a serial encode. A panicking worker
// is recovered into an error instead of killing the process, so one
// poisoned pattern cannot take down a service encoding many sets.
func (c *Codec) encodeParallel(ctx context.Context, sp *obs.Span, s *tcube.Set, workers int, w *kernelWriter, counts *Counts) error {
	per := (s.Len() + workers - 1) / workers
	blocksPer := (s.Width() + c.k - 1) / c.k
	n := (s.Len() + per - 1) / per
	subs := make([]*kernelWriter, n)
	subCounts := make([]Counts, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range subs {
		lo := i * per
		hi := min(lo+per, s.Len())
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("core: encode worker %d panicked: %v", i, p)
				}
			}()
			wsp := sp.Child("core.encode_worker")
			if encodeWorkerHook != nil {
				encodeWorkerHook(i)
			}
			// The writer and counts are the worker's own allocations:
			// adjacent slice elements would share cache lines across
			// cores on every block.
			sub, cnt := new(kernelWriter), new(Counts)
			sub.reset(c.worstBits(blocksPer * (hi - lo)))
			if errs[i] = c.encodeRange(ctx, s, lo, hi, sub, cnt); errs[i] != nil {
				wsp.Set("worker", i).Set("error", errs[i].Error()).End()
				return
			}
			subs[i], subCounts[i] = sub, *cnt
			wsp.Set("worker", i).Set("lo", lo).Set("hi", hi).Set("bits_out", sub.n).End()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	total := 0
	for _, sub := range subs {
		total += sub.n
	}
	w.reset(total)
	for i, sub := range subs {
		w.appendRange(sub.care, sub.val, 0, sub.n)
		for cs, n := range subCounts[i] {
			counts[cs] += n
		}
	}
	return nil
}

// encodeWorkerHook, when non-nil, runs at the top of each encode
// worker goroutine. It exists so tests can inject a worker panic and
// prove the recovery path contains it; production code never sets it.
var encodeWorkerHook func(worker int)
