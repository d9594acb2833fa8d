package core

import (
	"context"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/tcube"
)

// Workspace owns the reusable scratch of the kernel encode path: the
// encode plane backings, a re-pointed stream cube, and a Result. With a
// warm workspace, EncodeSetWS allocates nothing per call (pinned by an
// AllocsPerRun test), which keeps the /encode request path and tight
// re-encode loops off the garbage collector. Decoding needs no
// workspace: a StreamDecoder reuses its own per-pattern scratch.
//
// The returned Result and its Stream alias workspace memory: they stay
// valid only until the workspace's next use or Release. Callers that
// need the data past that point must copy it first.
type Workspace struct {
	enc    kernelWriter
	stream *bitvec.Cube // aliases enc's planes
	res    Result
}

// wsPool recycles workspaces (and their grown backings) across
// goroutines and requests.
var wsPool = sync.Pool{New: func() any { return new(Workspace) }}

// GetWorkspace fetches a workspace from the shared pool.
func GetWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// Release returns the workspace to the pool. The caller must be done
// with every Result and cube obtained from it.
func (ws *Workspace) Release() { wsPool.Put(ws) }

// takeStream wraps the encode writer's planes as the workspace's
// reusable stream cube.
func (ws *Workspace) takeStream() *bitvec.Cube {
	if ws.stream == nil {
		ws.stream = bitvec.CubeOfWords(ws.enc.n, ws.enc.care, ws.enc.val)
	} else {
		ws.stream.ResetWords(ws.enc.n, ws.enc.care, ws.enc.val)
	}
	return ws.stream
}

// EncodeSetWS is EncodeSet into a reusable workspace: same stream,
// same statistics, no per-call allocation once the workspace is warm
// (kernel block sizes; other K values fall back to the allocating
// path). The Result and its Stream alias ws.
func (c *Codec) EncodeSetWS(ws *Workspace, s *tcube.Set) (*Result, error) {
	return c.EncodeSetWSCtx(context.Background(), ws, s)
}

// EncodeSetWSCtx is EncodeSetWS with cancellation checks at pattern
// granularity; a non-cancellable context costs nothing.
func (c *Codec) EncodeSetWSCtx(ctx context.Context, ws *Workspace, s *tcube.Set) (*Result, error) {
	if !c.hasKernel() {
		if ctx.Done() == nil {
			return c.EncodeSet(s)
		}
		return c.encodeSetSerialCtx(ctx, s)
	}
	sp := obs.SpanCtx(ctx, "core.encode_set")
	blocksPer := (s.Width() + c.k - 1) / c.k
	ws.enc.reset(c.worstBits(blocksPer * s.Len()))
	// Accumulate counts directly in the workspace-resident Result so the
	// pointer handed to the kernel never forces a heap escape.
	ws.res = Result{
		K: c.k, Name: s.Name, Assign: c.assign,
		OrigBits: s.Bits(), Blocks: blocksPer * s.Len(),
		Patterns: s.Len(), Width: s.Width(),
	}
	counts := &ws.res.Counts
	cancellable := ctx.Done() != nil
	for i := 0; i < s.Len(); i++ {
		if cancellable {
			if err := ctx.Err(); err != nil {
				sp.Set("error", err.Error()).End()
				return nil, err
			}
		}
		care, val := s.Cube(i).RawWords()
		c.kenc(c, care, val, blocksPer, &ws.enc, counts)
	}
	stream := ws.takeStream()
	ws.res.Stream = stream
	ws.res.LeftoverX = stream.XCount()
	observeEncode(sp, &ws.res, "serial")
	return &ws.res, nil
}
