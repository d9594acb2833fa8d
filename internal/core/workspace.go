package core

import (
	"context"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/tcube"
)

// Workspace owns the reusable scratch of an encode: the stream plane
// backings, a re-pointed stream cube, and a Result. With a warm
// workspace, an encode allocates nothing per call (pinned by an
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

// EncodeSetWS is Encode into ws, under no context.
func (c *Codec) EncodeSetWS(ws *Workspace, s *tcube.Set) (*Result, error) {
	return c.encode(context.Background(), s, ws)
}

// EncodeSetWSCtx is Encode into ws, under ctx.
func (c *Codec) EncodeSetWSCtx(ctx context.Context, ws *Workspace, s *tcube.Set) (*Result, error) {
	return c.encode(ctx, s, ws)
}
