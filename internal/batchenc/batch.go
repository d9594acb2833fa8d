// Package batchenc is the /encode encode-and-frame step: one 01X set
// in, as text or parsed, one chunked v4 container out. It runs on the
// caller's goroutine with a pooled workspace, so concurrent requests
// encode in parallel, and the container is freshly allocated so it
// outlives the workspace's next use.
package batchenc

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/codecopt"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// Request is one encode job: the 01X set plus the codec parameters the
// ninecd query string carries.
type Request struct {
	Set *tcube.Set
	// Text, used when Set is nil, is the set as 01X text. It is encoded
	// straight from the bytes (core.Codec.EncodeText) when that path
	// vouches for it, and otherwise parsed with tcube.Read, so errors
	// are the parser's; a text with no pattern row is an "empty test
	// set" error.
	Text []byte
	K    int
	FD   bool // frequency-directed two-pass assignment
	Name string
	// Profile, when non-nil, overrides K/FD entirely: the job encodes
	// with the tuned assignment, block size, and fill the profile
	// carries (the X-Codec-Profile path).
	Profile *codecopt.Profile
}

// Result is the finished container plus the response-header facts.
type Result struct {
	Container      []byte
	Patterns       int
	CompressedBits int
}

// Config assembles an Encoder.
type Config struct {
	// Codec resolves a block size to a default-assignment codec;
	// nil uses core.New per job (ninecd passes its shared codec cache).
	Codec func(k int) (*core.Codec, error)
}

// Encoder runs encode jobs. Safe for concurrent use.
type Encoder struct {
	cfg Config
}

// New builds an Encoder from cfg.
func New(cfg Config) *Encoder {
	if cfg.Codec == nil {
		cfg.Codec = core.New
	}
	return &Encoder{cfg: cfg}
}

// Encode runs one job: encode (twice for frequency-directed mode, or
// under the profile's fill, block size and assignment), then frame the
// chunked v4 container. A profiled container serializes the
// assignment's codewords, so decoding it needs no profile.
func (e *Encoder) Encode(ctx context.Context, req Request) (Result, error) {
	ws := core.GetWorkspace()
	defer ws.Release()
	res, ok, err := e.encodeText(ctx, ws, req)
	if !ok {
		res, err = e.encodeSet(ctx, ws, req)
	}
	if err != nil {
		return Result{}, err
	}
	res.Name = req.Name
	cont, err := container.MarshalV4(res)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Container:      cont,
		Patterns:       res.Patterns,
		CompressedBits: res.CompressedBits(),
	}, nil
}

// encodeText is the text path: req.Text straight into the word kernel,
// twice in frequency-directed mode. ok=false leaves the job to
// encodeSet: a parsed Set, a profile (its fill needs a Set), a block
// size without a kernel or a bad one (the parser's error comes first),
// or a text EncodeText does not vouch for.
func (e *Encoder) encodeText(ctx context.Context, ws *core.Workspace, req Request) (*core.Result, bool, error) {
	if req.Set != nil || req.Profile != nil {
		return nil, false, nil
	}
	cdc, err := e.cfg.Codec(req.K)
	if err != nil {
		return nil, false, nil
	}
	res, ok := cdc.EncodeText(ctx, req.Text, ws)
	if !ok || !req.FD {
		return res, ok, nil
	}
	if cdc, err = core.NewWithAssignment(req.K, core.FrequencyDirected(res.Counts)); err != nil {
		return nil, true, err
	}
	res, ok = cdc.EncodeText(ctx, req.Text, ws)
	return res, ok, nil
}

// encodeSet is the parser path: req.Set, or req.Text parsed by
// tcube.Read, through Codec.Encode.
func (e *Encoder) encodeSet(ctx context.Context, ws *core.Workspace, req Request) (*core.Result, error) {
	set := req.Set
	if set == nil {
		var err error
		if set, err = tcube.Read(req.Name, bytes.NewReader(req.Text)); err != nil {
			return nil, err
		}
		if set.Len() == 0 {
			return nil, fmt.Errorf("empty test set: %w", robust.ErrCorrupt)
		}
	}
	var cdc *core.Codec
	var err error
	if req.Profile != nil {
		if cdc, err = req.Profile.Codec(); err != nil {
			return nil, err
		}
		if set, err = req.Profile.Fill.Apply(set); err != nil {
			return nil, err
		}
	} else if cdc, err = e.cfg.Codec(req.K); err != nil {
		return nil, err
	}
	res, err := cdc.EncodeSetWSCtx(ctx, ws, set)
	if err != nil {
		return nil, err
	}
	if req.Profile == nil && req.FD {
		// Frequency-directed mode needs the first-pass counts, so it is
		// inherently two-pass.
		cdc, err = core.NewWithAssignment(req.K, core.FrequencyDirected(res.Counts))
		if err != nil {
			return nil, err
		}
		if res, err = cdc.EncodeSetWSCtx(ctx, ws, set); err != nil {
			return nil, err
		}
	}
	return res, nil
}
