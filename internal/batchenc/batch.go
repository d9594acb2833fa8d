// Package batchenc is the /encode encode-and-frame step: one parsed
// 01X set in, one chunked v4 container out. It runs on the caller's
// goroutine with a pooled workspace, so concurrent requests encode in
// parallel, and the container is freshly allocated so it outlives the
// workspace's next use.
package batchenc

import (
	"bytes"
	"context"

	"repro/internal/codecopt"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/tcube"
)

// Request is one encode job: the parsed 01X set plus the codec
// parameters the ninecd query string carries.
type Request struct {
	Set  *tcube.Set
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
	set := req.Set
	var cdc *core.Codec
	var err error
	if req.Profile != nil {
		if cdc, err = req.Profile.Codec(); err != nil {
			return Result{}, err
		}
		if set, err = req.Profile.Fill.Apply(set); err != nil {
			return Result{}, err
		}
	} else if cdc, err = e.cfg.Codec(req.K); err != nil {
		return Result{}, err
	}
	res, err := cdc.EncodeSetWSCtx(ctx, ws, set)
	if err != nil {
		return Result{}, err
	}
	if req.Profile == nil && req.FD {
		// Frequency-directed mode needs the first-pass counts, so it is
		// inherently two-pass.
		cdc, err = core.NewWithAssignment(req.K, core.FrequencyDirected(res.Counts))
		if err != nil {
			return Result{}, err
		}
		if res, err = cdc.EncodeSetWSCtx(ctx, ws, set); err != nil {
			return Result{}, err
		}
	}
	res.Name = req.Name
	var buf bytes.Buffer
	if err := container.WriteVersion(&buf, res, container.Magic4); err != nil {
		return Result{}, err
	}
	return Result{
		Container:      buf.Bytes(),
		Patterns:       res.Patterns,
		CompressedBits: res.CompressedBits(),
	}, nil
}
