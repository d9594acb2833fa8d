package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// appendBits returns a copy of c with n specified zero bits appended,
// simulating trailing garbage after a well-formed stream.
func appendBits(c *bitvec.Cube, n int) *bitvec.Cube {
	b := bitvec.NewCubeBuilder(c.Len() + n)
	b.AppendCube(c)
	b.AppendWord(^uint64(0), 0, n)
	return b.Build()
}

// mixedSet builds a deterministic mixed-density set.
func mixedSet(name string, patterns, width int) *tcube.Set {
	rng := rand.New(rand.NewSource(int64(patterns)*1000 + int64(width)))
	s := tcube.NewSet(name, width)
	for i := 0; i < patterns; i++ {
		s.MustAppend(diffCube(rng, width, 0.6))
	}
	return s
}

// TestEncodeSetParallelCtxCanceled asserts a canceled context aborts
// Encode promptly with context.Canceled and no partial result. (The
// EncodeSetParallel* names date from the removed worker fan-out; the
// tests now pin the one serial encode's context handling.)
func TestEncodeSetParallelCtxCanceled(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := mixedSet("cancel", 64, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := cdc.Encode(ctx, set)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v, want context.Canceled", err)
	}
	if r != nil {
		t.Error("partial result survived cancellation")
	}
}

// TestEncodeSetParallelCtxDeadline asserts an expired deadline surfaces
// as context.DeadlineExceeded.
func TestEncodeSetParallelCtxDeadline(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := mixedSet("deadline", 16, 40)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cdc.Encode(ctx, set); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want context.DeadlineExceeded", err)
	}
}

// TestEncodeSetParallelCtxIdentical asserts the uncanceled context path
// is bit-identical to EncodeSet — for both a non-cancellable
// Background (the unchecked hot path) and a live cancellable context
// (the per-pattern checked path).
func TestEncodeSetParallelCtxIdentical(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := mixedSet("ident", 23, 40)
	serial, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, ctx := range []context.Context{context.Background(), live} {
		r, err := cdc.Encode(ctx, set)
		if err != nil {
			t.Fatal(err)
		}
		checkSameResult(t, "ctx encode", r, serial)
	}
}

// TestEncodeSetParallelCtxMidwayCancel cancels while the encode runs
// and accepts either outcome — a clean full result (the race was won)
// or context.Canceled with no result — but never a partial.
func TestEncodeSetParallelCtxMidwayCancel(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := mixedSet("midway", 256, 64)
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	r, err := cdc.Encode(ctx, set)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err %v, want context.Canceled", err)
		}
		if r != nil {
			t.Fatal("partial result returned alongside cancellation")
		}
		return
	}
	serial, serr := cdc.EncodeSet(set)
	if serr != nil {
		t.Fatal(serr)
	}
	checkSameResult(t, "midway", r, serial)
}

// TestDecodeCubePartial truncates an encoded cube stream and asserts
// the lenient decoder salvages the whole-block prefix while reporting a
// taxonomy error, and that a clean stream decodes without error.
func TestDecodeCubePartial(t *testing.T) {
	cdc := mustCodec(t, 8)
	rng := rand.New(rand.NewSource(7))
	flat := diffCube(rng, 64, 0.5)
	r, err := cdc.EncodeCube(flat)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cdc.DecodeCube(r.Stream, r.OrigBits)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := cdc.DecodeCubePartial(r.Stream, r.OrigBits)
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if !clean.Equal(full) {
		t.Fatal("clean partial decode differs from DecodeCube")
	}

	cut := r.Stream.Slice(0, r.Stream.Len()-3)
	got, err := cdc.DecodeCubePartial(cut, r.OrigBits)
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if !robust.IsClassified(err) {
		t.Fatalf("error outside taxonomy: %v", err)
	}
	if got == nil || got.Len() > full.Len() || got.Len()%cdc.K() != 0 && got.Len() != r.OrigBits {
		t.Fatalf("salvaged %v", got)
	}
	if !got.Equal(full.Slice(0, got.Len())) {
		t.Fatal("salvaged prefix disagrees with clean decode")
	}
}

// TestDecodeSetPartial corrupts the tail of an encoded set stream and
// asserts the lenient decoder recovers the pattern prefix intact.
func TestDecodeSetPartial(t *testing.T) {
	src := "0000000011111111\n01X011011XXXXX10\n1111000011XX0000\nXXXXXXXX00000000"
	set, err := tcube.Read("p", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	cdc := mustCodec(t, 8)
	r, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}

	clean, err := cdc.DecodeSetPartial(r.Stream, set.Width(), set.Len())
	if err != nil {
		t.Fatalf("clean stream: %v", err)
	}
	if clean.Len() != set.Len() {
		t.Fatalf("clean partial decode recovered %d/%d patterns", clean.Len(), set.Len())
	}

	cut := r.Stream.Slice(0, r.Stream.Len()-2)
	got, err := cdc.DecodeSetPartial(cut, set.Width(), set.Len())
	if err == nil {
		t.Fatal("truncated stream decoded without error")
	}
	if !robust.IsClassified(err) {
		t.Fatalf("error outside taxonomy: %v", err)
	}
	if got == nil || got.Len() >= set.Len() || got.Len() == 0 {
		t.Fatalf("salvaged %d patterns from a tail-truncated 4-pattern stream", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !got.Cube(i).Equal(clean.Cube(i)) {
			t.Fatalf("salvaged pattern %d disagrees with clean decode", i)
		}
	}

	// Trailing garbage keeps every pattern but reports the fault.
	long := r.Stream.Slice(0, r.Stream.Len()) // copy
	withTail, err := cdc.DecodeSetPartial(appendBits(long, 5), set.Width(), set.Len())
	if err == nil || !errors.Is(err, robust.ErrCorrupt) {
		t.Fatalf("trailing bits: err %v, want ErrCorrupt", err)
	}
	if withTail.Len() != set.Len() {
		t.Fatalf("trailing bits dropped patterns: %d/%d", withTail.Len(), set.Len())
	}
}

// TestTrailingBitsClassified appends trailing bits to valid streams and
// asserts every exported decode entry point reports them as a
// classified ErrCorrupt.
func TestTrailingBitsClassified(t *testing.T) {
	cdc := mustCodec(t, 8)
	set := mixedSet("trail", 3, 20)
	rs, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cdc.EncodeCube(set.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	setTail, cubeTail := appendBits(rs.Stream, 3), appendBits(rc.Stream, 3)
	cases := []struct {
		name string
		run  func() error
	}{
		{"DecodeSet", func() error { _, err := cdc.DecodeSet(setTail, rs.Width, rs.Patterns); return err }},
		{"DecodeSetPartial", func() error { _, err := cdc.DecodeSetPartial(setTail, rs.Width, rs.Patterns); return err }},
		{"DecodeCube", func() error { _, err := cdc.DecodeCube(cubeTail, rc.OrigBits); return err }},
		{"DecodeCubePartial", func() error { _, err := cdc.DecodeCubePartial(cubeTail, rc.OrigBits); return err }},
		{"CountsOfStream/set", func() error { _, err := CountsOfStream(cdc, setTail, rs.Blocks); return err }},
		{"CountsOfStream/cube", func() error { _, err := CountsOfStream(cdc, cubeTail, rc.Blocks); return err }},
		{"DecodeCube/empty", func() error { _, err := cdc.DecodeCube(appendBits(bitvec.NewCube(0), 1), 0); return err }},
	}
	for _, tc := range cases {
		err := tc.run()
		if !errors.Is(err, robust.ErrCorrupt) || !robust.IsClassified(err) {
			t.Errorf("%s: err %v, want classified ErrCorrupt", tc.name, err)
		}
	}
}
