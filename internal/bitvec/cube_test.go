package bitvec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustCube(t *testing.T, s string) *Cube {
	t.Helper()
	c, err := ParseCube(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCubeParseString(t *testing.T) {
	c := mustCube(t, "01X-x10")
	if got := c.String(); got != "01XXX10" {
		t.Fatalf("String = %q", got)
	}
	if c.Get(0) != Zero || c.Get(1) != One || c.Get(2) != X || c.Get(4) != X {
		t.Fatal("Get mismatch")
	}
	if c.Specified() != 4 || c.XCount() != 3 {
		t.Fatalf("Specified=%d XCount=%d", c.Specified(), c.XCount())
	}
	if _, err := ParseCube("012"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCubeSetInvariant(t *testing.T) {
	c := NewCube(4)
	c.Set(0, One)
	c.Set(0, X)
	// After reverting to X, the hidden value plane must be cleared so that
	// Equal compares structurally.
	d := NewCube(4)
	if !c.Equal(d) {
		t.Fatal("X-reverted cube differs from fresh all-X cube")
	}
}

func TestCubeCompatibleWindows(t *testing.T) {
	c := mustCube(t, "0X0X1X1X")
	if !c.CompatibleZero(0, 4) {
		t.Fatal("left half should be 0-compatible")
	}
	if c.CompatibleOne(0, 4) {
		t.Fatal("left half should not be 1-compatible")
	}
	if !c.CompatibleOne(4, 8) {
		t.Fatal("right half should be 1-compatible")
	}
	if c.CompatibleZero(4, 8) {
		t.Fatal("right half should not be 0-compatible")
	}
	allX := NewCube(8)
	if !allX.CompatibleZero(0, 8) || !allX.CompatibleOne(0, 8) {
		t.Fatal("all-X window must be both-compatible")
	}
	// Windows past the end behave as X padding.
	if !c.CompatibleZero(6, 12) && !c.CompatibleOne(6, 12) {
		t.Fatal("tail window must be compatible with at least one value")
	}
}

func TestCubeFills(t *testing.T) {
	c := mustCube(t, "X1X0X")
	if got := c.FillConst(Zero).String(); got != "01000" {
		t.Fatalf("FillConst(0) = %q", got)
	}
	if got := c.FillConst(One).String(); got != "11101" {
		t.Fatalf("FillConst(1) = %q", got)
	}
	if got := c.FillAdjacent().String(); got != "11100" {
		t.Fatalf("FillAdjacent = %q", got)
	}
	assertPanics(t, "FillConst X", func() { c.FillConst(X) })

	rng := rand.New(rand.NewSource(1))
	r := c.FillRandom(rng)
	if r.XCount() != 0 {
		t.Fatal("FillRandom left X bits")
	}
	if !c.Covers(r) {
		t.Fatal("random fill contradicts specified bits")
	}
}

func TestCubeFillAdjacentAllX(t *testing.T) {
	c := NewCube(5)
	if got := c.FillAdjacent().String(); got != "00000" {
		t.Fatalf("all-X adjacent fill = %q", got)
	}
	d := mustCube(t, "XXX1X")
	if got := d.FillAdjacent().String(); got != "11111" {
		t.Fatalf("leading-X adjacent fill = %q", got)
	}
}

func TestCubeSlicePadding(t *testing.T) {
	c := mustCube(t, "01X")
	s := c.Slice(1, 6)
	if got := s.String(); got != "1XXXX" {
		t.Fatalf("Slice = %q", got)
	}
	assertPanics(t, "bad slice", func() { c.Slice(2, 1) })
}

func TestCubeCovers(t *testing.T) {
	c := mustCube(t, "0X1X")
	cases := []struct {
		fill string
		want bool
	}{
		{"0010", false}, // position 2 must stay 1? 0X1X vs 0010: pos2 is 1 vs 1 ok, pos0 0 ok... recompute below
		{"0011", true},
		{"0110", true},
		{"1011", false},
	}
	// Fix first row: 0X1X covers 0010? pos0:0=0 ok, pos2:1 vs 1 ok -> true.
	cases[0].want = true
	for _, tc := range cases {
		o := mustCube(t, tc.fill)
		if got := c.Covers(o); got != tc.want {
			t.Errorf("Covers(%s, %s) = %v, want %v", c, o, got, tc.want)
		}
	}
	if c.Covers(mustCube(t, "0X1")) {
		t.Fatal("Covers must reject length mismatch")
	}
}

// Property: every fill strategy yields a fully specified cube covered by
// the original.
func TestCubePropertyFillsPreserveSpecifiedBits(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		c := randomCube(rng, n, 0.5)
		fills := []*Cube{
			c.FillConst(Zero),
			c.FillConst(One),
			c.FillAdjacent(),
			c.FillRandom(rng),
		}
		for _, fc := range fills {
			if fc.XCount() != 0 || !c.Covers(fc) || fc.Len() != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCubePropertyParseStringRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw % 300)
		rng := rand.New(rand.NewSource(seed))
		c := randomCube(rng, n, 0.7)
		rt, err := ParseCube(c.String())
		return err == nil && rt.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomCube builds an n-trit cube where each position is X with
// probability xDensity and otherwise uniform 0/1.
func randomCube(rng *rand.Rand, n int, xDensity float64) *Cube {
	c := NewCube(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < xDensity {
			continue
		}
		if rng.Intn(2) == 1 {
			c.Set(i, One)
		} else {
			c.Set(i, Zero)
		}
	}
	return c
}

func TestTritString(t *testing.T) {
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("Trit.String mismatch")
	}
	if !strings.Contains(Trit(9).String(), "9") {
		t.Fatal("invalid trit should render its value")
	}
}
