package tcube

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
)

func mustSet(t *testing.T, name string, rows ...string) *Set {
	t.Helper()
	s, err := Read(name, strings.NewReader(strings.Join(rows, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetBasics(t *testing.T) {
	s := mustSet(t, "demo", "01XX", "1X0X", "# comment ignored", "", "XXXX")
	if s.Len() != 3 || s.Width() != 4 || s.Bits() != 12 {
		t.Fatalf("Len=%d Width=%d Bits=%d", s.Len(), s.Width(), s.Bits())
	}
	if s.XCount() != 8 {
		t.Fatalf("XCount = %d, want 8", s.XCount())
	}
	if got := s.XPercent(); got < 66.6 || got > 66.7 {
		t.Fatalf("XPercent = %f", got)
	}
}

func TestSetAppendWidthMismatch(t *testing.T) {
	s := NewSet("w", 4)
	if err := s.Append(bitvec.NewCube(5)); err == nil {
		t.Fatal("expected width mismatch error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAppend should panic")
		}
	}()
	s.MustAppend(bitvec.NewCube(5))
}

func TestReadRejectsRaggedAndBadChars(t *testing.T) {
	if _, err := Read("r", strings.NewReader("0101\n011")); err == nil {
		t.Fatal("expected ragged-width error")
	}
	if _, err := Read("r", strings.NewReader("01a1")); err == nil {
		t.Fatal("expected bad character error")
	}
	s, err := Read("empty", strings.NewReader("# only comments\n\n"))
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty read: %v, len=%d", err, s.Len())
	}
}

// TestReadBufferSizing pins the scanner sizing: a small set parses
// without a megabyte-scale buffer, a 2 MiB line still parses, and a
// line past the 16 MiB cap is refused.
func TestReadBufferSizing(t *testing.T) {
	small := strings.Repeat("01XX10X1\n", 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if _, err := Read("small", strings.NewReader(small)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 64<<10 {
		t.Fatalf("parsing a 576-byte set allocated %d bytes per call", per)
	}
	long := strings.Repeat("0X1", 700_000) // 2.1 MB on one line
	s, err := Read("long", strings.NewReader(long+"\n"+long+"\n"))
	if err != nil || s.Len() != 2 || s.Width() != len(long) {
		t.Fatalf("2 MiB lines: err=%v", err)
	}
	if _, err := Read("huge", strings.NewReader(strings.Repeat("0", 1<<24+1))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line past the cap: err=%v, want bufio.ErrTooLong", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := mustSet(t, "rt", "01XX10", "XXXXXX", "110011")
	var sb strings.Builder
	if err := s.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := Read("rt", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Fatalf("round trip mismatch:\n%s", sb.String())
	}
}

func TestFlattenFromFlat(t *testing.T) {
	s := mustSet(t, "f", "01X", "X10")
	flat := s.Flatten()
	if flat.String() != "01XX10" {
		t.Fatalf("Flatten = %q", flat.String())
	}
	back, err := FromFlat("f", flat, 3)
	if err != nil || !back.Equal(s) {
		t.Fatalf("FromFlat: %v", err)
	}
	if _, err := FromFlat("f", flat, 4); err == nil {
		t.Fatal("expected non-multiple error")
	}
	if _, err := FromFlat("f", flat, 0); err == nil {
		t.Fatal("expected zero-width error")
	}
}

func TestFills(t *testing.T) {
	s := mustSet(t, "fill", "0XX1", "XXXX")
	rng := rand.New(rand.NewSource(7))
	r := s.FillRandom(rng)
	if r.XCount() != 0 || !s.Covers(r) {
		t.Fatal("FillRandom broken")
	}
	z := s.FillConst(bitvec.Zero)
	if z.Cube(0).String() != "0001" || z.Cube(1).String() != "0000" {
		t.Fatal("FillConst broken")
	}
	a := s.FillAdjacent()
	if a.XCount() != 0 || !s.Covers(a) {
		t.Fatal("FillAdjacent broken")
	}
	if s.XCount() == 0 {
		t.Fatal("fills must not mutate the receiver")
	}
}

func TestVerticalReshapeSmall(t *testing.T) {
	// One 6-bit chain split into m=2 chains of length 3:
	// chain0 = bits 012, chain1 = bits 345. Vertical order: b0 b3 b1 b4 b2 b5.
	c, err := bitvec.ParseCube("01X10X")
	if err != nil {
		t.Fatal(err)
	}
	v, err := VerticalReshape(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "0110XX" {
		t.Fatalf("vertical = %q, want 0110XX", v.String())
	}
	back, err := VerticalRestore(v, 2)
	if err != nil || !back.Equal(c) {
		t.Fatalf("restore mismatch: %v", err)
	}
}

func TestVerticalErrors(t *testing.T) {
	c := bitvec.NewCube(5)
	if _, err := VerticalReshape(c, 2); err == nil {
		t.Fatal("expected error: 5 bits / 2 chains")
	}
	if _, err := VerticalRestore(c, 0); err == nil {
		t.Fatal("expected error: zero chains")
	}
	s := NewSet("v", 5)
	s.MustAppend(c)
	if _, err := Verticalize(s, 2); err == nil {
		t.Fatal("Verticalize should propagate errors")
	}
	if _, err := Deverticalize(s, 3); err == nil {
		t.Fatal("Deverticalize should propagate errors")
	}
}

func TestChainSlices(t *testing.T) {
	c, _ := bitvec.ParseCube("01X10X")
	sl, err := ChainSlices(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"01", "X1", "0X"}
	for i, s := range sl {
		if s.String() != want[i] {
			t.Fatalf("chain %d = %q, want %q", i, s.String(), want[i])
		}
	}
	if _, err := ChainSlices(c, 4); err == nil {
		t.Fatal("expected split error")
	}
}

func TestPropertyVerticalRoundTrip(t *testing.T) {
	f := func(seed int64, mRaw, perRaw uint8) bool {
		m := int(mRaw%8) + 1
		per := int(perRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		c := bitvec.NewCube(m * per)
		for i := 0; i < c.Len(); i++ {
			c.Set(i, bitvec.Trit(rng.Intn(3)))
		}
		v, err := VerticalReshape(c, m)
		if err != nil {
			return false
		}
		back, err := VerticalRestore(v, m)
		return err == nil && back.Equal(c) && v.XCount() == c.XCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFlattenRoundTrip(t *testing.T) {
	f := func(seed int64, wRaw, nRaw uint8) bool {
		w := int(wRaw%20) + 1
		n := int(nRaw % 20)
		rng := rand.New(rand.NewSource(seed))
		s := NewSet("p", w)
		for i := 0; i < n; i++ {
			c := bitvec.NewCube(w)
			for j := 0; j < w; j++ {
				c.Set(j, bitvec.Trit(rng.Intn(3)))
			}
			s.MustAppend(c)
		}
		back, err := FromFlat("p", s.Flatten(), w)
		return err == nil && back.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReadCubesIndependent checks that cubes sharing a plane slab stay
// independent: writing every trit of one cube leaves its neighbours
// untouched, with and without a length hint (the latter spans several
// slabs).
func TestReadCubesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		for j := 0; j < 70; j++ {
			sb.WriteByte("01X"[rng.Intn(3)])
		}
		sb.WriteByte('\n')
	}
	for _, r := range []io.Reader{strings.NewReader(sb.String()), io.MultiReader(strings.NewReader(sb.String()))} {
		s, err := Read("ind", r)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Clone()
		for i := 0; i < s.Len(); i++ {
			s.Cube(i).SetRun(0, s.Width(), bitvec.One)
			for j := 0; j < s.Len(); j++ {
				if j != i && !s.Cube(j).Equal(want.Cube(j)) {
					t.Fatalf("writing cube %d changed cube %d", i, j)
				}
			}
			s.Cube(i).SetRun(0, s.Width(), bitvec.X)
			want.Cube(i).SetRun(0, s.Width(), bitvec.X)
		}
	}
}
