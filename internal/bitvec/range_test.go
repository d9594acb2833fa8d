package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnesInRangeKnown(t *testing.T) {
	b, err := ParseBits("0110010000000000000000000000000000000000000000000000000000000000110")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		lo, hi, want int
	}{
		{0, 0, 0},
		{0, 67, 5},
		{1, 3, 2},
		{3, 64, 1},
		{64, 67, 2},
		{63, 67, 2},
		{-5, 1000, 5}, // clamped
		{5, 3, 0},
	}
	for _, tc := range cases {
		if got := b.OnesInRange(tc.lo, tc.hi); got != tc.want {
			t.Errorf("OnesInRange(%d,%d) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
		if got := b.AnyInRange(tc.lo, tc.hi); got != (tc.want > 0) {
			t.Errorf("AnyInRange(%d,%d) = %v", tc.lo, tc.hi, got)
		}
	}
}

// Property: the word-level range ops agree with the naive loop across
// word boundaries.
func TestPropertyRangeOpsMatchNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8, loRaw, hiRaw uint16) bool {
		n := int(nRaw%200) + 1
		rng := rand.New(rand.NewSource(seed))
		b := NewBits(n)
		for i := 0; i < n; i++ {
			b.Set(i, rng.Intn(2) == 1)
		}
		lo := int(loRaw) % (n + 40)
		hi := int(hiRaw) % (n + 40)
		want := 0
		for i := lo; i < hi && i < n; i++ {
			if i >= 0 && b.Get(i) {
				want++
			}
		}
		return b.OnesInRange(lo, hi) == want && b.AnyInRange(lo, hi) == (want > 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the fast cube range classifiers agree with naive trit
// loops, including padding beyond the end.
func TestPropertyCubeRangeOpsMatchNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8, loRaw, hiRaw uint16) bool {
		n := int(nRaw % 180)
		rng := rand.New(rand.NewSource(seed))
		c := NewCube(n)
		for i := 0; i < n; i++ {
			c.Set(i, Trit(rng.Intn(3)))
		}
		lo := int(loRaw) % (n + 30)
		hi := lo + int(hiRaw)%40
		cz, co := true, true
		for i := lo; i < hi; i++ {
			v := X
			if i < n {
				v = c.Get(i)
			}
			if v == One {
				cz = false
			}
			if v == Zero {
				co = false
			}
		}
		return c.CompatibleZero(lo, hi) == cz &&
			c.CompatibleOne(lo, hi) == co
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
