package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: AnyInRange agrees with the naive loop across word
// boundaries.
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
		want := false
		for i := lo; i < hi && i < n; i++ {
			if i >= 0 && b.Get(i) {
				want = true
			}
		}
		return b.AnyInRange(lo, hi) == want
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
