package bitvec

import (
	"math/rand"
	"testing"
)

// fillConstTrits is the trit-at-a-time FillConst, kept as the oracle
// for the word-wise one.
func fillConstTrits(c *Cube, v Trit) *Cube {
	out := c.Clone()
	for i := 0; i < out.Len(); i++ {
		if out.Get(i) == X {
			out.Set(i, v)
		}
	}
	return out
}

// fillAdjacentTrits is the trit-at-a-time FillAdjacent, kept as the
// oracle for the word-wise one.
func fillAdjacentTrits(c *Cube) *Cube {
	out := c.Clone()
	last := Zero
	for i := 0; i < out.Len(); i++ {
		if t := out.Get(i); t != X {
			last = t
			break
		}
	}
	for i := 0; i < out.Len(); i++ {
		if t := out.Get(i); t != X {
			last = t
		} else {
			out.Set(i, last)
		}
	}
	return out
}

// runCube builds an n-trit cube of runs: each run is one trit (X with
// probability xDensity, else 0 or 1) repeated 1 to maxRun times, so X
// runs of every length cross word boundaries. lead forces a leading X
// run of that many trits.
func runCube(rng *rand.Rand, n, lead, maxRun int, xDensity float64) *Cube {
	c := NewCube(n)
	for i := min(lead, n); i < n; {
		run := min(1+rng.Intn(maxRun), n-i)
		switch {
		case rng.Float64() < xDensity:
		case rng.Intn(2) == 1:
			c.SetRun(i, i+run, One)
		default:
			c.SetRun(i, i+run, Zero)
		}
		i += run
	}
	return c
}

// TestFillsMatchTritOracle: the word-wise FillConst (both constants)
// and FillAdjacent equal the trit-wise loops on seeded cubes of every
// length 0-300, including all-X cubes, fully specified ones and
// leading X runs, and leave their input untouched.
func TestFillsMatchTritOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for n := 0; n <= 300; n++ {
		cubes := []*Cube{
			NewCube(n), // all X
			randomCube(rng, n, 0),
			randomCube(rng, n, 0.5),
			randomCube(rng, n, 0.95),
			runCube(rng, n, 0, 8, 0.5),
			runCube(rng, n, 0, 150, 0.6),
			runCube(rng, n, rng.Intn(n+1), 40, 0.5),
			runCube(rng, n, n-n/3, 3, 0.3),
		}
		for i, c := range cubes {
			before := c.Clone()
			for _, v := range []Trit{Zero, One} {
				if got, want := c.FillConst(v), fillConstTrits(c, v); !got.Equal(want) {
					t.Fatalf("n=%d cube %d %s: FillConst(%v) = %s, want %s", n, i, c, v, got, want)
				}
			}
			if got, want := c.FillAdjacent(), fillAdjacentTrits(c); !got.Equal(want) {
				t.Fatalf("n=%d cube %d %s: FillAdjacent = %s, want %s", n, i, c, got, want)
			}
			if !c.Equal(before) {
				t.Fatalf("n=%d cube %d: fill modified its input", n, i)
			}
		}
	}
}

// fillSink keeps the benchmarked fills from being optimised away.
var fillSink *Cube

// BenchmarkFill times the three deterministic fills of one 1 Mi-trit
// cube of Mintest-like runs (70% of runs X), word-wise against the
// trit-wise oracle.
func BenchmarkFill(b *testing.B) {
	c := runCube(rand.New(rand.NewSource(1)), 1<<20, 0, 64, 0.7)
	fills := []struct {
		name       string
		word, trit func(*Cube) *Cube
	}{
		{"zero", func(c *Cube) *Cube { return c.FillConst(Zero) }, func(c *Cube) *Cube { return fillConstTrits(c, Zero) }},
		{"one", func(c *Cube) *Cube { return c.FillConst(One) }, func(c *Cube) *Cube { return fillConstTrits(c, One) }},
		{"adjacent", (*Cube).FillAdjacent, fillAdjacentTrits},
	}
	for _, f := range fills {
		for _, impl := range []struct {
			name string
			fn   func(*Cube) *Cube
		}{{"word", f.word}, {"trit", f.trit}} {
			b.Run(f.name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(c.Len() / 8))
				for i := 0; i < b.N; i++ {
					fillSink = impl.fn(c)
				}
			})
		}
	}
}
