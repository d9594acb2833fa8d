package container

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/robust"
)

// refPlanes is the per-trit plane split the word-parallel planes
// replaced, kept as the differential oracle.
func refPlanes(c *bitvec.Cube) (val, mask []byte) {
	n := (c.Len() + 7) / 8
	val = make([]byte, n)
	mask = make([]byte, n)
	for i := 0; i < c.Len(); i++ {
		switch c.Get(i) {
		case bitvec.One:
			val[i/8] |= 1 << uint(i%8)
		case bitvec.X:
			mask[i/8] |= 1 << uint(i%8)
		}
	}
	return val, mask
}

// refUnplanes is the per-trit plane join the word-parallel unplanes
// replaced, kept as the differential oracle.
func refUnplanes(val, mask []byte, bits int, lenient bool) (*bitvec.Cube, int, error) {
	conflicts := 0
	c := bitvec.NewCube(bits)
	for i := 0; i < bits; i++ {
		v := val[i/8]>>uint(i%8)&1 == 1
		x := mask[i/8]>>uint(i%8)&1 == 1
		switch {
		case x && v:
			if !lenient {
				return nil, conflicts, fmt.Errorf("container: bit %d is both X and 1: %w", i, robust.ErrCorrupt)
			}
			conflicts++ // stays X
		case x:
			// stays X
		case v:
			c.Set(i, bitvec.One)
		default:
			c.Set(i, bitvec.Zero)
		}
	}
	for i := bits; i < len(val)*8; i++ {
		if val[i/8]>>uint(i%8)&1 == 1 || mask[i/8]>>uint(i%8)&1 == 1 {
			if !lenient {
				return nil, conflicts, fmt.Errorf("container: nonzero padding bit %d: %w", i, robust.ErrCorrupt)
			}
			conflicts++
		}
	}
	return c, conflicts, nil
}

// TestPlanesMatchReference pins the word-parallel plane split against
// the per-trit oracle at every length 0..200 and a sweep of X
// densities, and proves the join inverts it.
func TestPlanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for n := 0; n <= 200; n++ {
		for _, xd := range []float64{0, 0.5, 1} {
			c := bitvec.NewCube(n)
			for i := 0; i < n; i++ {
				switch {
				case rng.Float64() < xd:
				case rng.Intn(2) == 0:
					c.Set(i, bitvec.Zero)
				default:
					c.Set(i, bitvec.One)
				}
			}
			val, mask := planes(c)
			rv, rm := refPlanes(c)
			if !bytes.Equal(val, rv) || !bytes.Equal(mask, rm) {
				t.Fatalf("n=%d xd=%v: planes differ from the reference", n, xd)
			}
			back, conflicts, err := unplanes(val, mask, n, false)
			if err != nil || conflicts != 0 || !back.Equal(c) {
				t.Fatalf("n=%d xd=%v: round trip: conflicts=%d err=%v", n, xd, conflicts, err)
			}
		}
	}
}

// TestUnplanesMatchReference pins the word-parallel join against the
// per-trit oracle on hostile planes — injected value-and-X conflicts
// and nonzero pad bits — at every length 0..200, strict and lenient:
// the cube, the conflict count and the error text must all agree.
func TestUnplanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for n := 0; n <= 200; n++ {
		nb := (n + 7) / 8
		for trial := 0; trial < 12; trial++ {
			val, mask := make([]byte, nb), make([]byte, nb)
			for i := 0; i < n; i++ {
				bit := byte(1) << uint(i%8)
				switch r := rng.Intn(100); {
				case r < 2*trial: // conflicts grow denser trial by trial
					val[i/8] |= bit
					mask[i/8] |= bit
				case r < 40:
					mask[i/8] |= bit
				case r < 70:
					val[i/8] |= bit
				}
			}
			if pad := nb*8 - n; pad > 0 && trial%3 == 0 {
				bit := byte(1) << uint((n+rng.Intn(pad))%8)
				switch rng.Intn(3) {
				case 0:
					val[nb-1] |= bit
				case 1:
					mask[nb-1] |= bit
				default: // a pad bit that would also read as a conflict
					val[nb-1] |= bit
					mask[nb-1] |= bit
				}
			}
			for _, lenient := range []bool{false, true} {
				got, gotN, gotErr := unplanes(val, mask, n, lenient)
				want, wantN, wantErr := refUnplanes(val, mask, n, lenient)
				label := fmt.Sprintf("n=%d trial=%d lenient=%v", n, trial, lenient)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || gotN != wantN {
					t.Fatalf("%s: got (%d, %v), want (%d, %v)", label, gotN, gotErr, wantN, wantErr)
				}
				if wantErr == nil && !got.Equal(want) {
					t.Fatalf("%s: cubes differ", label)
				}
			}
		}
	}
}
