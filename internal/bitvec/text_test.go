package bitvec

import (
	"math/rand"
	"testing"
)

// refAppendTextRange is the per-trit text emitter the nibble-table
// AppendTextRange replaced, kept as the differential oracle.
func refAppendTextRange(c *Cube, dst []byte, lo, hi int) []byte {
	for off := lo; off < hi; {
		n := hi - off
		if n > wordBits {
			n = wordBits
		}
		care, val := c.ReadWord(off)
		for j := 0; j < n; j++ {
			switch {
			case care&1 == 0:
				dst = append(dst, 'X')
			case val&1 == 1:
				dst = append(dst, '1')
			default:
				dst = append(dst, '0')
			}
			care >>= 1
			val >>= 1
		}
		off += n
	}
	return dst
}

// TestAppendTextRangeMatchesReference pins the nibble-table emitter
// against the per-trit oracle for every [lo, hi) of a 150-trit cube,
// including ranges that start misaligned and run past the cube end,
// appended after a non-empty prefix.
func TestAppendTextRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := mixedCube(rng, 150)
	for lo := 0; lo <= 160; lo++ {
		for hi := lo; hi <= 160; hi++ {
			got := string(c.AppendTextRange([]byte("p:"), lo, hi))
			want := string(refAppendTextRange(c, []byte("p:"), lo, hi))
			if got != want {
				t.Fatalf("[%d,%d): %q, want %q", lo, hi, got, want)
			}
		}
	}
}

// BenchmarkAppendText measures 01X text emission of one 1664-trit row
// (an s38417-width scan load) into a reused buffer, as the /decode
// handlers do.
func BenchmarkAppendText(b *testing.B) {
	c := mixedCube(rand.New(rand.NewSource(13)), 1664)
	buf := make([]byte, 0, c.Len())
	b.SetBytes(int64(c.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendTextRange(buf[:0], 0, c.Len())
	}
}

// TestCubeBuilderDiscardView drives a builder as a sliding buffer —
// append at the tail, discard a random head — and checks the view
// against a plain trit slice after every step.
func TestCubeBuilderDiscardView(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var b CubeBuilder
	var v Cube
	var ref []Trit
	for step := 0; step < 400; step++ {
		if rng.Intn(3) == 0 {
			n := rng.Intn(len(ref) + 1)
			b.Discard(n)
			ref = ref[n:]
		} else {
			seg := mixedCube(rng, rng.Intn(150))
			b.AppendCube(seg)
			for i := 0; i < seg.Len(); i++ {
				ref = append(ref, seg.Get(i))
			}
		}
		b.ViewInto(&v)
		if v.Len() != len(ref) || b.Len() != len(ref) {
			t.Fatalf("step %d: view length %d, want %d", step, v.Len(), len(ref))
		}
		for i, want := range ref {
			if got := v.Get(i); got != want {
				t.Fatalf("step %d: trit %d = %v, want %v", step, i, got, want)
			}
		}
		// Bits past the end must stay zero: the 9C kernels rely on it.
		care, val := v.RawWords()
		if len(ref)%wordBits != 0 {
			tail := ^lowMask(len(ref) % wordBits)
			if care[len(care)-1]&tail != 0 || val[len(val)-1]&tail != 0 {
				t.Fatalf("step %d: nonzero bits past the end", step)
			}
		}
	}
}
