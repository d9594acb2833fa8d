package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/synth"
)

// runTestAssignments are the K=8 assignments the run table is pinned
// under: the paper's code, the frequency-directed code of a Mintest
// profile, a complete code whose case 1–4 codewords are 3–8 bits long,
// and an incomplete code, whose unassigned windows must end a run.
func runTestAssignments(t *testing.T) map[string]Assignment {
	t.Helper()
	set, err := synth.MintestLike("s38417")
	if err != nil {
		t.Fatal(err)
	}
	res, err := mustCodec(t, 8).EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Assignment{
		"default": DefaultAssignment(),
		"fd":      FrequencyDirected(res.Counts),
	}
	for name, lens := range map[string][NumCases]int{
		"long":       {3, 4, 5, 8, 1, 2, 6, 7, 8},
		"incomplete": {2, 2, 3, 4, 5, 6, 7, 8, 8},
	} {
		if out[name], err = AssignmentFromLengths(lens); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// refRun is the run the eight bits w spell under a, found from the
// codeword strings alone: from bit 0, whole codewords of cases 1–4
// that end within the eight bits, the first other or unfinished
// codeword ending the run. It returns the run in the table's layout.
func refRun(a Assignment, w int) uint32 {
	var bits [8]byte
	for i := range bits {
		bits[i] = '0' + byte(w>>i&1)
	}
	var m, used, cases uint32
	for int(used) < len(bits) {
		var cs Case
		for c := CaseAll0; c <= CaseMisMis; c++ {
			code := a.Code(c)
			if int(used)+len(code) <= len(bits) && string(bits[used:int(used)+len(code)]) == code {
				cs = c
			}
		}
		if cs == 0 || cs > Case1Then0 {
			break
		}
		cases |= uint32(cs-1) << (2 * m)
		m, used = m+1, used+uint32(len(a.Code(cs)))
	}
	return m | used<<4 | cases<<8
}

// TestRunTableMatchesCodes: every one of the 256 run-table entries a
// K=8 codec builds from its LUT is the run its codeword strings spell.
func TestRunTableMatchesCodes(t *testing.T) {
	for name, a := range runTestAssignments(t) {
		c, err := NewWithAssignment(8, a)
		if err != nil {
			t.Fatal(err)
		}
		longest := 0
		for w := range c.krun {
			if got, want := c.krun[w], refRun(a, w); got != want {
				t.Fatalf("%s (%v): window %08b: entry %#x, the codewords spell %#x", name, a, w, got, want)
			}
			longest = max(longest, int(c.krun[w]&0xf))
		}
		if longest == 0 {
			t.Fatalf("%s: no window holds a run", name)
		}
	}
	for _, k := range []int{4, 16, 32} {
		if mustCodec(t, k).krun != nil {
			t.Fatalf("K=%d built a run table", k)
		}
	}
}

// runCoverage steps textK8's decisions over a valid set stream of
// patterns rows of width trits, without writing text: a run lookup
// wherever eight or more blocks of the row remain and the table holds
// a run, else one LUT step. It returns the blocks the run lookups
// decoded, the lookups that did, and the stream's blocks.
func runCoverage(t *testing.T, c *Codec, stream *bitvec.Cube, width, patterns int) (runBlocks, runs, blocks int) {
	t.Helper()
	care, val := stream.RawWords()
	blocksPer := (width + 7) / 8
	pos := 0
	for p := 0; p < patterns; p++ {
		for b := 0; b < blocksPer; {
			cw, vw := window64(care, pos), window64(val, pos)
			r := c.krun[vw&0xff]
			nb := int(r >> 4 & 0xf)
			if m := int(r & 0xf); blocksPer-b >= 8 && m != 0 && cw&lowMask64(nb) == lowMask64(nb) && pos+nb <= stream.Len() {
				runBlocks, runs, b, pos = runBlocks+m, runs+1, b+m, pos+nb
				continue
			}
			e := c.klut[vw&c.klutMask]
			if e>>4&0xf == 0 {
				t.Fatalf("pattern %d block %d: unassigned codeword in a valid stream", p, b)
			}
			b, pos = b+1, pos+int(e>>8)
		}
		blocks += blocksPer
	}
	if pos != stream.Len() {
		t.Fatalf("stepped %d of %d stream bits", pos, stream.Len())
	}
	return runBlocks, runs, blocks
}

// TestRunCoverageMintest reports, for the six Mintest profiles at K=8
// under the default code, the share of blocks textK8 decodes by run
// lookups and the mean blocks per lookup (go test -v), and checks the
// text kernel against the plane and generic decoders on each stream.
func TestRunCoverageMintest(t *testing.T) {
	c := mustCodec(t, 8)
	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.EncodeSet(set)
		if err != nil {
			t.Fatal(err)
		}
		runBlocks, runs, blocks := runCoverage(t, c, res.Stream, set.Width(), set.Len())
		if runs == 0 {
			t.Fatalf("%s: no run lookup decodes a block", cs.Name)
		}
		n := res.Counts
		t.Logf("%-8s C1 %5.1f%%  C1–4 %5.1f%%  run-decoded %5.1f%% of %d blocks, %.2f blocks per lookup",
			cs.Name, 100*float64(n[0])/float64(blocks), 100*float64(n[0]+n[1]+n[2]+n[3])/float64(blocks),
			100*float64(runBlocks)/float64(blocks), blocks, float64(runBlocks)/float64(runs))
		runStream3(t, cs.Name, c, func() StreamSource { return NewCubeSource(res.Stream) }, set.Width())
	}
}
