package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"

	"repro/internal/batchenc"
	"repro/internal/bitvec"
	"repro/internal/synth"
	"repro/internal/tcube"
)

// workload is one traffic mix. The open-loop rates are absolute and
// frozen here, at about 25% (lo) and 60% (hi) of closedRPS, so a faster
// daemon faces the same offered load as its parent. closedRPS is the
// median closed-loop goodput of 20 runs (seeds 1-10 and 101-110) on a
// 2-vCPU machine; it only sizes the warm and closed phases' op counts,
// which are then fixed. lo sits at 25% rather than 30% because queueing
// amplifies the shared host's speed drift into p50_ms.lo's spread.
type workload struct {
	name      string
	lb        bool // serve through ninecd-lb over two ninecd backends
	rateLo    float64
	rateHi    float64
	closedRPS float64
	build     func(seed int64) (*inputs, error)
}

var workloads = []*workload{
	{
		name:   "mintest-encode",
		rateLo: 265, rateHi: 635, closedRPS: 1060,
		build: buildMintestEncode,
	},
	{
		name:   "mintest-decode",
		rateLo: 190, rateHi: 425, closedRPS: 710,
		build: buildMintestDecode,
	},
	{
		name:   "small-mixed",
		rateLo: 825, rateHi: 1980, closedRPS: 3300,
		build: buildSmallMixed,
	},
	{
		name:   "replay-lb",
		lb:     true,
		rateLo: 330, rateHi: 790, closedRPS: 1320,
		build: buildReplayLB,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// encodeK and encodeName are the /encode parameters every request uses:
// the daemon defaults (no query string).
const (
	encodeK    = 8
	encodeName = "request"
)

// request is one generated request body plus what verifying its
// response needs.
type request struct {
	decode bool
	body   []byte
	item   int  // index into inputs.items
	unique bool // variant edit of items[item].text, verified by a fresh reference encode
	edit   int  // the variant, when unique
}

// item is one test set the workload draws on, with its reference
// container and the text /decode must return for that container.
type item struct {
	set      *tcube.Set
	text     []byte
	cont     []byte // reference v4 container
	contSum  [32]byte
	compBits int
	textSum  [32]byte // sha256 of the /decode response for cont
	edit     *editor
}

// inputs is everything a workload sends, generated from the seed alone.
type inputs struct {
	items []*item
	// gen appends request i's body to dst. Every i maps to the same
	// body on every run with the same seed.
	gen func(i int, dst []byte) (request, error)
	// probes are the first requests of each route, sent during set-up.
	probes []request
}

// mix is splitmix64 over (seed, i): the per-request random source, so
// request i never depends on how many requests came before it.
func mix(seed int64, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + (i+1)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// editor enumerates distinct single-trit edits of a 01X text: variant j
// changes trit (mul*j+add) mod bits, and mul is coprime to bits, so
// variants 0..bits-1 are pairwise distinct and all differ from the base.
type editor struct {
	text     []byte
	hdr      int
	width    int
	bits     int
	mul, add int
	seed     int64
}

func newEditor(text []byte, set *tcube.Set, seed int64) *editor {
	e := &editor{text: text, hdr: bytes.IndexByte(text, '\n') + 1, width: set.Width(), bits: set.Bits(), seed: seed}
	r := mix(seed, 0)
	e.add = int(r % uint64(e.bits))
	for e.mul = 1 + int(r>>32)%e.bits; gcd(e.mul, e.bits) != 1; e.mul = e.mul%e.bits + 1 {
	}
	return e
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// edit locates variant j: trit p of the set, at byte off of the text,
// becomes c.
func (e *editor) edit(j int) (p, off int, c byte, err error) {
	if j >= e.bits {
		return 0, 0, 0, fmt.Errorf("edit %d exceeds the %d distinct single-trit edits of a %d-bit set", j, e.bits, e.bits)
	}
	p = (e.mul*j + e.add) % e.bits
	off = e.hdr + p/e.width*(e.width+1) + p%e.width
	alt := "1X0X01" // the two other trits for '0', '1' and 'X'
	k := 0
	switch e.text[off] {
	case '1':
		k = 2
	case 'X':
		k = 4
	}
	return p, off, alt[k+int(mix(e.seed, uint64(j)+1)&1)], nil
}

// variant appends edit j of the base text to dst.
func (e *editor) variant(j int, dst []byte) ([]byte, error) {
	_, off, c, err := e.edit(j)
	if err != nil {
		return nil, err
	}
	dst = append(dst[:0], e.text...)
	dst[off] = c
	return dst, nil
}

// variantSet is the set that variant j's text holds, built from base
// without the 01X parser: the edited cube is cloned and changed, the
// others are shared.
func (e *editor) variantSet(base *tcube.Set, j int) (*tcube.Set, error) {
	p, _, c, err := e.edit(j)
	if err != nil {
		return nil, err
	}
	t := map[byte]bitvec.Trit{'0': bitvec.Zero, '1': bitvec.One, 'X': bitvec.X}[c]
	out := tcube.NewSet(encodeName, base.Width())
	for i := 0; i < base.Len(); i++ {
		cube := base.Cube(i)
		if i == p/e.width {
			cube = cube.Clone()
			cube.Set(p%e.width, t)
		}
		if err := out.Append(cube); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setText renders a set in the 01X interchange format.
func setText(s *tcube.Set) []byte {
	var b bytes.Buffer
	s.Write(&b) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// reference is the encode oracle: the daemon's own batch encoder with
// default configuration, run in-process on the set a request's text
// holds.
func reference(enc *batchenc.Encoder, set *tcube.Set) (batchenc.Result, error) {
	return enc.Encode(context.Background(), batchenc.Request{Set: set, K: encodeK, Name: encodeName})
}

// newItem builds an item's text and reference container.
func newItem(enc *batchenc.Encoder, set *tcube.Set, seed int64) (*item, error) {
	it := &item{set: set, text: setText(set)}
	res, err := reference(enc, set)
	if err != nil {
		return nil, err
	}
	it.cont, it.compBits = res.Container, res.CompressedBits
	it.contSum = sha256.Sum256(it.cont)
	it.edit = newEditor(it.text, set, seed)
	return it, nil
}

// mintestSets draws n Mintest-profile sets, cycling through the six
// ISCAS'89 profiles so every seed sends the same mix of sizes.
func mintestSets(seed int64, salt uint64, n int) ([]*tcube.Set, error) {
	sets := make([]*tcube.Set, n)
	for i := range sets {
		cs := synth.Benchmarks[i%len(synth.Benchmarks)]
		s, err := synth.CubeProfileFor(cs, int64(mix(seed, salt+uint64(i))>>1)).Generate()
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}

// tinySets draws n sets of 8-32 patterns x 32-256 bits with the
// don't-care statistics of the six ISCAS'89 profiles.
func tinySets(seed int64, salt uint64, n int) ([]*tcube.Set, error) {
	sets := make([]*tcube.Set, n)
	for i := range sets {
		r := mix(seed, salt+uint64(i))
		p := synth.CubeProfileFor(synth.Benchmarks[i%len(synth.Benchmarks)], int64(r>>1))
		p.Patterns = 8 + int(r%25)
		p.Width = 32 + int(r>>8%225)
		s, err := p.Generate()
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}

func newInputs(sets []*tcube.Set, seed int64) (*inputs, error) {
	enc := batchenc.New(batchenc.Config{})
	in := &inputs{items: make([]*item, len(sets))}
	for i, s := range sets {
		it, err := newItem(enc, s, int64(mix(seed, 1<<40+uint64(i))>>1))
		if err != nil {
			return nil, err
		}
		in.items[i] = it
	}
	return in, nil
}

// encodeProbe is the verbatim text of item k; no phase sends it except
// replay-lb's corpus replays, which expect the same container.
func (in *inputs) encodeProbe(k int) request {
	return request{body: in.items[k].text, item: k}
}

func (in *inputs) decodeProbe(k int) request {
	return request{decode: true, body: in.items[k].cont, item: k}
}

// buildMintestEncode: request i is a unique single-trit edit of one of
// six Mintest-profile base sets, taken in turn.
func buildMintestEncode(seed int64) (*inputs, error) {
	sets, err := mintestSets(seed, 1<<20, len(synth.Benchmarks))
	if err != nil {
		return nil, err
	}
	in, err := newInputs(sets, seed)
	if err != nil {
		return nil, err
	}
	n := len(in.items)
	in.gen = func(i int, dst []byte) (request, error) {
		body, err := in.items[i%n].edit.variant(i/n, dst)
		return request{body: body, item: i % n, unique: true, edit: i / n}, err
	}
	in.probes = []request{in.encodeProbe(0)}
	return in, nil
}

// buildMintestDecode: request i decodes container i mod 64, so every
// stretch of requests carries the same mix of set sizes.
func buildMintestDecode(seed int64) (*inputs, error) {
	sets, err := mintestSets(seed, 2<<20, 64)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(sets, seed)
	if err != nil {
		return nil, err
	}
	in.gen = func(i int, dst []byte) (request, error) {
		k := i % len(in.items)
		return request{decode: true, body: append(dst[:0], in.items[k].cont...), item: k}, nil
	}
	in.probes = []request{in.decodeProbe(0)}
	return in, nil
}

// smallEncodeBases and smallDecodeSets size the small-mixed pools: 256
// edit bases keep every encode body unique for 256 encodes per base.
const (
	smallEncodeBases = 256
	smallDecodeSets  = 64
)

// buildSmallMixed: even requests encode a unique edit of a tiny base
// set, odd ones decode one of 64 tiny containers, each pool taken in
// turn.
func buildSmallMixed(seed int64) (*inputs, error) {
	sets, err := tinySets(seed, 3<<20, smallEncodeBases+smallDecodeSets)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(sets, seed)
	if err != nil {
		return nil, err
	}
	in.gen = func(i int, dst []byte) (request, error) {
		n := i / 2
		if i%2 == 0 {
			k := n % smallEncodeBases
			body, err := in.items[k].edit.variant(n/smallEncodeBases, dst)
			return request{body: body, item: k, unique: true, edit: n / smallEncodeBases}, err
		}
		k := smallEncodeBases + n%smallDecodeSets
		return request{decode: true, body: append(dst[:0], in.items[k].cont...), item: k}, nil
	}
	in.probes = []request{in.encodeProbe(0), in.decodeProbe(smallEncodeBases)}
	return in, nil
}

// replayCorpus is the replay-lb corpus size.
const replayCorpus = 16

// buildReplayLB: one request in 20 is a unique edit of a corpus set;
// the rest replay the 16 corpus sets verbatim, in turn.
func buildReplayLB(seed int64) (*inputs, error) {
	sets, err := mintestSets(seed, 4<<20, replayCorpus)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(sets, seed)
	if err != nil {
		return nil, err
	}
	in.gen = func(i int, dst []byte) (request, error) {
		if i%20 == 0 {
			n := i / 20
			k := n % replayCorpus
			body, err := in.items[k].edit.variant(n/replayCorpus, dst)
			return request{body: body, item: k, unique: true, edit: n / replayCorpus}, err
		}
		k := i % replayCorpus
		return request{body: append(dst[:0], in.items[k].text...), item: k}, nil
	}
	in.probes = []request{in.encodeProbe(0)}
	return in, nil
}
