package container

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/tcube"
)

// goldenStreamSet builds a K=8 set of width 512 whose 9C stream is
// exactly trits long: random patterns first, then patterns of all-0
// blocks (one trit each) with some blocks all-1 (two trits each) to
// land on the target.
func goldenStreamSet(t *testing.T, trits int, seed int64) *tcube.Set {
	t.Helper()
	const k, width = 8, 512
	const blocks = width / k
	cdc, err := core.New(k)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	set := tcube.NewSet("golden", width)
	// A K=8 block costs at most a 5-trit codeword plus 8 data trits, so
	// the random prefix stops with at least 2·blocks trits to go.
	for trits >= 15*blocks {
		c := bitvec.NewCube(width)
		for j := 0; j < width; j++ {
			c.Set(j, []bitvec.Trit{bitvec.Zero, bitvec.One, bitvec.X, bitvec.X}[rng.Intn(4)])
		}
		r, err := cdc.EncodeCube(c)
		if err != nil {
			t.Fatal(err)
		}
		set.MustAppend(c)
		trits -= r.Stream.Len()
	}
	// Split the rest into m patterns of blocks..2·blocks trits each.
	m := (trits + 2*blocks - 1) / (2 * blocks)
	extra := trits - m*blocks
	for i := 0; i < m; i++ {
		c := bitvec.NewCube(width)
		ones := extra / (m - i)
		extra -= ones
		for j := 0; j < width; j++ {
			if j < ones*k {
				c.Set(j, bitvec.One)
			} else {
				c.Set(j, bitvec.Zero)
			}
		}
		set.MustAppend(c)
	}
	return set
}

// TestGoldenContainers pins the bytes WriteVersion emits for v4 and v3
// by SHA-256, over the example set at every kernel K and over streams
// below one chunk, of exactly two chunks, and one trit past two chunks.
// Any change to framing, chunking or encoding shows up here.
func TestGoldenContainers(t *testing.T) {
	f, err := os.Open("../../examples/cubes.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cubes, err := tcube.Read("cubes", f)
	if err != nil {
		t.Fatal(err)
	}
	row, err := bitvec.ParseCube("01X10XX1X0011XXX0X1X10X0XX01X1X0XX110X1X")
	if err != nil {
		t.Fatal(err)
	}
	one := tcube.NewSet("one", row.Len())
	one.MustAppend(row)

	type input struct {
		name   string
		set    *tcube.Set
		k      int
		trits  int // expected stream length; 0 = unchecked
		v4, v3 string
	}
	inputs := []input{
		{name: "cubes/K4", set: cubes, k: 4,
			v4: "f4524308bd0426aa0002434b88b1b5b971fa2dd67fbbaa76f0e32054f4802928",
			v3: "d78d616ac6e2ad3b3c89c545a2db9745e81f0378729d91f9e17e41e3614fa3bf"},
		{name: "cubes/K8", set: cubes, k: 8,
			v4: "9f55c043b81e444343401682a8cf7c557e16a6bdaca2ef988f61d002248ce7fe",
			v3: "cc36ff10eadca6f0e4874ee8c70fdca6abd4a7c9196747c08e74e2a571aaab7d"},
		{name: "cubes/K16", set: cubes, k: 16,
			v4: "5e7851c356eb7480c08f2fff6a13920c2feb869481f2eb678f1c39983b0a9593",
			v3: "b8ac0e24433fb59c87e9a9edc3d8ecd167e85c01a12903a9c60f7dfcbf6d5444"},
		{name: "cubes/K32", set: cubes, k: 32,
			v4: "330f2d3eb7a4a7f1290de452e0ef7728c0eac38c2b836d33f8091c0e3675c6c4",
			v3: "13194a4aa76954910e5521146f97bb2cef4cf3751b8f14f07ff1954d01ea44ab"},
		{name: "sub-chunk", set: goldenStreamSet(t, DefaultChunkTrits/3, 1), k: 8, trits: DefaultChunkTrits / 3,
			v4: "b70fc50af3448f8ca27e1768fc705de4e385f0d012ec1fe8d61b0b77cbd721c9",
			v3: "ee08ff339f300717a2266dafc9e6b44ee4d8d6d3363c8ed05831549d07679268"},
		{name: "two-chunks", set: goldenStreamSet(t, 2*DefaultChunkTrits, 2), k: 8, trits: 2 * DefaultChunkTrits,
			v4: "b49bab6e5cf75cfd2b60cd61e55252edec7fbbffcd6b694431e1f85856986692",
			v3: "2e665f43f24f81265ad68f5d4a1a21ca2e869cb082205b53d4abdb14cdd606cb"},
		{name: "two-chunks+1", set: goldenStreamSet(t, 2*DefaultChunkTrits+1, 3), k: 8, trits: 2*DefaultChunkTrits + 1,
			v4: "d008e8e971a9c82e44422f7b37bba6135b56fb1ce09f95affa64f595261fb4fb",
			v3: "794f9a061096406c4bf386f26a462ed823ae987e1a20133d070313e3578d7db0"},
		{name: "one-pattern", set: one, k: 8,
			v4: "eb9ea11b6f0c785851e8d1a1c0efe67fe47950f41ed589ad1492ed1deeba4276",
			v3: "66a39aeafcfef556597fd781cd93657d936ce32312e6f4d4a91d9b886309fe36"},
	}
	for _, in := range inputs {
		cdc, err := core.New(in.k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := cdc.EncodeSet(in.set)
		if err != nil {
			t.Fatal(err)
		}
		if in.trits != 0 && r.Stream.Len() != in.trits {
			t.Fatalf("%s: stream of %d trits, want %d", in.name, r.Stream.Len(), in.trits)
		}
		for _, v := range []struct{ magic, want string }{{Magic4, in.v4}, {Magic, in.v3}} {
			var buf bytes.Buffer
			if err := WriteVersion(&buf, r, v.magic); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != v.want {
				t.Errorf("%s %s: sha256 %s, want %s", in.name, v.magic, got, v.want)
			}
		}
	}
}
