package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/synth"
	"repro/internal/tcube"
)

// parserEncode is the oracle of the text path: tcube.Read, then the
// plane path. ok=false when the parser refuses text or finds no row.
func parserEncode(t *testing.T, c *Codec, text []byte) (*Result, bool) {
	t.Helper()
	set, err := tcube.Read("text", bytes.NewReader(text))
	if err != nil || set.Len() == 0 {
		return nil, false
	}
	res, err := c.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	return res, true
}

// setText renders a set in the 01X interchange format.
func setText(t testing.TB, s *tcube.Set) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEncodeTextMintestProfiles: on the six Mintest profiles, at every
// kernel K, the text path's stream and counts equal the plane path's
// and the trit-level reference's, and its payload is the paper's
// |T_E| = N1 + 2·N2 + 5·(N3+N4) + (5+K/2)·ΣN5..N8 + (4+K)·N9.
func TestEncodeTextMintestProfiles(t *testing.T) {
	for _, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			t.Fatal(err)
		}
		text := setText(t, set)
		for _, k := range kernelKs {
			label := cs.Name + " K=" + itoa(k)
			cdc := mustCodec(t, k)
			got, ok := cdc.EncodeText(context.Background(), text, nil)
			if !ok {
				t.Fatalf("%s: text path refused a Set.Write body", label)
			}
			plane, err := cdc.EncodeSet(set)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, label+" plane", got, plane)
			ref, err := cdc.EncodeSetReference(set)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, label+" reference", got, ref)
			n := got.Counts
			te := n[0] + 2*n[1] + 5*(n[2]+n[3]) + (5+k/2)*(n[4]+n[5]+n[6]+n[7]) + (4+k)*n[8]
			if got.CompressedBits() != te {
				t.Fatalf("%s: |T_E| = %d, the closed form gives %d", label, got.CompressedBits(), te)
			}
		}
	}
}

// TestEncodeTextShapes: every body shape the text path vouches for
// encodes exactly as the parser path does, at every kernel K and into
// a reused workspace; every shape it must refuse is refused.
func TestEncodeTextShapes(t *testing.T) {
	row := func(w int, seed int) string {
		var b strings.Builder
		for j := 0; j < w; j++ {
			b.WriteByte("01XxX-0X1"[(j*7+seed*3+j*j)%9])
		}
		return b.String()
	}
	rows := func(n, w int, sep string) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteString(row(w, i) + sep)
		}
		return b.String()
	}
	vouched := map[string]string{
		"one row":          "01X\n",
		"no final newline": "0101\n1X0-",
		"all X":            rows(3, 70, "\n"),
		"comments":         "# head\n" + row(40, 1) + "\n# mid\r\n\n\n" + row(40, 2) + "\n#tail",
		"blank lines":      "\n\n" + row(9, 1) + "\n\n" + row(9, 2) + "\n\n",
		"lower x and dash": "xx--01\n-x-x10\n",
		"word widths":      rows(4, 64, "\n"),
		"width 65":         rows(5, 65, "\n"),
		"width 127":        rows(3, 127, "\n"),
		"staged chunks":    rows(3, 64*rowWords+65, "\n"),
		"writer growth":    rows(5*initRows, 33, "\n"),
		"long comment":     "#" + strings.Repeat("c", 5000) + "\n" + row(33, 4) + "\n",
	}
	for _, k := range kernelKs {
		vouched["width K-1"] = rows(5, k-1, "\n")
		vouched["width 2K+3"] = rows(5, 2*k+3, "\n")
		cdc := mustCodec(t, k)
		ws := GetWorkspace()
		for name, text := range vouched {
			label := name + " K=" + itoa(k)
			want, ok := parserEncode(t, cdc, []byte(text))
			if !ok {
				t.Fatalf("%s: oracle refused the body", label)
			}
			for _, w := range []*Workspace{nil, ws} {
				got, ok := cdc.EncodeText(context.Background(), []byte(text), w)
				if !ok {
					t.Fatalf("%s: text path refused the body", label)
				}
				checkSameResult(t, label, got, want)
			}
		}
		ws.Release()
	}
	refused := map[string]string{
		"empty":              "",
		"comments only":      "# a\n\n# b\n",
		"bad byte":           "0101\n01@1\n",
		"CRLF":               "0101\r\n0101\r\n",
		"trailing CR":        "0101\n0101\r",
		"leading space":      " 0101\n",
		"trailing space":     "0101 \n0101\n",
		"tab":                "01\t01\n",
		"indented comment":   "  # c\n0101\n",
		"ragged short":       "0101\n010\n",
		"ragged long":        "0101\n01010\n",
		"ragged last":        "0101\n01",
		"bad byte in tail":   row(70, 1) + "\n" + row(69, 2) + "Z\n",
		"NUL":                "01\x0001\n",
		"non-ASCII space":    "0101\u00a0\n",
		"bad byte past 4096": rows(1, 64*rowWords+10, "!\n"),
	}
	for _, k := range kernelKs {
		cdc := mustCodec(t, k)
		for name, text := range refused {
			if _, ok := cdc.EncodeText(context.Background(), []byte(text), nil); ok {
				t.Errorf("%s K=%d: text path vouched for %q", name, k, text)
			}
		}
	}
	for _, k := range []int{2, 6, 10, 64, 130} {
		if _, ok := mustCodec(t, k).EncodeText(context.Background(), []byte("0101\n"), nil); ok {
			t.Errorf("K=%d has no word kernel, yet the text path encoded", k)
		}
	}
}

// TestEncodeTextLongCodeword: an assignment holding the longest
// codewords a codec accepts (MaxCodeLen bits) still gets the word
// kernel at K=32, and the text path encodes as the plane path and the
// reference do.
func TestEncodeTextLongCodeword(t *testing.T) {
	codes := []string{"0", "10", "110", "1110", "11110", "111110", "1111110", "11111110", "11111111"}
	a, err := AssignmentFromCodes(codes)
	if err != nil {
		t.Fatal(err)
	}
	cdc, err := NewWithAssignment(32, a)
	if err != nil {
		t.Fatal(err)
	}
	if cdc.kops == nil || !cdc.hasDecodeKernel() {
		t.Fatal("no word kernel for 8-bit codewords at K=32")
	}
	text := []byte(strings.Repeat("01X1X0XX10011X01X1X01X0110X0X1X01X0X101\n", 3))
	got, ok := cdc.EncodeText(context.Background(), text, nil)
	if !ok {
		t.Fatal("text path refused a plain body")
	}
	set, err := tcube.Read("long", bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	plane, err := cdc.EncodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, "long codeword plane", got, plane)
	want, err := cdc.EncodeSetReference(set)
	if err != nil {
		t.Fatal(err)
	}
	checkSameResult(t, "long codeword reference", got, want)
}

// TestEncodeTextLineCap: tcube.Read accepts a line one byte under
// tcube.MaxLineBytes and refuses one at it; the text path encodes the
// first as the parser path does and refuses the second, as a pattern
// row or as a comment.
func TestEncodeTextLineCap(t *testing.T) {
	cdc := mustCodec(t, 8)
	under := bytes.Repeat([]byte("0X1"), tcube.MaxLineBytes/3+1)[:tcube.MaxLineBytes-1]
	want, ok := parserEncode(t, cdc, under)
	if !ok {
		t.Fatal("tcube.Read refused a row under the cap")
	}
	got, ok := cdc.EncodeText(context.Background(), under, nil)
	if !ok {
		t.Fatal("text path refused a row under the cap")
	}
	checkSameResult(t, "row under the cap", got, want)
	at := append(under, '1')
	comment := append([]byte("#"), under...)
	for name, text := range map[string][]byte{"row": at, "comment": append(comment, "\n0101\n"...)} {
		if _, err := tcube.Read("cap", bytes.NewReader(text)); err == nil {
			t.Fatalf("%s at the cap: tcube.Read accepted it", name)
		}
		if _, ok := cdc.EncodeText(context.Background(), text, nil); ok {
			t.Fatalf("%s at the cap: text path vouched for it", name)
		}
	}
}

// TestEncodeTextSizedByRows: the writer follows the rows a body holds,
// not its bytes. One 1-trit row followed by 4 MiB of comment and blank
// lines at K=32 (37 worst-case trits per row) must not reserve a plane
// word per line.
func TestEncodeTextSizedByRows(t *testing.T) {
	var b bytes.Buffer
	b.WriteString("1\n")
	for b.Len() < 4<<20 {
		b.WriteString("#\n\n")
	}
	b.WriteString("0\n")
	ws := new(Workspace)
	got, ok := mustCodec(t, 32).EncodeText(context.Background(), b.Bytes(), ws)
	if !ok || got.Patterns != 2 {
		t.Fatalf("ok %v, want 2 patterns", ok)
	}
	if n := len(ws.enc.care); n > 4*initRows {
		t.Fatalf("a 2-row body reserved %d plane words", n)
	}
}

// TestEncodeTextCancelled: a done ctx is not an error of the text path
// but a refusal, so the parser path decides which error wins.
func TestEncodeTextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := mustCodec(t, 8).EncodeText(ctx, []byte("0101\n"), nil); ok {
		t.Fatal("text path encoded under a cancelled ctx")
	}
}

// TestEncodeTextWorkspaceZeroAlloc: a text encode into a warm
// workspace allocates nothing beyond its Result's stream cube.
func TestEncodeTextWorkspaceZeroAlloc(t *testing.T) {
	set, err := synth.MintestLike("s5378")
	if err != nil {
		t.Fatal(err)
	}
	text := setText(t, set)
	cdc := mustCodec(t, 8)
	ws := GetWorkspace()
	defer ws.Release()
	cdc.EncodeText(context.Background(), text, ws)
	if n := testing.AllocsPerRun(20, func() {
		if _, ok := cdc.EncodeText(context.Background(), text, ws); !ok {
			t.Fatal("refused")
		}
	}); n != 0 {
		t.Fatalf("warm text encode allocates %v times", n)
	}
}

// BenchmarkEncodeText times /encode's encode step on each of the six
// Mintest-profile bodies at K=8, the mix the mintest-encode workload
// sends, into a warm workspace: text is the text path, parser the path
// it replaces for a body it vouches for (tcube.Read, then Encode).
func BenchmarkEncodeText(b *testing.B) {
	cdc, err := New(8)
	if err != nil {
		b.Fatal(err)
	}
	ws := GetWorkspace()
	defer ws.Release()
	texts := make([][]byte, len(synth.Benchmarks))
	for i, cs := range synth.Benchmarks {
		set, err := synth.MintestLike(cs.Name)
		if err != nil {
			b.Fatal(err)
		}
		texts[i] = setText(b, set)
	}
	b.Run("text", func(b *testing.B) {
		for i, cs := range synth.Benchmarks {
			text := texts[i]
			b.Run(cs.Name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, ok := cdc.EncodeText(context.Background(), text, ws); !ok {
						b.Fatal("text path refused the body")
					}
				}
			})
		}
	})
	b.Run("parser", func(b *testing.B) {
		for i, cs := range synth.Benchmarks {
			text := texts[i]
			b.Run(cs.Name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					set, err := tcube.Read(cs.Name, bytes.NewReader(text))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cdc.EncodeSetWS(ws, set); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
