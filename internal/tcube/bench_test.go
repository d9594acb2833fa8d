package tcube_test

import (
	"bytes"
	"testing"

	"repro/internal/synth"
	"repro/internal/tcube"
)

// BenchmarkRead measures the 01X parse stage of /encode: one op reads
// the six Mintest-profile ISCAS'89 bodies (24-200 KB each), serialised
// with Set.Write, from bytes.Readers as the ninecd handler does.
func BenchmarkRead(b *testing.B) {
	var bodies [][]byte
	var total int64
	for i, cs := range synth.Benchmarks {
		s, err := synth.CubeProfileFor(cs, int64(i+1)).Generate()
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
		total += int64(buf.Len())
	}
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, body := range bodies {
			if _, err := tcube.Read(synth.Benchmarks[j].Name, bytes.NewReader(body)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
