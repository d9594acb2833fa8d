package container

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tcube"
)

// FuzzRead checks the container parser never panics on arbitrary
// bytes and that anything it accepts re-serializes, in the version it
// was read as, to a container that reads back the same.
func FuzzRead(f *testing.F) {
	// Seed with a genuine container.
	set, err := tcube.Read("seed", strings.NewReader("0000000011111111\n01X011011XXXXX10\n"))
	if err != nil {
		f.Fatal(err)
	}
	cdc, err := core.New(8)
	if err != nil {
		f.Fatal(err)
	}
	r, err := cdc.EncodeSet(set)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVersion(&buf, r, Magic); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var buf4 bytes.Buffer
	if err := WriteVersion(&buf4, r, Magic4); err != nil {
		f.Fatal(err)
	}
	f.Add(buf4.Bytes())
	f.Add([]byte("N9C1"))
	f.Add([]byte("N9C4"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 200))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, diag, err := ReadWithOptions(bytes.NewReader(data), Options{})
		if err != nil {
			return
		}
		// A v3 input may hold a bare cube (Width 0), which only v3 can
		// carry, so the round trip stays in the version that was read.
		var out bytes.Buffer
		if err := WriteVersion(&out, r, diag.Version); err != nil {
			t.Fatalf("re-serialize of accepted container failed: %v", err)
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if !again.Stream.Equal(r.Stream) || again.Counts != r.Counts {
			t.Fatal("container round trip drifted")
		}
	})
}
