package codecopt

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/robust"
	"repro/internal/tcube"
)

func defaultProfile() Profile {
	return Profile{K: 8, Lengths: core.DefaultAssignment().Lengths(), Fill: FillNone}
}

func TestProfileCanonicalRoundTrip(t *testing.T) {
	p := defaultProfile()
	wire := p.Canonical()
	if got, want := string(wire), "9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n"; got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	back, err := ParseProfile(wire)
	if err != nil {
		t.Fatalf("ParseProfile: %v", err)
	}
	if back != p {
		t.Fatalf("round trip changed profile: %+v vs %+v", back, p)
	}
	if back.ID() != p.ID() {
		t.Fatalf("round trip changed ID")
	}
	if len(p.ID()) != 64 {
		t.Fatalf("ID %q is not a hex sha256", p.ID())
	}
}

func TestProfileIDDistinguishesProfiles(t *testing.T) {
	a := defaultProfile()
	b := a
	b.K = 16
	c := a
	c.Fill = FillZero
	d := a
	d.Lengths[2], d.Lengths[8] = d.Lengths[8], d.Lengths[2]
	ids := map[string]bool{a.ID(): true, b.ID(): true, c.ID(): true, d.ID(): true}
	if len(ids) != 4 {
		t.Fatalf("expected 4 distinct IDs, got %d", len(ids))
	}
}

func TestParseProfileRejectsNonCanonical(t *testing.T) {
	cases := []string{
		"",
		"9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4",     // no newline
		"9cprof/2 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n",   // bad version
		"9cprof/1 k=08 fill=none lens=1,2,5,5,5,5,5,5,4\n",  // non-canonical int
		"9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,4\n",     // 8 lengths
		"9cprof/1 k=8 fill=none lens=1,1,5,5,5,5,5,5,4\n",   // Kraft violation
		"9cprof/1 k=8 fill=rand lens=1,2,5,5,5,5,5,5,4\n",   // unknown fill
		"9cprof/1 k=7 fill=none lens=1,2,5,5,5,5,5,5,4\n",   // odd K
		"9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,40\n",  // over MaxCodeLen
		"9cprof/1 k=8 fill=none lens=1,2,3,4,5,6,7,9,9\n",   // 9 bits, Kraft < 1
		"9cprof/1 k=8 fill=none lens=1,2,3,4,5,6,7,79,79\n", // 79 bits
		"9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4 \n",  // trailing space
		"9cprof/1  k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n",  // double space
		"9Cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n",   // case-sensitive magic
		"9cprof/1 k=8 fill=none lens=+1,2,5,5,5,5,5,5,4\n",  // sign
		"9cprof/1 fill=none k=8 lens=1,2,5,5,5,5,5,5,4\n",   // field order
		"9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n\n", // trailing bytes
	}
	for _, in := range cases {
		p, err := ParseProfile([]byte(in))
		if err == nil {
			t.Errorf("ParseProfile(%q) accepted, got %+v", in, p)
			continue
		}
		if !robust.IsClassified(err) {
			t.Errorf("ParseProfile(%q): unclassified error %v", in, err)
		}
	}
}

// TestParseProfileInjectCampaign drives the seeded mutation harness
// over the wire encoding: every mutation must either parse to a valid
// profile or fail with a classified error — never panic, never yield
// an unclassified failure.
func TestParseProfileInjectCampaign(t *testing.T) {
	wire := defaultProfile().Canonical()
	failures := inject.ByteCampaign(wire, 2000, 9, func(b []byte) error {
		p, err := ParseProfile(b)
		if err != nil {
			return err
		}
		// Anything that parses must re-emit canonically and validate.
		if string(p.Canonical()) != string(b) {
			t.Fatalf("accepted non-canonical bytes %q", b)
		}
		return p.Validate()
	})
	for _, f := range failures {
		t.Errorf("inject: %s", f)
	}
}

func TestProfileAssignmentMatchesCore(t *testing.T) {
	p := defaultProfile()
	a, err := p.Assignment()
	if err != nil {
		t.Fatalf("Assignment: %v", err)
	}
	if a != core.DefaultAssignment() {
		t.Fatalf("default-lengths profile realized %v, want the paper assignment", a)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestFillApply(t *testing.T) {
	set := mustSet(t, "fills", "0X1\nXXX\n")
	for _, f := range Fills {
		out, err := f.Apply(set)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if f == FillNone {
			if out != set {
				t.Fatalf("FillNone must not copy")
			}
			continue
		}
		if out.XCount() != 0 {
			t.Errorf("%s left %d X", f, out.XCount())
		}
		if !out.Covers(out) || out.Width() != set.Width() || out.Len() != set.Len() {
			t.Errorf("%s deformed the set", f)
		}
	}
	if _, err := Fill("bogus").Apply(set); err == nil || !robust.IsClassified(err) {
		t.Fatalf("bogus fill: %v", err)
	}
}

func TestStoreLRU(t *testing.T) {
	s := NewStore(2, nil)
	a, b, c := defaultProfile(), defaultProfile(), defaultProfile()
	b.K = 16
	c.K = 32
	idA, idB := s.Put(a), s.Put(b)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if _, ok := s.Get(idA); !ok { // refresh a: b becomes LRU
		t.Fatalf("a missing")
	}
	s.Put(c)
	if _, ok := s.Get(idB); ok {
		t.Fatalf("b should have been evicted")
	}
	if _, ok := s.Get(idA); !ok {
		t.Fatalf("a evicted despite recency")
	}
	if got := s.Put(a); got != idA {
		t.Fatalf("re-put changed ID")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d after re-put", s.Len())
	}
}

func mustSet(t *testing.T, name, text string) *tcube.Set {
	t.Helper()
	s, err := tcube.Read(name, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}
