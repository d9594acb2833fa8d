package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultAssignmentMatchesDesign(t *testing.T) {
	a := DefaultAssignment()
	want := map[Case]string{
		CaseAll0:     "0",
		CaseAll1:     "10",
		CaseMisMis:   "1100",
		Case0Then1:   "11010",
		Case1Then0:   "11011",
		Case0ThenMis: "11100",
		CaseMisThen0: "11101",
		Case1ThenMis: "11110",
		CaseMisThen1: "11111",
	}
	for cs, code := range want {
		if got := a.Code(cs); got != code {
			t.Errorf("%s = %s, want %s", cs, got, code)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := a.KraftSum(); k != 1.0 {
		t.Fatalf("Kraft sum = %v, want exactly 1", k)
	}
}

func TestAssignmentLengthsMatchPaper(t *testing.T) {
	a := DefaultAssignment()
	wantLens := map[Case]int{
		CaseAll0: 1, CaseAll1: 2,
		Case0Then1: 5, Case1Then0: 5,
		Case0ThenMis: 5, CaseMisThen0: 5, Case1ThenMis: 5, CaseMisThen1: 5,
		CaseMisMis: 4,
	}
	for cs, l := range wantLens {
		if got := a.Len(cs); got != l {
			t.Errorf("len(%s) = %d, want %d", cs, got, l)
		}
	}
}

// TestMaxCodeLen: a codeword longer than MaxCodeLen bits is refused by
// every way an assignment is made, so no codec encodes a stream that a
// container cannot describe; the longest complete code is accepted.
func TestMaxCodeLen(t *testing.T) {
	if _, err := AssignmentFromLengths([NumCases]int{1, 2, 3, 4, 5, 6, 7, 8, 8}); err != nil {
		t.Fatalf("lengths 1..8,8 refused: %v", err)
	}
	for _, n := range []int{9, 79} {
		if _, err := AssignmentFromLengths([NumCases]int{1, 2, 3, 4, 5, 6, 7, n, n}); err == nil {
			t.Errorf("AssignmentFromLengths took a %d-bit codeword", n)
		}
		codes := []string{"0", "10", "110", "1110", "11110", "111110", "1111110",
			"1111111" + strings.Repeat("0", n-7), "1111111" + strings.Repeat("1", n-7)}
		if _, err := AssignmentFromCodes(codes); err == nil || !strings.Contains(err.Error(), "more than 8") {
			t.Errorf("AssignmentFromCodes took a %d-bit codeword: %v", n, err)
		}
		var a Assignment
		copy(a.codes[:], codes)
		if _, err := NewWithAssignment(8, a); err == nil {
			t.Errorf("NewWithAssignment took a %d-bit codeword", n)
		}
	}
}

func TestValidateCatchesBrokenCodes(t *testing.T) {
	bad := Assignment{codes: [NumCases]string{"0", "01", "100", "101", "110", "1110", "11110", "111110", "111111"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "prefix") {
		t.Fatalf("prefix violation not caught: %v", err)
	}
	empty := Assignment{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty codeword not caught")
	}
	nonbin := Assignment{codes: [NumCases]string{"0", "10", "1100", "11010", "11011", "11100", "11101", "11110", "1111z"}}
	if err := nonbin.Validate(); err == nil {
		t.Fatal("non-binary codeword not caught")
	}
}

func TestFrequencyDirectedGivesShortestToMostFrequent(t *testing.T) {
	// Mimic the paper's s9234 observation: C8 more frequent than C9.
	n := Counts{100, 50, 1, 2, 3, 4, 5, 40, 20}
	a := FrequencyDirected(n)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Len(CaseAll0) != 1 {
		t.Errorf("most frequent case got length %d, want 1", a.Len(CaseAll0))
	}
	if a.Len(CaseAll1) != 2 {
		t.Errorf("2nd most frequent got length %d, want 2", a.Len(CaseAll1))
	}
	if a.Len(CaseMisThen1) != 4 {
		t.Errorf("3rd most frequent (C8) got length %d, want 4", a.Len(CaseMisThen1))
	}
	if a.Len(CaseMisMis) != 5 {
		t.Errorf("demoted C9 got length %d, want 5", a.Len(CaseMisMis))
	}
}

func TestFrequencyDirectedTieBreaksByCaseNumber(t *testing.T) {
	var n Counts // all zero: default order restored
	a := FrequencyDirected(n)
	d := DefaultAssignment()
	for cs := CaseAll0; cs <= CaseMisMis; cs++ {
		// Lengths must match the default order: C1=1, C2=2, C9=4? No:
		// with all-equal counts, rank order is C1..C9, and sorted lengths
		// are 1,2,4,5,5,5,5,5,5 -> C3 gets 4, not C9.
		_ = d
		_ = cs
	}
	if a.Len(CaseAll0) != 1 || a.Len(CaseAll1) != 2 || a.Len(Case0Then1) != 4 {
		t.Fatalf("tie-break lengths: C1=%d C2=%d C3=%d", a.Len(CaseAll0), a.Len(CaseAll1), a.Len(Case0Then1))
	}
}

func TestFrequencyDirectedNeverWorseThanDefault(t *testing.T) {
	f := func(rawCounts [NumCases]uint16, kRaw uint8) bool {
		k := (int(kRaw%16) + 1) * 2
		var n Counts
		for i, v := range rawCounts {
			n[i] = int(v % 1000)
		}
		def := CompressedSize(k, DefaultAssignment(), n)
		fd := CompressedSize(k, FrequencyDirected(n), n)
		return fd <= def
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyDirectedAssignmentsAlwaysValid(t *testing.T) {
	f := func(rawCounts [NumCases]uint16) bool {
		var n Counts
		for i, v := range rawCounts {
			n[i] = int(v)
		}
		a := FrequencyDirected(n)
		return a.Validate() == nil && a.KraftSum() == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCaseStringAndSymbol(t *testing.T) {
	if CaseAll0.String() != "C1" || CaseMisMis.String() != "C9" {
		t.Fatal("Case.String mismatch")
	}
	if Case(0).String() != "Case(0)" {
		t.Fatal("invalid case should render raw value")
	}
	if CaseMisThen1.Symbol() != "U 1" || Case1Then0.Symbol() != "1 0" {
		t.Fatal("Symbol mismatch")
	}
	if Case(99).Symbol() != "?" {
		t.Fatal("invalid symbol")
	}
}

func TestAssignmentString(t *testing.T) {
	s := DefaultAssignment().String()
	if !strings.Contains(s, "C1=0") || !strings.Contains(s, "C9=1100") {
		t.Fatalf("String = %q", s)
	}
}
