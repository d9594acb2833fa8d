// Package codecopt tunes the 9C code to a test-set corpus. The paper
// fixes the nine codeword lengths (Table I) and, at best, permutes
// them by case frequency (Table VII). This package picks the best
// configuration over three axes:
//
//   - the case→codeword-length vector, realized as a canonical prefix
//     code via core.AssignmentFromLengths;
//   - the block size K ∈ {4, 8, 16, 32};
//   - the X-fill strategy applied before encoding (none/zero/one/
//     adjacent — "none" preserves don't-cares, the others trade X
//     transparency for run structure).
//
// Code-based compression in general needs a search over the code space
// (Polian et al. use an evolutionary one). 9C does not: the case
// statistics of a (K, fill) pair do not depend on the lengths, and the
// encoded size is Σ N_i·len_i plus a length-free data term, so the
// Huffman code over the case counts is the exact optimum of each pair.
// Search computes it in closed form and keeps the best pair.
//
// The winning configuration is packaged as a Profile: a tiny, portable,
// versioned artifact whose identity is the SHA-256 of its canonical
// one-line encoding. A profile is everything a daemon needs to encode
// with the tuned code; the container format already serializes
// arbitrary assignments, so *decoding* a tuned container needs no
// profile at all.
package codecopt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/tcube"
)

// Fill names an X-fill strategy applied to the corpus before encoding.
type Fill string

const (
	// FillNone keeps don't-cares unspecified — the 9C default, and in
	// practice the optimum: specifying an X can only shrink the set of
	// cases a half-block is compatible with.
	FillNone Fill = "none"
	// FillZero maps every X to 0 (the run-length codecs' rule).
	FillZero Fill = "zero"
	// FillOne maps every X to 1.
	FillOne Fill = "one"
	// FillAdjacent repeats the previous specified bit (minimum-
	// transition fill).
	FillAdjacent Fill = "adjacent"
)

// Fills is the search-space order of the fill strategies; fixed, so
// ties between cells break the same way every run.
var Fills = []Fill{FillNone, FillZero, FillOne, FillAdjacent}

// Apply returns the set with the strategy applied; FillNone returns
// the set unchanged (no copy).
func (f Fill) Apply(s *tcube.Set) (*tcube.Set, error) {
	switch f {
	case FillNone, "":
		return s, nil
	case FillZero:
		return s.FillConst(bitvec.Zero), nil
	case FillOne:
		return s.FillConst(bitvec.One), nil
	case FillAdjacent:
		return s.FillAdjacent(), nil
	}
	return nil, fmt.Errorf("codecopt: unknown fill %q: %w", string(f), robust.ErrCorrupt)
}

func (f Fill) valid() bool {
	switch f {
	case FillNone, FillZero, FillOne, FillAdjacent:
		return true
	}
	return false
}

// Version is the profile wire-format version this package reads and
// writes. The version is part of the canonical encoding, so a future
// format change changes every profile ID with it.
const Version = 1

// MaxCodeLen caps profile codeword lengths at core.MaxCodeLen, the
// longest codeword a codec and a container accept. No complete prefix
// code over nine symbols is longer, so every Huffman vector Search
// builds fits under it.
const MaxCodeLen = core.MaxCodeLen

// SearchKs is the block-size axis of the search space.
var SearchKs = []int{4, 8, 16, 32}

// Profile is one tuned 9C configuration: everything needed to encode a
// test set with the corpus-optimized code. Profiles are immutable
// values; their identity is content-addressed (see ID).
type Profile struct {
	// K is the block size.
	K int
	// Lengths is the per-case codeword length vector; the realized
	// codewords are the canonical prefix code over it.
	Lengths [core.NumCases]int
	// Fill is the X-fill strategy applied before encoding.
	Fill Fill
}

// Validate checks that the profile describes a realizable codec.
func (p Profile) Validate() error {
	if p.K < 2 || p.K > 64 || p.K%2 != 0 {
		return fmt.Errorf("codecopt: bad block size %d: %w", p.K, robust.ErrCorrupt)
	}
	if !p.Fill.valid() {
		return fmt.Errorf("codecopt: unknown fill %q: %w", string(p.Fill), robust.ErrCorrupt)
	}
	for i, l := range p.Lengths {
		if l < 1 || l > MaxCodeLen {
			return fmt.Errorf("codecopt: C%d length %d outside [1,%d]: %w",
				i+1, l, MaxCodeLen, robust.ErrCorrupt)
		}
	}
	if !kraftOK(p.Lengths) {
		return fmt.Errorf("codecopt: lengths violate the Kraft inequality: %w", robust.ErrCorrupt)
	}
	return nil
}

// Assignment realizes the profile's canonical prefix code.
func (p Profile) Assignment() (core.Assignment, error) {
	if err := p.Validate(); err != nil {
		return core.Assignment{}, err
	}
	return core.AssignmentFromLengths(p.Lengths)
}

// Codec builds the tuned codec for the profile.
func (p Profile) Codec() (*core.Codec, error) {
	a, err := p.Assignment()
	if err != nil {
		return nil, err
	}
	return core.NewWithAssignment(p.K, a)
}

// Canonical returns the profile's one-line wire encoding:
//
//	9cprof/1 k=8 fill=none lens=1,2,5,5,5,5,5,5,4\n
//
// Field order, spacing, and the trailing newline are fixed — the
// encoding is canonical so that equal profiles produce equal bytes and
// therefore equal IDs.
func (p Profile) Canonical() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "9cprof/%d k=%d fill=%s lens=", Version, p.K, p.Fill)
	for i, l := range p.Lengths {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(l))
	}
	b.WriteByte('\n')
	return []byte(b.String())
}

// ID is the profile's content address: the hex SHA-256 of its
// canonical encoding. Two profiles share an ID iff they are the same
// profile.
func (p Profile) ID() string {
	sum := sha256.Sum256(p.Canonical())
	return hex.EncodeToString(sum[:])
}

// ParseProfile reads the canonical wire encoding back into a Profile.
// It is strict: the bytes must round-trip (Canonical() of the result
// equals the input), so an ID computed over parsed bytes always
// matches the ID the emitter computed. Every failure is classified
// under the robust taxonomy — hostile bytes get an error, never a
// panic (pinned by the inject campaign in the tests).
func ParseProfile(data []byte) (Profile, error) {
	var p Profile
	line := string(data)
	body, ok := strings.CutSuffix(line, "\n")
	if !ok {
		return p, fmt.Errorf("codecopt: profile missing trailing newline: %w", robust.ErrTruncated)
	}
	fields := strings.Split(body, " ")
	if len(fields) != 4 {
		return p, fmt.Errorf("codecopt: profile has %d fields, want 4: %w", len(fields), robust.ErrCorrupt)
	}
	ver, ok := strings.CutPrefix(fields[0], "9cprof/")
	if !ok {
		return p, fmt.Errorf("codecopt: bad profile magic %q: %w", fields[0], robust.ErrCorrupt)
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v != Version {
		return p, fmt.Errorf("codecopt: unsupported profile version %q: %w", ver, robust.ErrCorrupt)
	}
	kStr, ok := strings.CutPrefix(fields[1], "k=")
	if !ok {
		return p, fmt.Errorf("codecopt: profile field %q, want k=: %w", fields[1], robust.ErrCorrupt)
	}
	if p.K, err = strconv.Atoi(kStr); err != nil {
		return p, fmt.Errorf("codecopt: bad k %q: %w", kStr, robust.ErrCorrupt)
	}
	fill, ok := strings.CutPrefix(fields[2], "fill=")
	if !ok {
		return p, fmt.Errorf("codecopt: profile field %q, want fill=: %w", fields[2], robust.ErrCorrupt)
	}
	p.Fill = Fill(fill)
	lens, ok := strings.CutPrefix(fields[3], "lens=")
	if !ok {
		return p, fmt.Errorf("codecopt: profile field %q, want lens=: %w", fields[3], robust.ErrCorrupt)
	}
	parts := strings.Split(lens, ",")
	if len(parts) != core.NumCases {
		return p, fmt.Errorf("codecopt: %d lengths, want %d: %w", len(parts), core.NumCases, robust.ErrCorrupt)
	}
	for i, s := range parts {
		if p.Lengths[i], err = strconv.Atoi(s); err != nil {
			return p, fmt.Errorf("codecopt: bad length %q: %w", s, robust.ErrCorrupt)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	// Strictness guard: any non-canonical spelling of a valid profile
	// (leading zeros, plus signs) must not parse, or one profile could
	// answer to several IDs.
	if string(p.Canonical()) != line {
		return Profile{}, fmt.Errorf("codecopt: profile encoding not canonical: %w", robust.ErrCorrupt)
	}
	return p, nil
}

// kraftOK reports whether the length vector satisfies Kraft ≤ 1.
// Lengths are pre-checked to [1, MaxCodeLen], so fixed-point in units
// of 2^-MaxCodeLen is exact.
func kraftOK(lengths [core.NumCases]int) bool {
	sum := 0
	for _, l := range lengths {
		if l < 1 || l > MaxCodeLen {
			return false
		}
		sum += 1 << (MaxCodeLen - l)
	}
	return sum <= 1<<MaxCodeLen
}
