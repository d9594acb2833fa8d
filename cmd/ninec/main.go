// Command ninec applies the 9C codec to test-cube files in the 01X
// text format (one pattern per line, '#' comments).
//
// Usage:
//
//	ninec -stat cubes.txt                 # volume and X statistics
//	ninec -k 8 cubes.txt                  # compress: CR, LX, TAT report
//	ninec -k 8 -fd cubes.txt              # frequency-directed assignment
//	ninec -sweep cubes.txt                # CR/LX over the Table II K sweep
//	ninec -k 8 -verify cubes.txt          # compress + decode + cross-check
//	ninec -k 8 -p 16 cubes.txt            # TAT at f_scan = 16 f_ate
//	ninec -k 8 -workers 4 cubes.txt       # encode with 4 parallel workers
//	ninec -k 8 -json cubes.txt            # machine-readable encode report
//	ninec -k 8 -o out.9c cubes.txt        # write the compressed N9C4 container
//	ninec -d out.9c                       # decompress a container to stdout
//
// Robustness controls:
//
//	ninec -timeout 30s ...                # cancel the encode at a deadline
//	ninec -d -max-patterns 4096 out.9c    # cap header-driven allocations
//	ninec -d -max-bits 1048576 out.9c     # cap the stored |T_E| payload
//	ninec -d -strict=false out.9c         # salvage the prefix of a corrupt container
//
// Telemetry (all off by default):
//
//	ninec -metrics - ...                  # Prometheus text metrics on exit
//	ninec -trace trace.ndjson ...         # structured stage-span events
//	ninec -pprof localhost:6060 ...       # net/http/pprof while running
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/ate"
	"repro/internal/bitvec"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/reorder"
	"repro/internal/robust"
	"repro/internal/stil"
	"repro/internal/tcube"
)

// runOpts carries every flag of the compress path.
type runOpts struct {
	K, P    int
	FD      bool
	Stat    bool
	Sweep   bool
	Verify  bool
	Out     string
	Chains  int
	Reorder bool
	Workers int
	JSON    bool
	Timeout time.Duration
}

// decOpts carries every flag of the decompress path.
type decOpts struct {
	// Strict rejects any corruption; false salvages the decodable
	// prefix of a damaged container instead.
	Strict bool
	// MaxPatterns/MaxBits bound header-driven allocations (0 = the
	// robust package defaults). MaxBits caps the stored |T_E|.
	MaxPatterns, MaxBits int
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain runs the whole CLI and reports an exit code instead of
// calling os.Exit, so the deferred recover below is the single place a
// library panic can surface: as one classified line on stderr and a
// non-zero exit, never a goroutine dump shown to the user.
func realMain(args []string) (code int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintln(os.Stderr, panicMessage(r))
			code = 2
		}
	}()

	fs := flag.NewFlagSet("ninec", flag.ContinueOnError)
	var o runOpts
	var telemetry obs.CLIConfig
	fs.IntVar(&o.K, "k", 8, "block size K (even, >= 2)")
	fs.IntVar(&o.P, "p", 8, "scan-to-ATE clock ratio for the TAT report")
	fs.BoolVar(&o.FD, "fd", false, "use the frequency-directed codeword assignment")
	fs.BoolVar(&o.Stat, "stat", false, "print test-set statistics only")
	fs.BoolVar(&o.Sweep, "sweep", false, "sweep K over the Table II values")
	fs.BoolVar(&o.Verify, "verify", false, "decode through the hardware model and cross-check")
	fs.StringVar(&o.Out, "o", "", "write the compressed stream to this container file")
	dec := fs.Bool("d", false, "treat the input as a container and decompress to stdout")
	fs.IntVar(&o.Chains, "chains", 1, "encode for this many parallel scan chains (vertical order, one ATE pin)")
	fs.BoolVar(&o.Reorder, "reorder", false, "greedily reorder scan cells for compatibility before encoding")
	fs.IntVar(&o.Workers, "workers", 0, "parallel encode workers (0 = GOMAXPROCS; output is identical to serial)")
	fs.BoolVar(&o.JSON, "json", false, "emit the encode report as one JSON object on stdout")
	fs.DurationVar(&o.Timeout, "timeout", 0, "abort the encode after this duration (0 = no limit)")
	var d decOpts
	fs.BoolVar(&d.Strict, "strict", true, "with -d: reject any corruption; -strict=false salvages the decodable prefix")
	fs.IntVar(&d.MaxPatterns, "max-patterns", 0, "with -d: reject containers claiming more patterns (0 = default limit)")
	fs.IntVar(&d.MaxBits, "max-bits", 0, "with -d: reject containers whose stored stream exceeds this many bits (0 = default limit)")
	telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ninec [flags] <cubes.txt | file.9c>")
		fs.Usage()
		return 2
	}
	stop, err := telemetry.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninec:", err)
		return 1
	}
	if *dec {
		err = runDecompress(fs.Arg(0), d)
	} else {
		err = run(fs.Arg(0), o)
	}
	if serr := stop(); serr != nil && err == nil {
		err = serr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ninec:", err)
		return 1
	}
	return 0
}

// panicMessage renders a recovered panic value as the one classified
// line realMain prints before exiting non-zero: the robust taxonomy
// class when the panic carried a classified error, "internal"
// otherwise.
func panicMessage(r any) string {
	err, ok := r.(error)
	if !ok {
		err = fmt.Errorf("%v", r)
	}
	class := robust.Classify(err)
	if class == "" {
		class = "internal"
	}
	return fmt.Sprintf("ninec: fatal (%s): %v", class, err)
}

// countFault publishes one decode fault to the telemetry registry,
// keyed by its robust taxonomy class (a no-op when telemetry is off).
func countFault(err error) {
	if reg := obs.Active(); reg != nil && err != nil {
		class := robust.Classify(err)
		if class == "" {
			class = "other"
		}
		reg.Counter("ninec.decode.fault." + class).Inc()
	}
}

// runDecompress reads a container, decodes it, and prints the decoded
// cube set (leftover X intact) as 01X text. The set keeps the name
// stored in the container header; legacy nameless containers fall back
// to the container's own base name. Header-driven allocations are
// bounded by -max-patterns / -max-bits, and -strict=false salvages the
// decodable prefix of a corrupt container instead of rejecting it.
func runDecompress(path string, o decOpts) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	lim := robust.DecodeLimits{MaxPatterns: o.MaxPatterns}
	if o.MaxBits > 0 {
		// -max-bits caps the stored |T_E|; the container payload holds
		// two byte planes of that many bits.
		lim.MaxPayloadBytes = 2 * ((o.MaxBits + 7) / 8)
	}
	r, diag, err := container.ReadWithOptions(f, container.Options{Limits: lim, Lenient: !o.Strict})
	if err != nil {
		countFault(err)
		return err
	}
	cdc, err := core.NewWithAssignment(r.K, r.Assign)
	if err != nil {
		return err
	}
	var set *tcube.Set
	var cube *bitvec.Cube
	if o.Strict {
		set, cube, err = cdc.Decode(r)
		if err != nil {
			countFault(err)
			return err
		}
	} else {
		// Best-effort: decode what survives, report what was lost.
		if !diag.PayloadCRCOK {
			fmt.Fprintln(os.Stderr, "ninec: warning: payload checksum mismatch, decoding best-effort")
		}
		if diag.PlaneConflicts > 0 {
			fmt.Fprintf(os.Stderr, "ninec: warning: %d corrupt payload bits demoted to X\n", diag.PlaneConflicts)
		}
		if r.Patterns > 0 || r.Width > 0 {
			set, err = cdc.DecodeSetPartial(r.Stream, r.Width, r.Patterns)
			if err != nil {
				countFault(err)
				fmt.Fprintf(os.Stderr, "ninec: warning: recovered %d of %d patterns: %v\n", set.Len(), r.Patterns, err)
			}
		} else {
			cube, err = cdc.DecodeCubePartial(r.Stream, r.OrigBits)
			if err != nil {
				countFault(err)
				fmt.Fprintf(os.Stderr, "ninec: warning: recovered %d of %d bits: %v\n", cube.Len(), r.OrigBits, err)
			}
		}
	}
	name := r.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	if set == nil {
		set, err = tcube.FromFlat(name, cube, cube.Len())
		if err != nil {
			return err
		}
	} else {
		set.Name = name
	}
	fmt.Fprintf(os.Stderr, "%s: K=%d, %d patterns x %d bits, CR %.2f%%, leftover X %.2f%%\n",
		set.Name, r.K, r.Patterns, r.Width, r.CR(), r.LXPercent())
	return set.Write(os.Stdout)
}

func run(path string, o runOpts) error {
	if o.JSON && (o.Stat || o.Sweep) {
		return fmt.Errorf("-json applies to the compress report; drop -stat/-sweep")
	}
	set, err := readCubes(path)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if o.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.Timeout)
		defer cancel()
	}
	say := func(format string, args ...any) {
		if !o.JSON {
			fmt.Printf(format, args...)
		}
	}
	say("%s: %d patterns x %d bits = %d bits, %.2f%% don't-care\n",
		set.Name, set.Len(), set.Width(), set.Bits(), set.XPercent())
	if o.Stat {
		fmt.Print(tcube.Measure(set).String())
		return nil
	}
	if o.Reorder {
		perm, reordered, err := reorder.Greedy(set)
		if err != nil {
			return err
		}
		set = reordered
		say("reordered %d scan cells for compatibility (chain stitching permutation computed)\n", len(perm))
	}
	if o.Chains > 1 {
		// Multi-scan reduced pin-count mode: pad the width to a chain
		// multiple and encode in the vertical order the Fig. 3 decoder
		// consumes; the ATE still needs only one data pin.
		w := set.Width()
		if rem := w % o.Chains; rem != 0 {
			w += o.Chains - rem
		}
		padded := tcube.NewSet(set.Name, w)
		for i := 0; i < set.Len(); i++ {
			if err := padded.Append(set.Cube(i).Slice(0, w)); err != nil {
				return err
			}
		}
		set, err = tcube.Verticalize(padded, o.Chains)
		if err != nil {
			return err
		}
		say("multi-scan: %d chains of %d cells, vertical order, 1 ATE pin\n", o.Chains, w/o.Chains)
	}
	if o.Sweep {
		fmt.Printf("%4s %8s %8s %10s\n", "K", "CR%", "LX%", "|T_E|")
		for _, kk := range []int{4, 8, 12, 16, 20, 24, 28, 32} {
			r, err := encode(ctx, set, kk, o.FD, o.Workers)
			if err != nil {
				return err
			}
			fmt.Printf("%4d %8.2f %8.2f %10d\n", kk, r.CR(), r.LXPercent(), r.CompressedBits())
		}
		return nil
	}

	r, err := encode(ctx, set, o.K, o.FD, o.Workers)
	if err != nil {
		return err
	}
	say("K=%d: |T_E| = %d bits, CR = %.2f%%, leftover X = %.2f%%\n",
		o.K, r.CompressedBits(), r.CR(), r.LXPercent())
	say("codewords: %s\n", r.Assign)
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		say("  N%d (%s) = %d\n", int(cs), cs.Symbol(), r.Counts.N(cs))
	}
	rep, err := ate.Session{P: o.P, FillSeed: 1}.RunSingleScan(r)
	if err != nil {
		return err
	}
	say("TAT at p=%d: %.2f%% (analytic %.2f%%)\n", o.P, rep.TATMeasured, rep.TATAnalytic)

	if o.Out != "" {
		f, err := os.Create(o.Out)
		if err != nil {
			return err
		}
		if err := container.WriteVersion(f, r, container.Magic4); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		say("wrote %s\n", o.Out)
	}

	verified := false
	if o.Verify {
		cdc, err := codecFor(o.K, o.FD, r)
		if err != nil {
			return err
		}
		dec, err := cdc.DecodeSet(r.Stream, set.Width(), set.Len())
		if err != nil {
			return err
		}
		if !set.Covers(dec) {
			return fmt.Errorf("decode contradicts a specified bit")
		}
		verified = true
		say("verify: decode preserves every specified bit\n")
	}

	if o.JSON {
		return writeJSONReport(os.Stdout, set, r, rep, o, verified)
	}
	return nil
}

// writeJSONReport emits the encode report as a single obs.Event JSON
// object, so report consumers and trace consumers share one schema.
func writeJSONReport(w *os.File, set *tcube.Set, r *core.Result, rep *ate.Report, o runOpts, verified bool) error {
	counts := make(map[string]int64, core.NumCases)
	for cs := core.CaseAll0; cs <= core.CaseMisMis; cs++ {
		counts[fmt.Sprintf("n%d", int(cs))] = int64(r.Counts.N(cs))
	}
	fields := map[string]any{
		"set":             set.Name,
		"patterns":        r.Patterns,
		"width":           r.Width,
		"k":               r.K,
		"fd":              o.FD,
		"workers":         o.Workers,
		"chains":          o.Chains,
		"orig_bits":       r.OrigBits,
		"compressed_bits": r.CompressedBits(),
		"blocks":          r.Blocks,
		"cr_percent":      r.CR(),
		"lx_percent":      r.LXPercent(),
		"counts":          counts,
		"codewords":       r.Assign.String(),
		"tat": map[string]any{
			"p":        o.P,
			"measured": rep.TATMeasured,
			"analytic": rep.TATAnalytic,
		},
	}
	if o.Out != "" {
		fields["container"] = o.Out
	}
	if o.Verify {
		fields["verified"] = verified
	}
	ev := obs.Event{
		TimeUnixNano: time.Now().UnixNano(),
		Type:         "encode_report",
		Name:         set.Name,
		Fields:       fields,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ev)
}

// readCubes loads a cube set, selecting the parser by extension: .stil
// files go through the STIL-subset reader, everything else through the
// 01X text reader.
func readCubes(path string) (*tcube.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(strings.ToLower(path), ".stil") {
		return stil.Read(f)
	}
	return tcube.Read(path, f)
}

// encode runs the encoder on workers goroutines (≤ 0 selects
// GOMAXPROCS) under the caller's context (the -timeout deadline); its
// output is bit-identical to the serial path, so every downstream
// report is unaffected by workers.
func encode(ctx context.Context, set *tcube.Set, k int, fd bool, workers int) (*core.Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opt := core.EncodeOptions{Workers: workers}
	cdc, err := core.New(k)
	if err != nil {
		return nil, err
	}
	if !fd {
		return cdc.Encode(ctx, set, opt)
	}
	first, err := cdc.Encode(ctx, set, opt)
	if err != nil {
		return nil, err
	}
	cdc, err = core.NewWithAssignment(k, core.FrequencyDirected(first.Counts))
	if err != nil {
		return nil, err
	}
	return cdc.Encode(ctx, set, opt)
}

func codecFor(k int, fd bool, r *core.Result) (*core.Codec, error) {
	if fd {
		return core.NewWithAssignment(k, r.Assign)
	}
	return core.New(k)
}
