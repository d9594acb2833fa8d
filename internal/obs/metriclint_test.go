package obs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMetricNameContract is the repo's metriclint: it scans every
// non-test Go source file for metric and span registrations and
// enforces the naming contract end to end:
//
//  1. every string literal contributing to a metric name is
//     dot-separated lowercase ([a-z0-9._] only), so the dotted
//     namespace stays greppable and consistent;
//  2. every fully-literal name is a well-formed dotted name (no empty
//     segments, no leading/trailing dot);
//  3. the Prometheus mapping (PromName plus the derived _total /
//     _bucket / _sum / _count families and span.<name> histograms) is
//     collision-free — no two distinct registrations can ever emit the
//     same exposition series.
//
// Run by `make metriclint` (and therefore `make check`).
func TestMetricNameContract(t *testing.T) {
	root := filepath.Join("..", "..")

	// call site: .Counter("..."), .Gauge(...), etc. The first argument
	// is captured when it is a concatenation of string literals and
	// simple expressions; calls whose name is computed elsewhere (e.g. a
	// variable) contribute only their literal pieces.
	callRe := regexp.MustCompile(
		`\.(Counter|Gauge|Histogram|Span|Describe)\(\s*((?:"[^"]*"|[A-Za-z_][A-Za-z0-9_.\[\]()]*)(?:\s*\+\s*(?:"[^"]*"|[A-Za-z_][A-Za-z0-9_.\[\]()]*))*)`)
	litRe := regexp.MustCompile(`"([^"]*)"`)
	pieceOK := regexp.MustCompile(`^[a-z0-9._]*$`)
	fullOK := regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)

	// series -> "kind dotted-name (file)" of the registration that owns it.
	series := make(map[string]string)
	var errs []string
	claim := func(name, kind, owner string, fams ...string) {
		for _, fam := range fams {
			if prev, ok := series[fam]; ok && prev != kind+" "+name {
				errs = append(errs, fmt.Sprintf(
					"Prometheus series %q claimed by both %s and %s %s (%s)",
					fam, prev, kind, name, owner))
			}
			series[fam] = kind + " " + name
		}
	}

	nFiles := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == "related" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		nFiles++
		rel, _ := filepath.Rel(root, path)
		for _, m := range callRe.FindAllStringSubmatch(string(data), -1) {
			kind, arg := m[1], m[2]
			lits := litRe.FindAllStringSubmatch(arg, -1)
			for _, lit := range lits {
				if !pieceOK.MatchString(lit[1]) {
					errs = append(errs, fmt.Sprintf(
						"%s: %s name piece %q violates the charset contract [a-z0-9._]",
						rel, kind, lit[1]))
				}
			}
			// Fully-literal names (a single quoted string, nothing else)
			// additionally join the collision check.
			if len(lits) != 1 || strings.TrimSpace(arg) != `"`+lits[0][1]+`"` {
				continue
			}
			name := lits[0][1]
			if !fullOK.MatchString(name) {
				errs = append(errs, fmt.Sprintf(
					"%s: %s name %q is not a well-formed dotted name", rel, kind, name))
				continue
			}
			p := PromName(name)
			switch kind {
			case "Counter":
				claim(name, kind, rel, p+"_total")
			case "Gauge":
				claim(name, kind, rel, p)
			case "Histogram":
				claim(name, "histogram", rel, p+"_bucket", p+"_sum", p+"_count")
			case "Span":
				// A span records its duration into histogram span.<name>.
				sp := PromName("span." + name)
				claim("span."+name, "histogram", rel, sp+"_bucket", sp+"_sum", sp+"_count")
			case "Describe":
				// Documentation only; no series.
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nFiles < 10 {
		t.Fatalf("metriclint only saw %d source files — walk is broken", nFiles)
	}
	// Known registrations must have been discovered, or the call regex
	// has silently stopped matching and the lint is vacuous.
	for _, want := range []string{"ninecd_inflight", "ninecd_slo_window_total"} {
		if _, ok := series[want]; !ok {
			t.Errorf("expected series %q was not discovered — call scan broken?", want)
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		t.Fatalf("metric-name contract violations:\n  %s", strings.Join(errs, "\n  "))
	}
}

// TestMetricNameContractCatches proves the linter logic itself rejects
// the failure modes it exists for, so a green run means something.
func TestMetricNameContractCatches(t *testing.T) {
	bad := []string{"Bad.Upper", "trailing.", ".leading", "double..dot", "spaces in name", ""}
	fullOK := regexp.MustCompile(`^[a-z0-9_]+(\.[a-z0-9_]+)*$`)
	for _, name := range bad {
		if fullOK.MatchString(name) {
			t.Errorf("contract accepted %q", name)
		}
	}
	// The collision the mapping must catch: dots and underscores merge.
	if PromName("a.b_c") != PromName("a_b.c") {
		t.Error("expected these to collide under PromName — the check depends on it")
	}
}
