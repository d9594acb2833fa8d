package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtraCodecopt(t *testing.T) {
	tab, err := ExtraCodecopt()
	if err != nil {
		t.Fatal(err)
	}
	// One row per benchmark plus the corpus-wide profile.
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[6][0], "ALL") {
		t.Fatalf("missing corpus-wide row: %v", tab.Rows[6])
	}
	for _, row := range tab.Rows {
		up, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("%s: uplift %q not a number", row[0], row[3])
		}
		// fill=none is searched, so tuned can never lose to the fixed code.
		if up < 0 {
			t.Errorf("%s: uplift %.2f < 0", row[0], up)
		}
	}

	// Same corpus, same table — the closed form must be deterministic.
	again, err := ExtraCodecopt()
	if err != nil {
		t.Fatal(err)
	}
	if tab.String() != again.String() {
		t.Fatal("ExtraCodecopt is not deterministic")
	}
}
