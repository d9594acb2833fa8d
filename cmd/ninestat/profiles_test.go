package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

const profileFixture = cacheFixture + `# TYPE ninecd_profiles_resident gauge
ninecd_profiles_resident 3
# TYPE ninecd_profiles_installs_total counter
ninecd_profiles_installs_total 6
# TYPE ninecd_train_requests_total counter
ninecd_train_requests_total 2
# TYPE ninecd_train_last_uplift_bp gauge
ninecd_train_last_uplift_bp 125
`

func TestSummarizeProfileStats(t *testing.T) {
	prev := mustScrape(t, profileFixture)
	curText := strings.NewReplacer(
		"ninecd_profiles_installs_total 6", "ninecd_profiles_installs_total 26",
		"ninecd_train_requests_total 2", "ninecd_train_requests_total 3",
	).Replace(profileFixture)
	cur := mustScrape(t, curText)
	cur.at = prev.at.Add(10 * time.Second)

	sum := summarize("test", cur, prev)
	if !sum.Profiles.Present {
		t.Fatal("profile families in the scrape but Present = false")
	}
	if sum.Profiles.Resident != 3 {
		t.Errorf("resident = %v, want 3", sum.Profiles.Resident)
	}
	if math.Abs(sum.Profiles.InstallsPerSec-2) > 1e-9 {
		t.Errorf("installs/s = %v, want 2", sum.Profiles.InstallsPerSec)
	}
	if sum.Profiles.Trains != 3 {
		t.Errorf("trains = %v, want 3 (cumulative)", sum.Profiles.Trains)
	}
	// The daemon exports basis points; the console reports percentage points.
	if math.Abs(sum.Profiles.LastUpliftPct-1.25) > 1e-9 {
		t.Errorf("uplift = %v, want 1.25pp from 125bp", sum.Profiles.LastUpliftPct)
	}
}

func TestSummarizeProfilesAbsent(t *testing.T) {
	prev := mustScrape(t, cacheFixture)
	cur := mustScrape(t, cacheFixture)
	cur.at = prev.at.Add(10 * time.Second)
	if sum := summarize("test", cur, prev); sum.Profiles.Present {
		t.Fatal("pre-profile daemon exposition must leave Profiles.Present false")
	}
}

func TestRenderProfileLine(t *testing.T) {
	var with strings.Builder
	render(&with, summary{Profiles: profileStat{
		Present: true, Resident: 3, InstallsPerSec: 0.5, Trains: 2, LastUpliftPct: 1.25,
	}}, false)
	if !strings.Contains(with.String(), "tuned vs fixed +1.25pp") {
		t.Errorf("profile line missing uplift:\n%s", with.String())
	}
	if !strings.Contains(with.String(), "profiles 3 resident") {
		t.Errorf("profile line missing resident count:\n%s", with.String())
	}
	var without strings.Builder
	render(&without, summary{}, false)
	if strings.Contains(without.String(), "tuned vs fixed") {
		t.Errorf("profile line rendered for a pre-profile daemon:\n%s", without.String())
	}
}
