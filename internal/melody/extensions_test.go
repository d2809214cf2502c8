package melody

import (
	"fmt"
	"strings"
	"testing"
)

func TestCPMUExpShowsSchedulerTails(t *testing.T) {
	rep := CPMUExp(testCtx(Options{Seed: 1, DurationNs: 60_000}))
	if len(rep.Lines) < 5 {
		t.Fatalf("cpmu report too short: %v", rep.Lines)
	}
	joined := strings.Join(rep.Lines, "\n")
	for _, dev := range []string{"CXL-A", "CXL-B", "CXL-C", "CXL-D"} {
		if !strings.Contains(joined, dev) {
			t.Fatalf("cpmu report missing %s", dev)
		}
	}
}

func TestPredictSmoke(t *testing.T) {
	rep := Predict(testCtx(Options{MaxWorkloads: 8, Instructions: 300_000, Warmup: 80_000, Seed: 1}))
	joined := strings.Join(rep.Lines, "\n")
	if !strings.Contains(joined, "predictions") {
		t.Fatalf("predict report malformed:\n%s", joined)
	}
	// The median prediction error line must be present; detailed
	// accuracy is asserted in the spa package tests.
	if !strings.Contains(joined, "median") {
		t.Fatalf("predict report missing summary:\n%s", joined)
	}
}

func TestTieringBetweenEndpoints(t *testing.T) {
	rep := TieringExp(testCtx(Options{Seed: 1, Instructions: 700_000}))
	var local, all, spaP float64
	for _, l := range rep.Lines {
		switch {
		case strings.Contains(l, "all local DRAM"):
			local = lastField(t, l)
		case strings.Contains(l, "all CXL-A"):
			all = lastField(t, l)
		case strings.Contains(l, "spa metric"):
			spaP = lastField(t, l)
		}
	}
	if !(all < spaP && spaP < local) {
		t.Fatalf("tiering not between endpoints: all=%v tiered=%v local=%v", all, spaP, local)
	}
	recovery := (spaP - all) / (local - all)
	if recovery < 0.1 {
		t.Fatalf("tiering recovered only %.0f%% of the gap", recovery*100)
	}
}

func TestTieringReportDeterministic(t *testing.T) {
	// Pages tied on score must not rank in map order, or the migration
	// set, and with it every IPC, changes between runs.
	render := func() string {
		return strings.Join(TieringExp(testCtx(Options{Seed: 1, Instructions: 700_000})).Lines, "\n")
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("two tiering runs at seed 1 differ:\n%s\n---\n%s", a, b)
	}
}

// lastField parses the trailing float on a report line.
func lastField(t *testing.T, line string) float64 {
	t.Helper()
	fields := strings.Fields(line)
	var v float64
	if _, err := fmt.Sscanf(fields[len(fields)-1], "%f", &v); err != nil {
		t.Fatalf("cannot parse %q: %v", line, err)
	}
	return v
}
