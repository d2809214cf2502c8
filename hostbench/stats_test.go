package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileFromSampleCount(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {250000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackToMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	v, p := tail(xs)
	if p != 50 || v != 3 {
		t.Fatalf("tail of 3 samples = %g at p%g, want the median 3 at p50", v, p)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	lists, err := loadMetrics("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(lists.EndToEnd, lists.PerLayer...) {
		if !validName(d.Name) {
			t.Errorf("reported metric %q breaks the grammar", d.Name)
		}
	}
	for _, bad := range []string{"", "wall s", "wall/s", "wall_s!", ".wall", "_wall", "wäll", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	for _, good := range []string{"a", "0x", "core.new_mb", "hit-ms.p99", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false, want true", good)
		}
	}
}

func TestLadderSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "cell", Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Name: "core.new", Parent: 0, StartNs: 0, EndNs: 20},
		{ID: 2, Name: "core.run", Parent: 0, StartNs: 20, EndNs: 90,
			Attrs: map[string]float64{"units": 7, "dev.cxl.ns": 30, "dev.cxl.n": 3}},
	}
	rows := ladder(spans)
	want := map[string][2]float64{ // self ns, count
		"cell": {10, 1}, "core.new": {20, 1}, "core.run": {40, 7}, "cxl": {30, 3},
	}
	if len(rows) != len(want) {
		t.Fatalf("ladder has %d rows, want %d: %+v", len(rows), len(want), rows)
	}
	for _, r := range rows {
		w := want[r.Layer]
		if r.SelfNs != w[0] || r.Count != w[1] {
			t.Errorf("%s: self %g count %g, want %g %g", r.Layer, r.SelfNs, r.Count, w[0], w[1])
		}
	}
}
