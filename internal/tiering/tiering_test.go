package tiering

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

type fixedDev struct {
	lat      float64
	accesses uint64
}

func (d *fixedDev) Access(now float64, addr uint64, kind mem.Kind) float64 {
	d.accesses++
	return now + d.lat
}
func (d *fixedDev) Name() string           { return "fixed" }
func (d *fixedDev) Reset()                 { d.accesses = 0 }
func (d *fixedDev) Stats() mem.DeviceStats { return mem.DeviceStats{} }

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.FastPages = 64
	cfg.EpochAccesses = 2000
	cfg.MigrateBatch = 64
	cfg.MigrationCostNs = 0
	return cfg
}

// hotTrafficAvg runs a hot/cold access mix and returns the average
// demand latency over the last half of the run.
func hotTrafficAvg(t *testing.T, policy Policy) float64 {
	t.Helper()
	fast := &fixedDev{lat: 100}
	slow := &fixedDev{lat: 400}
	cfg := testConfig()
	cfg.Policy = policy
	td := New(fast, slow, cfg)
	r := sim.NewRand(1)
	now := 0.0
	var sum float64
	var n int
	const total = 40_000
	for i := 0; i < total; i++ {
		var page uint64
		if r.Bool(0.9) {
			page = r.Uint64n(32) // hot: 32 pages
		} else {
			page = 1000 + r.Uint64n(100_000) // cold tail
		}
		done := td.Access(now, page*4096+r.Uint64n(64)*64, mem.DemandRead)
		if i > total/2 {
			sum += done - now
			n++
		}
		now = done
	}
	return sum / float64(n)
}

func TestHotPagesGetPromoted(t *testing.T) {
	avg := hotTrafficAvg(t, PolicySpa)
	// 90% of accesses hit 32 hot pages, which fit the 64-page fast
	// tier: steady-state latency must approach 0.9*100 + 0.1*400 = 130.
	if avg > 180 {
		t.Fatalf("steady-state latency %v; hot set not promoted", avg)
	}
}

func TestBothPoliciesBeatStatic(t *testing.T) {
	static := 400.0 // everything on slow
	for _, p := range []Policy{PolicyAccessCount, PolicySpa} {
		if avg := hotTrafficAvg(t, p); avg >= static*0.6 {
			t.Fatalf("policy %v: avg %v, want well below all-slow %v", p, avg, static)
		}
	}
}

// TestSpaPolicyIgnoresCheapTraffic is the paper's point: a page hammered
// by prefetches (which do not stall the CPU) should lose the fast tier
// to a page whose demand loads stall — access counting gets this wrong.
func TestSpaPolicyIgnoresCheapTraffic(t *testing.T) {
	run := func(policy Policy) (demandAvg float64) {
		fast := &fixedDev{lat: 100}
		slow := &fixedDev{lat: 400}
		cfg := testConfig()
		cfg.FastPages = 8
		cfg.Policy = policy
		td := New(fast, slow, cfg)
		r := sim.NewRand(2)
		now := 0.0
		var sum float64
		var n int
		const total = 60_000
		for i := 0; i < total; i++ {
			if r.Bool(0.7) {
				// Prefetch storm concentrated on 4 pages: they dominate
				// access counts but never stall the CPU.
				page := 100 + r.Uint64n(4)
				now = td.Access(now, page*4096, mem.PrefetchL2)
				continue
			}
			// Demand traffic on pages 0..7.
			page := r.Uint64n(8)
			done := td.Access(now, page*4096+r.Uint64n(64)*64, mem.DemandRead)
			if i > total/2 {
				sum += done - now
				n++
			}
			now = done
		}
		return sum / float64(n)
	}
	spaAvg := run(PolicySpa)
	countAvg := run(PolicyAccessCount)
	if spaAvg >= countAvg {
		t.Fatalf("Spa policy (%v) not better than access count (%v) under cheap-traffic interference",
			spaAvg, countAvg)
	}
	if spaAvg > 150 {
		t.Fatalf("Spa policy failed to keep demand pages fast: %v", spaAvg)
	}
}

func TestCapacityRespected(t *testing.T) {
	fast := &fixedDev{lat: 100}
	slow := &fixedDev{lat: 400}
	cfg := testConfig()
	cfg.FastPages = 16
	td := New(fast, slow, cfg)
	r := sim.NewRand(3)
	now := 0.0
	for i := 0; i < 30_000; i++ {
		now = td.Access(now, r.Uint64n(64)*4096, mem.DemandRead)
	}
	if td.FastResidentPages() > 16 {
		t.Fatalf("fast tier holds %d pages, capacity 16", td.FastResidentPages())
	}
	if td.Epochs() == 0 || td.Migrations() == 0 {
		t.Fatal("no tiering activity")
	}
}

func TestMigrationCostDelays(t *testing.T) {
	mk := func(cost float64) float64 {
		fast := &fixedDev{lat: 100}
		slow := &fixedDev{lat: 400}
		cfg := testConfig()
		cfg.MigrationCostNs = cost
		td := New(fast, slow, cfg)
		r := sim.NewRand(4)
		now := 0.0
		for i := 0; i < 20_000; i++ {
			now = td.Access(now, r.Uint64n(256)*4096, mem.DemandRead)
		}
		return now
	}
	if free, costly := mk(0), mk(2_000); costly <= free {
		t.Fatalf("migration cost had no effect: %v vs %v", free, costly)
	}
}

func TestResetClears(t *testing.T) {
	td := New(&fixedDev{lat: 100}, &fixedDev{lat: 400}, testConfig())
	r := sim.NewRand(5)
	now := 0.0
	for i := 0; i < 5_000; i++ {
		now = td.Access(now, r.Uint64n(64)*4096, mem.DemandRead)
	}
	td.Reset()
	if td.FastResidentPages() != 0 || td.Epochs() != 0 {
		t.Fatal("Reset left tiering state")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-capacity config accepted")
		}
	}()
	New(&fixedDev{}, &fixedDev{}, Config{})
}

func TestRankBreaksTiesByPage(t *testing.T) {
	for _, policy := range []Policy{PolicyAccessCount, PolicySpa} {
		cfg := testConfig()
		cfg.Policy = policy
		cfg.EpochAccesses = 1 << 40 // rank by hand, never in Access
		td := New(&fixedDev{lat: 100}, &fixedDev{lat: 100}, cfg)
		// 300 pages with one access each and 10 hot pages with three:
		// two tied groups.
		for p := uint64(0); p < 300; p++ {
			td.Access(0, (p*7919%1000)*pageBytes, mem.DemandRead)
		}
		for p := uint64(0); p < 10; p++ {
			for i := 0; i < 2; i++ {
				td.Access(0, (p*7919%1000)*pageBytes, mem.DemandRead)
			}
		}
		pages := func() []uint64 {
			var out []uint64
			for _, ps := range td.rank() {
				out = append(out, ps.page)
			}
			return out
		}
		first := pages()
		for i, p := range first {
			if i == 10 || i == 0 {
				continue
			}
			if p < first[i-1] {
				t.Fatalf("%v: rank %d has page %d after page %d in a tie", policy, i, p, first[i-1])
			}
		}
		for try := 0; try < 5; try++ {
			again := pages()
			for i := range first {
				if again[i] != first[i] {
					t.Fatalf("%v: rank %d is page %d, then page %d", policy, i, first[i], again[i])
				}
			}
		}
	}
}
