package serve

import (
	"runtime"
	"testing"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// TestRuntimeSamplerMapsReading pins the Reading → gauge mapping with
// an injected fake, including the prevNumGC handshake between samples.
func TestRuntimeSamplerMapsReading(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now().Add(-10*time.Second))

	var askedPrev []uint32
	rs.read = func(prev uint32) Reading {
		askedPrev = append(askedPrev, prev)
		return Reading{
			Goroutines: 42,
			HeapAlloc:  1 << 20,
			HeapSys:    4 << 20,
			NumGC:      7,
			PauseNs:    []float64{1000, 2000, 3000},
		}
	}
	rs.sample()

	if v := reg.Gauge("runtime/goroutines").Value(); v != 42 {
		t.Fatalf("goroutines = %v", v)
	}
	if v := reg.Gauge("runtime/heap_alloc_bytes").Value(); v != 1<<20 {
		t.Fatalf("heap_alloc_bytes = %v", v)
	}
	if v := reg.Gauge("runtime/heap_sys_bytes").Value(); v != 4<<20 {
		t.Fatalf("heap_sys_bytes = %v", v)
	}
	if v := reg.Gauge("runtime/gc_runs").Value(); v != 7 {
		t.Fatalf("gc_runs = %v", v)
	}
	if v := reg.Gauge("runtime/uptime_seconds").Value(); v < 10 {
		t.Fatalf("uptime_seconds = %v", v)
	}
	h := reg.Histogram("runtime/gc_pause_ns")
	if h.Count() != 3 || h.Sum() != 6000 {
		t.Fatalf("gc_pause_ns count=%d sum=%v", h.Count(), h.Sum())
	}

	// The next sample asks for pauses since the previous NumGC.
	rs.read = func(prev uint32) Reading {
		askedPrev = append(askedPrev, prev)
		return Reading{NumGC: 7} // no new cycles
	}
	rs.sample()
	if len(askedPrev) != 2 || askedPrev[0] != 0 || askedPrev[1] != 7 {
		t.Fatalf("prevNumGC handshake = %v, want [0 7]", askedPrev)
	}
	if h.Count() != 3 {
		t.Fatalf("no-new-cycles sample recorded pauses: count=%d", h.Count())
	}
}

// TestRuntimeSamplerPauseRingWraparound pins the PauseNs-ring contract
// end to end: a scrape gap wider than the runtime's 256-entry pause
// ring records exactly the ring's depth — the newest 256 pauses — not
// 0 and not the (unknowable) full gap.
func TestRuntimeSamplerPauseRingWraparound(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now())

	// A synthetic pause ring where cycle c's pause is c nanoseconds,
	// exactly as the runtime lays it out: cycle c at (c+255)%256.
	var ring [256]uint64
	const cur = 600
	for c := uint32(cur - 255); c <= cur; c++ {
		ring[(c+255)%256] = uint64(c)
	}
	rs.read = func(prev uint32) Reading {
		return Reading{NumGC: cur, PauseNs: PausesSince(&ring, prev, cur)}
	}

	// First sample: prev=0, gap of 600 cycles >> ring depth.
	rs.sample()
	h := reg.Histogram("runtime/gc_pause_ns")
	if h.Count() != 256 {
		t.Fatalf("wrapped sample recorded %d pauses, want 256", h.Count())
	}
	// Newest-biased: the retained pauses are cycles 345..600.
	if h.Min() != 345 || h.Max() != 600 {
		t.Fatalf("wrapped sample spans [%v, %v], want [345, 600]", h.Min(), h.Max())
	}

	// A later small advance records exactly the new cycles.
	rs.read = func(prev uint32) Reading {
		if prev != cur {
			t.Fatalf("second sample prev = %d, want %d", prev, cur)
		}
		return Reading{NumGC: cur + 2, PauseNs: []float64{7, 9}}
	}
	rs.sample()
	if h.Count() != 258 {
		t.Fatalf("count after advance = %d, want 258", h.Count())
	}
}

// TestRuntimeSamplerRealReadings smoke-checks the default (uninjected)
// path against the live runtime.
func TestRuntimeSamplerRealReadings(t *testing.T) {
	reg := obs.NewRegistry()
	rs := newRuntimeSampler(reg, time.Now())
	rs.sample()
	if reg.Gauge("runtime/goroutines").Value() <= 0 {
		t.Fatal("goroutines gauge not set from live runtime")
	}
	if reg.Gauge("runtime/heap_alloc_bytes").Value() <= 0 {
		t.Fatal("heap gauge not set from live runtime")
	}
}

func TestTakeReadingTracksGC(t *testing.T) {
	r0 := TakeReading(0)
	if r0.Goroutines <= 0 || r0.HeapAlloc == 0 {
		t.Fatalf("implausible reading %+v", r0)
	}
	runtime.GC()
	runtime.GC()
	r1 := TakeReading(r0.NumGC)
	if r1.NumGC < r0.NumGC+2 {
		t.Fatalf("NumGC did not advance: %d → %d", r0.NumGC, r1.NumGC)
	}
	if len(r1.PauseNs) != int(r1.NumGC-r0.NumGC) {
		t.Fatalf("PauseNs has %d entries for %d cycles", len(r1.PauseNs), r1.NumGC-r0.NumGC)
	}
}

func TestPausesSince(t *testing.T) {
	var ring [256]uint64
	for c := uint32(1); c <= 300; c++ {
		ring[(c+255)%256] = uint64(c)
	}
	// Normal window.
	got := PausesSince(&ring, 290, 295)
	want := []float64{291, 292, 293, 294, 295}
	if len(got) != len(want) {
		t.Fatalf("PausesSince = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PausesSince = %v, want %v", got, want)
		}
	}
	// Gap wider than the ring: clamped to the newest 256 cycles.
	got = PausesSince(&ring, 10, 300)
	if len(got) != 256 {
		t.Fatalf("wrapped window = %d pauses, want 256", len(got))
	}
	if got[0] != 45 || got[255] != 300 {
		t.Fatalf("wrapped window spans [%v, %v], want [45, 300]", got[0], got[255])
	}
	// No new cycles.
	if got := PausesSince(&ring, 300, 300); got != nil {
		t.Fatalf("empty window = %v", got)
	}
}
