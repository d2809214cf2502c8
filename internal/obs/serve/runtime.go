package serve

// Go runtime telemetry for the service plane, sampled lazily at scrape
// time: a /metrics GET refreshes the gauges right before the export,
// so an idle observatory costs nothing between scrapes and a scraped
// one is never more than one scrape interval stale. Everything lands
// in the self-registry (melody_observatory_runtime_* families) —
// runtime state describes the serving process, never the simulation,
// so it must stay out of every run manifest.
//
// The raw observation is a Reading from TakeReading; tests inject fake
// Readings through runtimeSampler.read.

import (
	"runtime"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/obs"
)

// Reading is one observation of the host runtime.
type Reading struct {
	// Goroutines is runtime.NumGoroutine().
	Goroutines int
	// HeapAlloc/HeapSys mirror runtime.MemStats.
	HeapAlloc uint64
	HeapSys   uint64
	// NumGC is the monotonic completed-GC-cycle count.
	NumGC uint32
	// PauseNs holds the stop-the-world pauses (in nanoseconds) of GC
	// cycles completed since the previous reading's NumGC, oldest
	// first — extracted from the MemStats.PauseNs ring, clamped to the
	// ring's 256-entry history (see PausesSince).
	PauseNs []float64
}

// TakeReading snapshots the runtime. prevNumGC is the NumGC of the
// previous reading (0 on the first call): pauses of cycles completed
// since then land in PauseNs.
func TakeReading(prevNumGC uint32) Reading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Reading{
		Goroutines: runtime.NumGoroutine(),
		HeapAlloc:  ms.HeapAlloc,
		HeapSys:    ms.HeapSys,
		NumGC:      ms.NumGC,
		PauseNs:    PausesSince(&ms.PauseNs, prevNumGC, ms.NumGC),
	}
}

// PausesSince extracts the pauses of GC cycles (prev, cur] from the
// 256-entry PauseNs ring (cycle c lands at (c+255)%256). A gap longer
// than 256 cycles loses the overwritten entries — the returned slice
// covers at most the ring's depth, newest-biased: the contract is
// "every pause within the ring's history exactly once", not
// exactly-once capture over arbitrary gaps.
func PausesSince(ring *[256]uint64, prev, cur uint32) []float64 {
	if cur <= prev {
		return nil
	}
	from := prev + 1
	if cur > 256 && from < cur-255 {
		from = cur - 255
	}
	out := make([]float64, 0, cur-from+1)
	for c := from; c <= cur; c++ {
		out = append(out, float64(ring[(c+255)%256]))
	}
	return out
}

// runtimeSampler owns the runtime/* instruments in the self-registry.
type runtimeSampler struct {
	start      time.Time
	goroutines *obs.Gauge
	heapAlloc  *obs.Gauge
	heapSys    *obs.Gauge
	gcRuns     *obs.Gauge
	uptime     *obs.Gauge
	gcPause    *obs.Histogram

	// read produces the runtime observation; tests inject fakes to pin
	// the mapping (including PauseNs-ring edge cases) without provoking
	// the real GC.
	read func(prevNumGC uint32) Reading

	mu        sync.Mutex
	lastNumGC uint32
}

func newRuntimeSampler(reg *obs.Registry, start time.Time) *runtimeSampler {
	return &runtimeSampler{
		start:      start,
		goroutines: reg.Gauge("runtime/goroutines"),
		heapAlloc:  reg.Gauge("runtime/heap_alloc_bytes"),
		heapSys:    reg.Gauge("runtime/heap_sys_bytes"),
		gcRuns:     reg.Gauge("runtime/gc_runs"),
		uptime:     reg.Gauge("runtime/uptime_seconds"),
		gcPause:    reg.Histogram("runtime/gc_pause_ns"),
		read:       TakeReading,
	}
}

// sample refreshes every runtime instrument. ReadMemStats stops the
// world for microseconds of *host* time; simulated results cannot
// observe it, so sampling at scrape time upholds the isolation
// contract.
func (rs *runtimeSampler) sample() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r := rs.read(rs.lastNumGC)
	rs.goroutines.Set(float64(r.Goroutines))
	rs.heapAlloc.Set(float64(r.HeapAlloc))
	rs.heapSys.Set(float64(r.HeapSys))
	rs.gcRuns.Set(float64(r.NumGC))
	rs.uptime.Set(time.Since(rs.start).Seconds())
	// PauseNs carries the pauses of GC cycles completed since the last
	// sample, clamped to the runtime's 256-entry ring (see
	// PausesSince) — the histogram's count tracking gc_runs
	// within 256 is the accuracy contract, not exactly-once capture.
	for _, p := range r.PauseNs {
		rs.gcPause.Record(p)
	}
	rs.lastNumGC = r.NumGC
}
