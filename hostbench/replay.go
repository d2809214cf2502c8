package main

import (
	"context"
	"fmt"
	"path"
	"reflect"
	"runtime"
	"sync"
	"time"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/mio"
	"github.com/moatlab/melody/internal/mlc"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// timedDevice wraps the device a MemConfig builds and charges each
// Access to the device's module ("cxl", "imc", "topology"). It is used
// by one goroutine at a time, like the device it wraps. onReset, when
// set, runs before each Reset: the mlc loaded-latency sweep resets its
// device at the start of every delay point, which is where the replay
// cuts point spans.
type timedDevice struct {
	inner   mem.Device
	module  string
	ns      int64
	n       uint64
	onReset func()
}

func newTimedDevice(d mem.Device) *timedDevice {
	t := reflect.TypeOf(d)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return &timedDevice{inner: d, module: path.Base(t.PkgPath())}
}

func (d *timedDevice) Access(now float64, addr uint64, kind mem.Kind) float64 {
	t0 := time.Now()
	done := d.inner.Access(now, addr, kind)
	d.ns += int64(time.Since(t0))
	d.n++
	return done
}

func (d *timedDevice) Name() string           { return d.inner.Name() }
func (d *timedDevice) Stats() mem.DeviceStats { return d.inner.Stats() }
func (d *timedDevice) Reset() {
	if d.onReset != nil {
		d.onReset()
	}
	d.inner.Reset()
}

// take returns the device time and accesses since the last take as
// span attributes, and clears them.
func (d *timedDevice) take() map[string]float64 {
	a := map[string]float64{"dev." + d.module + ".ns": float64(d.ns), "dev." + d.module + ".n": float64(d.n)}
	d.ns, d.n = 0, 0
	return a
}

// simCounts sums the simulated statistics a host-only change must leave
// exactly equal.
type simCounts struct {
	delta             counters.Snapshot
	rowHits, rowMiss  uint64
	retries, throttle uint64
	instructions      float64
}

func (c *simCounts) addDevice(s mem.DeviceStats) {
	c.rowHits += s.RowHits
	c.rowMiss += s.RowMisses
	c.retries += s.Retries
	c.throttle += s.Throttled
}

// cellBatch is one Declare call of an experiment: cells run together on
// one platform's runner.
type cellBatch struct {
	platform platform.Platform
	cells    []melody.RunRequest
}

// selectWorkloads is the catalog subset an experiment runs at a given
// -workloads cap: an even stride over the catalog.
func selectWorkloads(max int) []workload.Spec {
	melody.RegisterWorkloads()
	all := workload.Catalog()
	if max <= 0 || max >= len(all) {
		return all
	}
	out := make([]workload.Spec, 0, max)
	stride := float64(len(all)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, all[int(float64(i)*stride)])
	}
	return out
}

// fig8aBatches is the cell set fig8a declares: five configs on EMR2S
// (CXL-C on at most 60 workloads) and two on EMR2S'.
func fig8aBatches(maxWorkloads int) []cellBatch {
	specs := selectWorkloads(maxWorkloads)
	emr, emrP := platform.EMR2S(), platform.EMR2SPrime()
	small := specs
	if len(small) > 60 {
		small = small[:60]
	}
	cells := melody.Cells(specs, melody.Local(emr), melody.NUMA(emr), melody.CXL(emr, cxl.ProfileA()), melody.CXL(emr, cxl.ProfileB()))
	cells = append(cells, melody.Cells(small, melody.CXL(emr, cxl.ProfileC()))...)
	return []cellBatch{
		{emr, cells},
		{emrP, melody.Cells(specs, melody.Local(emrP), melody.CXL(emrP, cxl.ProfileD()))},
	}
}

// fig9bBatches is the cell set fig9b declares: YCSB A-F on both stores
// under Local, NUMA, CXL-A and CXL-B.
func fig9bBatches() []cellBatch {
	melody.RegisterWorkloads()
	emr := platform.EMR2S()
	var specs []workload.Spec
	for _, store := range []string{"redis-ycsb-", "voltdb-ycsb-"} {
		for _, wl := range []string{"A", "B", "C", "D", "E", "F"} {
			if s, ok := workload.ByName(store + wl); ok {
				specs = append(specs, s)
			}
		}
	}
	return []cellBatch{{emr, melody.Cells(specs, melody.Local(emr), melody.NUMA(emr), melody.CXL(emr, cxl.ProfileA()), melody.CXL(emr, cxl.ProfileB()))}}
}

// budgets returns the warmup and default measurement instructions the
// engine gives a runner for sp.
func budgets(sp spec.RunSpec) (warmup, instr uint64) {
	r := melody.NewRunner(platform.EMR2S())
	warmup, instr = r.Warmup, r.Instructions
	if sp.Warmup > 0 {
		warmup = sp.Warmup
	}
	if sp.Instructions > 0 {
		instr = sp.Instructions
	}
	return warmup, instr
}

// runnerFor configures a public melody.Runner the way the engine does
// for sp.
func runnerFor(p platform.Platform, sp spec.RunSpec) *melody.Runner {
	r := melody.NewRunner(p)
	r.Seed = sp.Seed
	r.Workers = sp.Workers
	r.Warmup, r.Instructions = budgets(sp)
	return r
}

// runCells runs every batch on a fresh untraced Runner and returns the
// results in batch order, with the host time it took.
func runCells(ctx context.Context, batches []cellBatch, sp spec.RunSpec) ([]melody.Result, time.Duration, error) {
	var out []melody.Result
	start := time.Now()
	for _, b := range batches {
		res, err := runnerFor(b.platform, sp).RunAll(ctx, b.cells)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, res...)
	}
	return out, time.Since(start), nil
}

// splitmix64 and fnv1a reproduce the runner's per-cell seed derivation,
// so a replayed cell sees exactly the seeds the runner would give it.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func deriveSeed(workloadName, configName string, base uint64) uint64 {
	return splitmix64(fnv1a(workloadName+"|"+configName) ^ splitmix64(base))
}

// replayedCell is one cell of the traced replay.
type replayedCell struct {
	key    cellKey
	wallNs int64
	delta  counters.Snapshot
	stats  mem.DeviceStats
	instr  float64
}

// cellKey identifies a cell the way the manifest lists it.
type cellKey struct {
	Workload, Config, Platform string
	Seed                       uint64
}

// replayCell runs one cell through the runner's public call sequence —
// Spec.Build, core.New, SetRegions, Preload, then Run for warmup and
// again for measurement — recording a span around each call.
func replayCell(tr *tracer, id int, p platform.Platform, req melody.RunRequest, sp spec.RunSpec) replayedCell {
	warm, instr := budgets(sp)
	if req.Spec.Instructions > 0 {
		instr = req.Spec.Instructions
	}
	cellSeed := deriveSeed(req.Spec.Name, req.Config.Name, sp.Seed)
	stream := deriveSeed(req.Spec.Name, "", sp.Seed)
	out := replayedCell{key: cellKey{req.Spec.Name, req.Config.Name, p.CPU.Name, cellSeed}}
	cellID := tr.id()
	start := time.Now()

	dev := newTimedDevice(req.Config.Build(cellSeed))
	var machineDev mem.Device = dev
	if threads := req.Spec.Siblings.BuildThreads(dev, cellSeed+101); threads != nil {
		machineDev = core.NewContendedDevice(dev, threads)
	}
	// App-backed workloads (Spec.New) build real data structures;
	// synthetic ones only lay out an arena.
	buildName := "workload.build"
	if req.Spec.New != nil {
		buildName = "apps.build"
	}
	var w workload.Workload
	tr.timed(buildName, id, cellID, nil, func() { w = req.Spec.Build(stream) })
	var m *core.Machine
	tr.timed("core.new", id, cellID, nil, func() {
		m = core.New(core.Config{CPU: p.CPU, Device: machineDev, MaxInstructions: warm})
		if syn, ok := w.(*workload.Synthetic); ok {
			m.SetRegions(syn.Arena().Objects())
		}
	})
	if pl, ok := w.(workload.Preloader); ok {
		lines := preloadLines(p, pl)
		tr.timed("core.preload", id, cellID, map[string]float64{"units": lines}, func() {
			for _, o := range pl.PreloadObjects() {
				m.Preload(o.Base, o.Size)
			}
		})
	}
	runPhase := func(limit uint64) {
		runID := tr.id()
		t0 := time.Now()
		i0 := m.Instructions()
		m.SetMaxInstructions(limit)
		w.Run(m)
		attrs := dev.take()
		attrs["units"] = float64(m.Instructions() - i0)
		tr.record(runID, "core.run", id, cellID, t0, time.Now(), attrs)
	}
	runPhase(warm)
	before := m.Counters()
	runPhase(warm + instr)
	after := m.Counters()
	end := time.Now()
	tr.record(cellID, "cell", id, -1, start, end, dev.take())

	out.wallNs = int64(end.Sub(start))
	out.delta = after.Delta(before)
	out.stats = dev.Stats()
	out.instr = after[counters.Instructions]
	return out
}

// preloadLines is the number of lines Machine.Preload installs for pl:
// every requested line, up to the 85% LLC budget.
func preloadLines(p platform.Platform, pl workload.Preloader) float64 {
	budget := uint64(float64(p.CPU.L3Bytes/mem.LineSize) * 0.85)
	var lines uint64
	for _, o := range pl.PreloadObjects() {
		lines += o.Size / mem.LineSize
	}
	if lines > budget {
		lines = budget
	}
	return float64(lines)
}

// replayResult is a traced replay of an experiment's cells.
type replayResult struct {
	cells   []replayedCell
	wall    time.Duration
	busyNs  int64
	workers int
}

// replayBatches runs every batch's cells through replayCell on
// sp.Workers goroutines, the way the runner's worker pool would.
func replayBatches(tr *tracer, batches []cellBatch, sp spec.RunSpec) replayResult {
	workers := sp.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	res := replayResult{workers: workers}
	start := time.Now()
	for _, b := range batches {
		out := make([]replayedCell, len(b.cells))
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers && w < len(b.cells); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					out[i] = replayCell(tr, len(res.cells)+i, b.platform, b.cells[i], sp)
				}
			}()
		}
		for i := range b.cells {
			next <- i
		}
		close(next)
		wg.Wait()
		res.cells = append(res.cells, out...)
	}
	res.wall = time.Since(start)
	for _, c := range res.cells {
		res.busyNs += c.wallNs
	}
	return res
}

// coreNewMB measures the heap bytes one core.New allocates for each
// platform, alone, so no other goroutine's allocations are counted.
func coreNewMB(batches []cellBatch) map[string]float64 {
	out := map[string]float64{}
	for _, b := range batches {
		name := b.platform.CPU.Name
		if _, ok := out[name]; ok {
			continue
		}
		before := readRuntime()
		m := core.New(core.Config{CPU: b.platform.CPU, Device: b.platform.LocalDevice()})
		after := readRuntime()
		runtime.KeepAlive(m)
		out[name] = (after.allocBytes - before.allocBytes) / (1 << 20)
	}
	return out
}

// deviceReplay is a replay of device-rw's experiments (fig5 then fig4)
// through the public mlc and mio entry points.
type deviceReplay struct {
	lines    map[string][]string // report lines per experiment id
	accesses uint64
	counts   simCounts
	points   int
	runs     int
}

// deviceSet is the comparison set the device experiments measure: SPR
// local DRAM, NUMA, CXL-A/B/C, and CXL-D on EMR2S'.
func deviceSet(seed uint64) []*timedDevice {
	spr, emrP := platform.SPR2S(), platform.EMR2SPrime()
	return []*timedDevice{
		newTimedDevice(spr.LocalDevice()),
		newTimedDevice(spr.NUMADevice(seed)),
		newTimedDevice(spr.CXLDevice(cxl.ProfileA(), seed)),
		newTimedDevice(spr.CXLDevice(cxl.ProfileB(), seed)),
		newTimedDevice(spr.CXLDevice(cxl.ProfileC(), seed)),
		newTimedDevice(emrP.CXLDevice(cxl.ProfileD(), seed)),
	}
}

var deviceNames = []string{"Local", "NUMA", "CXL-A", "CXL-B", "CXL-C", "CXL-D"}

// replayDevices re-runs fig5 (loaded latency across R:W ratios) and fig4
// (latency under R/W noise) call for call, rendering the same report
// lines, with one span per mlc delay point and per mio run.
func replayDevices(tr *tracer, seed uint64, durationNs float64) deviceReplay {
	if durationNs <= 0 {
		durationNs = 200_000
	}
	out := deviceReplay{lines: map[string][]string{}}
	printf := func(id, format string, args ...any) {
		out.lines[id] = append(out.lines[id], fmt.Sprintf(format, args...))
	}

	cfg := mlc.DefaultConfig()
	cfg.DurationNs = durationNs
	cfg.Seed = seed
	delays := []float64{2400, 700, 240, 70, 0}
	for i, d := range deviceSet(seed) {
		printf("fig5", "%s:", deviceNames[i])
		bestBW, bestRatio := 0.0, ""
		for _, ratio := range mlc.RWRatios() {
			// LoadedLatency resets the device at the start of every delay
			// point; each reset closes the previous point's span.
			var pointID int
			var pointStart time.Time
			open := false
			closePoint := func() {
				if !open {
					return
				}
				out.counts.addDevice(d.Stats())
				attrs := d.take()
				out.accesses += uint64(attrs["dev."+d.module+".n"])
				tr.record(pointID, "mlc.point", out.points, -1, pointStart, time.Now(), attrs)
				out.points++
				open = false
			}
			d.onReset = func() {
				closePoint()
				pointID, pointStart, open = tr.id(), time.Now(), true
			}
			pts := mlc.LoadedLatency(d, ratio.ReadFrac, delays, cfg)
			closePoint()
			d.onReset = nil
			peak := 0.0
			for _, p := range pts {
				if p.BandwidthGBs > peak {
					peak = p.BandwidthGBs
				}
			}
			if peak > bestBW {
				bestBW, bestRatio = peak, ratio.Name
			}
			last := pts[len(pts)-1]
			printf("fig5", "  R:W %-4s peak %6.1f GB/s (at full load: %6.1f GB/s, %6.0f ns)",
				ratio.Name, peak, last.BandwidthGBs, last.AvgLatencyNs)
		}
		printf("fig5", "  -> peak bandwidth at R:W %s (%.1f GB/s)", bestRatio, bestBW)
	}

	for i, d := range deviceSet(seed) {
		printf("fig4", "%s:", deviceNames[i])
		for _, noise := range []int{0, 1, 3, 5, 7} {
			mc := mio.DefaultConfig()
			mc.DurationNs = durationNs * 2
			mc.Noise = mio.NoiseReadWrite
			mc.NoiseThreads = noise
			mc.NoiseDelayNs = 200
			mc.Seed = seed
			var res mio.Result
			id := tr.id()
			t0 := time.Now()
			res = mio.Run(d, mc)
			t1 := time.Now()
			out.counts.addDevice(d.Stats())
			attrs := d.take()
			out.accesses += uint64(attrs["dev."+d.module+".n"])
			tr.record(id, "mio.run", out.points+out.runs, -1, t0, t1, attrs)
			out.runs++
			s := res.Summary
			printf("fig4", "  %d rw thr: p50 %6.0f  p90 %6.0f  p99 %7.0f  p99.9 %7.0f",
				noise, s.P50, s.P90, s.P99, s.P999)
		}
	}
	return out
}
