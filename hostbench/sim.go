package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/melody"
	"github.com/moatlab/melody/internal/melody/spec"
	"github.com/moatlab/melody/internal/workload"
)

// nproc is the worker count every workload runs with.
var nproc = runtime.NumCPU()

// setupRepeats is how many times a run sets its workload up in a
// fresh process; setup_s is the median.
const setupRepeats = 3

// simDef is a workload that runs in-process through melody.Execute,
// the one path behind both the CLI and POST /runs.
type simDef struct {
	// spec is the measured RunSpec; smoke is the smallest spec of the
	// same experiments, run once to finish lazy set-up before timing.
	spec, smoke func(seed uint64) spec.RunSpec
	// batches, when set, is the experiment's cell set for the traced
	// replay; device experiments have none and replay through mlc/mio.
	batches func(sp spec.RunSpec) []cellBatch
}

// sweepFig8a gives each cell the per-cell budget of the repository's
// Sweep48 benchmark (400k instructions after 100k warmup) over 4
// catalog workloads, so that a pass takes seconds rather than a minute;
// README.md compares the two CPU profiles.
var sweepFig8a = simDef{
	spec: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig8a"}, Workloads: 4, Instructions: 400_000, Warmup: 100_000, Seed: seed, Workers: nproc}
	},
	smoke: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig8a"}, Workloads: 1, Instructions: 20_000, Warmup: 5_000, Seed: seed, Workers: nproc}
	},
	batches: func(sp spec.RunSpec) []cellBatch { return fig8aBatches(sp.Workloads) },
}

var ycsbFig9b = simDef{
	spec: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig9b"}, Seed: seed, Workers: nproc}
	},
	smoke: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig9b"}, Instructions: 20_000, Warmup: 5_000, Seed: seed, Workers: nproc}
	},
	batches: func(spec.RunSpec) []cellBatch { return fig9bBatches() },
}

var deviceRW = simDef{
	spec: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig5", "fig4"}, DurationNs: 100_000, Seed: seed, Workers: nproc}
	},
	smoke: func(seed uint64) spec.RunSpec {
		return spec.RunSpec{Experiments: []string{"fig5", "fig4"}, DurationNs: 10_000, Seed: seed, Workers: nproc}
	},
}

func simBench(d simDef) benchWorkload {
	return benchWorkload{
		run: func(o options, t *tally, out io.Writer) (*report, error) {
			if o.trace {
				return traceSim(d, o, t, out)
			}
			return runSim(d, o, t, out)
		},
		probe: func(o options) error { return setUp(d, o.seed) },
	}
}

// setUp is everything a fresh process does before its first timed
// operation: workload registration, the catalog build, spec resolution,
// and one smoke run that finishes lazy set-up.
func setUp(d simDef, seed uint64) error {
	melody.RegisterWorkloads()
	_ = workload.Catalog()
	if _, _, err := melody.ResolveSpec(d.spec(seed)); err != nil {
		return err
	}
	out, err := melody.Execute(context.Background(), d.smoke(seed), melody.ExecHooks{})
	if err != nil {
		return fmt.Errorf("smoke run: %w", err)
	}
	if len(out.Reports) != len(d.smoke(seed).Experiments) {
		return fmt.Errorf("smoke run completed %d experiments", len(out.Reports))
	}
	return nil
}

// timeSetups starts this program setupRepeats times in --setup-probe
// mode and returns each process's wall time from start to exit.
func timeSetups(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "--setup-probe", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

//go:embed references.json
var referencesJSON []byte

// references holds the stripped-manifest address of every workload's
// runs at the default seed.
type references struct {
	Seed      uint64            `json:"seed"`
	Addresses map[string]string `json:"addresses"`
}

func loadReferences() (references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return r, fmt.Errorf("references.json: %w", err)
	}
	return r, nil
}

// referenceFor returns the committed address for key when seed is the
// seed the references were recorded at.
func referenceFor(key string, seed uint64) (string, bool, error) {
	refs, err := loadReferences()
	if err != nil {
		return "", false, err
	}
	if seed != refs.Seed {
		return "", false, nil
	}
	return refs.Addresses[key], true, nil
}

// pinnedAddress is the manifest's stripped address with the fields that
// name the host rather than the simulation (Go version, CPU count,
// worker count and the spec hash that includes it) cleared, so the
// committed references hold on any host with the same architecture.
func pinnedAddress(m melody.Manifest) (string, error) {
	m.GoVersion, m.NumCPU, m.Workers, m.SpecHash = "", 0, 0, ""
	return m.Address()
}

// budgetedInstructions counts the simulated instructions a run's
// executed cells were given: warmup plus measurement window, using each
// workload's own budget where it sets one. The machine stops within one
// operation of its budget; the traced run reports the exact count.
func budgetedInstructions(sp spec.RunSpec, m *melody.Manifest) float64 {
	warm, instr := budgets(sp)
	total := 0.0
	for _, c := range m.Cells {
		n := instr
		if s, ok := workload.ByName(c.Workload); ok && s.Instructions > 0 {
			n = s.Instructions
		}
		total += float64(warm + n)
	}
	return total
}

// execute runs sp through melody.Execute with telemetry attached, as
// the run service does, and checks the outcome.
func execute(ctx context.Context, sp spec.RunSpec) (melody.ExecOutcome, string, error) {
	out, err := melody.Execute(ctx, sp, melody.ExecHooks{Telemetry: melody.NewTelemetry()})
	if err != nil {
		return out, "", err
	}
	if out.Manifest == nil || out.Interrupted || len(out.Reports) != len(sp.Experiments) {
		return out, "", fmt.Errorf("run incomplete: %d of %d experiments", len(out.Reports), len(sp.Experiments))
	}
	addr, err := pinnedAddress(*out.Manifest)
	return out, addr, err
}

// runSim measures an in-process workload untraced: it times setup in
// fresh processes, finishes lazy set-up here, then runs the spec in
// passes until the time is up and reports medians per pass.
func runSim(d simDef, o options, t *tally, w io.Writer) (*report, error) {
	ctx := context.Background()
	sp := d.spec(o.seed)
	setups, err := timeSetups(o)
	if err != nil {
		return nil, err
	}
	if err := setUp(d, o.seed); err != nil {
		return nil, err
	}
	want, haveRef, err := referenceFor(o.workload, o.seed)
	if err != nil {
		return nil, err
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	var walls, cpus, allocs, rates []float64
	var first melody.ExecOutcome
	budget := time.Duration(o.seconds) * time.Second
	rssSamples := sampleRSS(0, 5*time.Millisecond)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < budget; pass++ {
		// Each pass starts like a fresh `melody run`: from a collected
		// heap returned to the OS, so no pass pays for or inherits the
		// previous one's garbage.
		debug.FreeOSMemory()
		rt0, c0, t0 := readRuntime(), selfCPUSeconds(), time.Now()
		out, addr, err := execute(ctx, sp)
		wall := time.Since(t0).Seconds()
		cpu, rt1 := selfCPUSeconds()-c0, readRuntime()
		if err != nil {
			t.check(false, "pass %d: %v", pass, err)
			continue
		}
		if len(walls) == 0 {
			first = out
			fmt.Fprintf(w, "%s seed %d stripped-manifest address %s\n", o.workload, o.seed, addr)
			if !haveRef {
				want = addr
			}
		}
		t.checkAddress(fmt.Sprintf("pass %d", pass), addr, want)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		allocs = append(allocs, (rt1.allocBytes-rt0.allocBytes)/1e9)
		if d.batches != nil {
			rates = append(rates, budgetedInstructions(sp, out.Manifest)/wall)
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	rss := rssSamples.finish()
	peak, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}

	r := newReport(o.workload, o.seed)
	n := len(walls)
	r.set("setup_s", median(setups), "median of %d cold starts to a finished smoke run", len(setups))
	r.set("wall_s", median(walls), "median of %d passes", n)
	r.set("cpu_s", median(cpus), "median of %d passes, user+sys", n)
	r.set("alloc_gb", median(allocs), "median of %d passes, heap bytes allocated", n)
	r.set("rss_p50_mb", median(rss), "median of %d resident-set samples of the benchmark process, 5 ms apart", len(rss))
	r.extra("peak_rss_mb", "MB", peak, "VmHWM over the run; not bounded, it moves with collector timing")
	if d.batches != nil {
		r.set("work_per_s", median(rates), "simulated instructions per host second, median of %d passes", n)
		r.extra("sim_minstr_per_s", "M/s", median(rates)/1e6, "same, in millions")
	} else {
		// Device requests are counted by one replay after the timed
		// passes, which must reproduce the run's report line for line.
		rep := replayDevices(nil, o.seed, sp.DurationNs)
		checkDeviceLines(t, first, rep)
		for _, wall := range walls {
			rates = append(rates, float64(rep.accesses)/wall)
		}
		r.set("work_per_s", median(rates), "simulated device requests per host second (%d per pass), median of %d passes", rep.accesses, n)
		r.extra("device_maccess_per_s", "M/s", median(rates)/1e6, "same, in millions")
	}
	r.extra("error_rate", "ratio", t.errorRate(), "failed / attempted")
	return r, nil
}

// checkDeviceLines counts one check per experiment: the replay must
// render exactly the report lines melody.Execute produced.
func checkDeviceLines(t *tally, out melody.ExecOutcome, rep deviceReplay) {
	for _, rpt := range out.Reports {
		got, want := rep.lines[rpt.ID], rpt.Lines
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		t.check(same, "%s: replayed report differs from melody.Execute's", rpt.ID)
	}
}

// traceSim is the traced run of an in-process workload: one untraced
// Execute pass (memo statistics, GC share, the reference address), then
// the same work replayed with spans. For cell experiments an untraced
// public Runner runs the same cells first; every replayed cell's counter
// delta must equal its result.
func traceSim(d simDef, o options, t *tally, w io.Writer) (*report, error) {
	ctx := context.Background()
	sp := d.spec(o.seed)
	if err := setUp(d, o.seed); err != nil {
		return nil, err
	}
	r := newReport(o.workload, o.seed)

	rt0, t0 := readRuntime(), time.Now()
	out, addr, err := execute(ctx, sp)
	execWall := time.Since(t0)
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "%s seed %d stripped-manifest address %s\n", o.workload, o.seed, addr)
	if want, ok, err := referenceFor(o.workload, o.seed); err != nil {
		return nil, err
	} else if ok {
		t.checkAddress("untraced Execute", addr, want)
	}
	gcFrac := (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	r.set("runtime.gc_cpu_frac", gcFrac, "GC share of CPU in the untraced Execute pass")

	tr := newTracer()
	var untraced, traced time.Duration
	if d.batches == nil {
		untraced = execWall
		start := time.Now()
		rep := replayDevices(tr, o.seed, sp.DurationNs)
		traced = time.Since(start)
		checkDeviceLines(t, out, rep)
		setDeviceMetrics(r, tr.all(), rep)
	} else {
		batches := d.batches(sp)
		ref, wall, err := runCells(ctx, batches, sp)
		if err != nil {
			return nil, err
		}
		untraced = wall
		newMB := coreNewMB(batches)
		rep := replayBatches(tr, batches, sp)
		traced = rep.wall
		checkCells(t, out.Manifest, ref, rep)
		setCellMetrics(r, tr.all(), rep, newMB, out)
	}
	r.set("trace.overhead_s", (traced - untraced).Seconds(), "traced %.3f s minus untraced %.3f s", traced.Seconds(), untraced.Seconds())

	spanPath := filepath.Join(o.work, "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	printLadder(w, fmt.Sprintf("%s, seed %d, %d spans in %s", o.workload, o.seed, len(tr.all()), spanPath), ladder(tr.all()))
	return r, nil
}

// checkCells counts one check for the replayed cell set matching the
// cells the untraced run's manifest lists, and one per cell for its
// counter delta equalling the untraced Runner's.
func checkCells(t *tally, m *melody.Manifest, ref []melody.Result, rep replayResult) {
	var want, got []cellKey
	for _, c := range m.Cells {
		want = append(want, cellKey{c.Workload, c.Config, c.Platform, c.Seed})
	}
	for _, c := range rep.cells {
		got = append(got, c.key)
	}
	less := func(s []cellKey) func(i, j int) bool {
		return func(i, j int) bool {
			a, b := s[i], s[j]
			if a.Workload != b.Workload {
				return a.Workload < b.Workload
			}
			if a.Config != b.Config {
				return a.Config < b.Config
			}
			return a.Platform < b.Platform
		}
	}
	sort.Slice(want, less(want))
	sort.Slice(got, less(got))
	same := len(want) == len(got)
	for i := 0; same && i < len(want); i++ {
		same = want[i] == got[i]
	}
	t.check(same, "replayed %d cells, manifest lists %d (or seeds differ)", len(got), len(want))
	for i, c := range rep.cells {
		ok := i < len(ref) && ref[i].Delta == c.delta
		t.check(ok, "cell %s@%s: traced counter delta differs from untraced", c.key.Workload, c.key.Config)
	}
}

// setCellMetrics derives the per-layer metrics of a cell replay.
func setCellMetrics(r *report, spans []span, rep replayResult, newMB map[string]float64, out melody.ExecOutcome) {
	lad := ladder(spans)
	var cellMs []float64
	var counts simCounts
	newSum := 0.0
	for _, c := range rep.cells {
		cellMs = append(cellMs, float64(c.wallNs)/1e6)
		counts.delta = counts.delta.Add(c.delta)
		counts.addDevice(c.stats)
		counts.instructions += c.instr
		newSum += newMB[c.key.Platform]
	}
	n := len(rep.cells)
	memo := out.Manifest.Registry.Counters
	hits, lookups := memo["runner/cache_hit"], memo["runner/cache_hit"]+memo["runner/cache_miss"]+memo["runner/cache_wait"]
	r.set("melody.memo_hit_ratio", ratio(float64(hits), float64(lookups)), "memo hits / cell lookups in the untraced Execute pass: %d / %d", hits, lookups)
	r.set("melody.cell_ms_p50", median(cellMs), "median of %d replayed cells", n)
	tv, tp := tail(cellMs)
	r.set("melody.cell_ms_tail", tv, "p%g of %d replayed cells", tp, n)
	r.set("melody.worker_idle_frac", 1-float64(rep.busyNs)/(float64(rep.workers)*float64(rep.wall)), "worker time with no cell running, %d workers", rep.workers)
	for _, name := range []string{"workload.build", "apps.build", "core.new", "core.preload"} {
		ms := spanMs(spans, name)
		r.set(name+"_ms", mean(ms), "mean of %d spans", len(ms))
	}
	r.set("core.new_mb", newSum/float64(n), "heap MB one core.New allocates for the cell's platform, measured alone")
	r.set("cache.preload_lines", layerCount(lad, "core.preload"), "LLC lines preloaded over %d cells", n)
	coreSelf := layerSelfNs(lad, "cell") + layerSelfNs(lad, "core.run")
	r.set("core.self_ns_per_instr", coreSelf/counts.instructions, "cell time minus device, build, new and preload, per retired instruction")
	setDeviceRows(r, lad)
	setSimCounts(r, counts)
}

// setDeviceMetrics derives the per-layer metrics of a device replay.
func setDeviceMetrics(r *report, spans []span, rep deviceReplay) {
	points, runs := spanMs(spans, "mlc.point"), spanMs(spans, "mio.run")
	r.set("mlc.point_ms", mean(points), "mean of %d loaded-latency delay points", len(points))
	r.set("mio.run_ms", mean(runs), "mean of %d mio runs", len(runs))
	setDeviceRows(r, ladder(spans))
	setSimCounts(r, rep.counts)
}

// setDeviceRows reports host ns per access and access counts for each
// device module.
func setDeviceRows(r *report, lad []ladderRow) {
	for _, mod := range []string{"cxl", "imc", "topology"} {
		ns, n := layerSelfNs(lad, mod), layerCount(lad, mod)
		r.set(mod+".access_ns", ratio(ns, n), "host ns per Access of %s devices (outermost device's module)", mod)
		r.set(mod+".accesses", n, "Access calls on %s devices", mod)
	}
}

// setSimCounts reports the simulated statistics a host-only change must
// leave exactly equal.
func setSimCounts(r *report, c simCounts) {
	r.set("cache.demand_l3_miss", c.delta[counters.DemandL3Miss], "simulated, measurement windows")
	r.set("cache.delayed_hits", c.delta[counters.DelayedHits], "simulated, measurement windows")
	r.set("prefetch.l1_issued", c.delta[counters.L1PFIssued], "simulated, measurement windows")
	r.set("prefetch.l2_issued", c.delta[counters.L2PFIssued], "simulated, measurement windows")
	r.set("prefetch.l2_dropped", c.delta[counters.L2PFDropped], "simulated, measurement windows")
	r.set("dram.row_hit_ratio", ratio(float64(c.rowHits), float64(c.rowHits+c.rowMiss)), "simulated, whole runs: %d / %d", c.rowHits, c.rowHits+c.rowMiss)
	r.set("link.retries", float64(c.retries), "simulated CRC replays, whole runs")
	r.set("cxl.throttled", float64(c.throttle), "simulated thermally delayed requests, whole runs")
	r.set("sim.instructions", c.instructions, "simulated instructions retired, warmup included")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
