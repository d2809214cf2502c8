package core_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/counters"
	"github.com/moatlab/melody/internal/cxl"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/workload"
)

// access is one request a machine sent its device.
type access struct {
	now  float64
	addr uint64
	kind mem.Kind
	done float64
}

// recordingDevice logs every access its inner device serves.
type recordingDevice struct {
	mem.Device
	log []access
}

func (d *recordingDevice) Access(now float64, addr uint64, kind mem.Kind) float64 {
	done := d.Device.Access(now, addr, kind)
	d.log = append(d.log, access{now, addr, kind, done})
	return done
}

// hookLog records the cycle-driven sampler stream.
type hookLog struct{ samples []core.Sample }

func (h *hookLog) Sample(timeNs float64, c counters.Snapshot) {
	h.samples = append(h.samples, core.Sample{TimeNs: timeNs, Counters: c})
}

// cell is everything one run of a workload on a machine produces.
type cell struct {
	counters counters.Snapshot
	samples  []core.Sample
	regions  []core.RegionStat
	accesses []access
	hook     []core.Sample
}

// runCell runs a synthetic the way the runner does — regions, preload,
// warmup, then the measurement window — on m, already armed with cfg.
func runCell(m *core.Machine, w *workload.Synthetic, dev *recordingDevice, hook *hookLog, warmup, instr uint64) cell {
	m.SetRegions(w.Arena().Objects())
	for _, o := range w.PreloadObjects() {
		m.Preload(o.Base, o.Size)
	}
	w.Run(m)
	m.SetMaxInstructions(warmup + instr)
	w.Run(m)
	return cell{m.Counters(), m.Samples(), m.RegionStats(), dev.log, hook.samples}
}

// config builds a fresh device, hook and config for one cell.
func config(p platform.Platform, cxlDev, pfOff bool, warmup uint64) (core.Config, *recordingDevice, *hookLog) {
	dev := &recordingDevice{Device: p.LocalDevice()}
	if cxlDev {
		dev.Device = p.CXLDevice(cxl.ProfileB(), 3)
	}
	hook := &hookLog{}
	return core.Config{CPU: p.CPU, Device: dev, PrefetchersOff: pfOff, MaxInstructions: warmup,
		SampleIntervalNs: 20_000, Sampler: hook, SampleEveryCycles: 30_000}, dev, hook
}

func synthetic(name string, seed uint64) *workload.Synthetic {
	return workload.NewSynthetic(name, workload.Profile{WorkingSetMB: 48, MemRatio: 0.3, StoreFrac: 0.3,
		DepFrac: 0.2, SeqFrac: 0.3, HotFrac: 0.5, HotSetMB: 6, StreamCapMB: 1}, seed)
}

// TestResetEqualsNew checks that a machine Reset after one cell runs the
// next exactly like a new machine: same counters, samples, region
// attribution and device traffic, while the first cell's samples and
// region stats stay untouched.
func TestResetEqualsNew(t *testing.T) {
	p := platform.SKX2S()
	cfg, dev, hook := config(p, false, false, 20_000)
	m := core.New(cfg)
	first := runCell(m, synthetic("first", 1), dev, hook, 20_000, 60_000)
	if len(first.samples) == 0 || len(first.regions) == 0 || len(first.hook) == 0 {
		t.Fatal("first cell produced no samples or regions")
	}
	firstSamples, firstRegions := slices.Clone(first.samples), slices.Clone(first.regions)

	cfg, dev, hook = config(p, true, true, 30_000)
	m.Reset(cfg)
	reused := runCell(m, synthetic("second", 2), dev, hook, 30_000, 90_000)

	cfg, dev, hook = config(p, true, true, 30_000)
	fresh := runCell(core.New(cfg), synthetic("second", 2), dev, hook, 30_000, 90_000)

	if !reflect.DeepEqual(reused, fresh) {
		t.Fatalf("reset machine diverged from a new one:\nreset: %v\nnew:   %v", reused.counters, fresh.counters)
	}
	if !reflect.DeepEqual(first.samples, firstSamples) || !reflect.DeepEqual(first.regions, firstRegions) {
		t.Fatal("Reset wrote into the first cell's samples or region stats")
	}
}

// TestResetAcrossPlatforms checks Reset onto another cache geometry
// (SKX2S to EMR2S and back) against a new machine.
func TestResetAcrossPlatforms(t *testing.T) {
	m := core.New(core.Config{CPU: platform.SKX2S().CPU, Device: platform.SKX2S().LocalDevice()})
	for _, p := range []platform.Platform{platform.SPR2S(), platform.SKX2S()} {
		cfg, dev, hook := config(p, false, false, 10_000)
		m.Reset(cfg)
		reused := runCell(m, synthetic("x", 5), dev, hook, 10_000, 30_000)
		cfg, dev, hook = config(p, false, false, 10_000)
		fresh := runCell(core.New(cfg), synthetic("x", 5), dev, hook, 10_000, 30_000)
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("%s: reset machine diverged from a new one", p.CPU.Name)
		}
	}
}
