package main

import (
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/platform"
	"github.com/moatlab/melody/internal/vm"
)

// objects is a Preloader over fixed objects.
type objects []vm.Object

func (o objects) PreloadObjects() []vm.Object { return o }

// lineAt is the address of the k-th line Preload walks over objs, in
// call order.
func lineAt(objs objects, k uint64) uint64 {
	for _, o := range objs {
		n := o.Size / mem.LineSize
		if k < n {
			return o.Base + k*mem.LineSize
		}
		k -= n
	}
	panic("line beyond the objects")
}

// TestPreloadLinesMatchesMachinePreload checks preloadLines against the
// real Machine.Preload: after preloading, the last line it counts must
// be served from the caches and the next line must reach the device.
func TestPreloadLinesMatchesMachinePreload(t *testing.T) {
	const mb = 1 << 20
	cases := []struct {
		name string
		p    platform.Platform
		objs objects
	}{
		// More than the LLC budget, across two objects: the cap binds
		// inside the second one.
		{"EMR2S over budget", platform.EMR2S(), objects{{Base: 1 << 32, Size: 64 * mb}, {Base: 2 << 32, Size: 256 * mb}}},
		{"EMR2S' over budget", platform.EMR2SPrime(), objects{{Base: 1 << 32, Size: 300 * mb}}},
		// Under the budget: every line is preloaded.
		{"EMR2S under budget", platform.EMR2S(), objects{{Base: 1 << 32, Size: 8 * mb}, {Base: 2 << 32, Size: 24 * mb}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dev := newTimedDevice(c.p.LocalDevice())
			m := core.New(core.Config{CPU: c.p.CPU, Device: dev, PrefetchersOff: true})
			for _, o := range c.objs {
				m.Preload(o.Base, o.Size)
			}
			n := uint64(preloadLines(c.p, c.objs))
			total := uint64(0)
			for _, o := range c.objs {
				total += o.Size / mem.LineSize
			}
			if n == 0 || n > total {
				t.Fatalf("preloadLines = %d of %d requested lines", n, total)
			}
			next := lineAt(c.objs, n-1) + mem.LineSize
			if n < total {
				next = lineAt(c.objs, n)
			}
			m.Load(lineAt(c.objs, n-1), false)
			if dev.n != 0 {
				t.Errorf("line %d (the last counted) reached the device: preloadLines counts more than Preload installs", n-1)
			}
			m.Load(next, false)
			if dev.n == 0 {
				t.Errorf("line %d (the first not counted) did not reach the device: preloadLines counts fewer than Preload installs", n)
			}
		})
	}
}
