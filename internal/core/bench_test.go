package core

import (
	"testing"

	"github.com/moatlab/melody/internal/platform"
)

// machineSink keeps benchmarked machines from being optimized away.
var machineSink *Machine

// BenchmarkCoreNew builds a machine per iteration, cache metadata
// included, for each platform.
func BenchmarkCoreNew(b *testing.B) {
	for _, p := range platform.Platforms() {
		b.Run(p.CPU.Name, func(b *testing.B) {
			cfg := Config{CPU: p.CPU, Device: p.LocalDevice()}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machineSink = New(cfg)
			}
		})
	}
}

// BenchmarkMachineReset re-arms one machine per iteration, as a runner
// worker does between cells, for each platform.
func BenchmarkMachineReset(b *testing.B) {
	for _, p := range platform.Platforms() {
		b.Run(p.CPU.Name, func(b *testing.B) {
			cfg := Config{CPU: p.CPU, Device: p.LocalDevice()}
			m := New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset(cfg)
			}
		})
	}
}
