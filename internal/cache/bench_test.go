package cache

import (
	"testing"

	"github.com/moatlab/melody/internal/mem"
)

// The preload benchmarks install 85% of EMR2S's 160 MB, 16-way LLC into
// an empty cache, as Machine.Preload does for an LLC-filling hot set.
const (
	benchLLCBytes = 160 << 20
	benchLLCWays  = 16
)

func benchPreload(b *testing.B, preload func(c *Cache, n uint64)) {
	c := New(benchLLCBytes, benchLLCWays)
	n := uint64(float64(c.Sets()*c.Ways()) * 0.85)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c.Reset()
		b.StartTimer()
		preload(c, n)
	}
}

// BenchmarkCacheFill is the set-by-set bulk fill.
func BenchmarkCacheFill(b *testing.B) {
	benchPreload(b, func(c *Cache, n uint64) { c.Fill(0, n) })
}

// BenchmarkCachePreloadInserts is the per-line Insert loop Fill replaces.
func BenchmarkCachePreloadInserts(b *testing.B) {
	benchPreload(b, func(c *Cache, n uint64) {
		for i := uint64(0); i < n; i++ {
			c.Insert(i*mem.LineSize, 0, false)
		}
	})
}
