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

// The access rungs time one Probe, Peek or Insert on a full cache of
// each EMR2S level's geometry (ways as core.Machine builds them), over
// pseudo-random lines drawn from twice its capacity, so about half hit.
var benchLevels = []struct {
	name  string
	bytes uint64
	ways  int
}{
	{"L1", 48 << 10, 8},
	{"L2", 2 << 20, 16},
	{"LLC", benchLLCBytes, benchLLCWays},
}

// entrySink keeps benchmarked lookups from being optimized away.
var entrySink int

func benchAccess(b *testing.B, op func(c *Cache, addr uint64) int) {
	for _, l := range benchLevels {
		b.Run(l.name, func(b *testing.B) {
			c := New(l.bytes, l.ways)
			n := uint64(c.Sets() * c.Ways())
			c.Fill(0, n)
			addrs := make([]uint64, 1<<16)
			x := uint64(0x9e3779b97f4a7c15)
			for i := range addrs {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				addrs[i] = x % (2 * n) * mem.LineSize
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entrySink = op(c, addrs[i&(len(addrs)-1)])
			}
		})
	}
}

func BenchmarkCacheProbe(b *testing.B) {
	benchAccess(b, func(c *Cache, addr uint64) int { e, _ := c.Probe(addr); return e })
}

func BenchmarkCachePeek(b *testing.B) {
	benchAccess(b, func(c *Cache, addr uint64) int { e, _ := c.Peek(addr); return e })
}

func BenchmarkCacheInsert(b *testing.B) {
	benchAccess(b, func(c *Cache, addr uint64) int {
		if c.Insert(addr, 0, false).Evicted {
			return 1
		}
		return 0
	})
}
