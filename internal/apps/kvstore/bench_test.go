package kvstore

import "testing"

var (
	storeSink *Store
	ycsbSink  *YCSB
)

// BenchmarkNewStore prices one cell's store in a warm process: the
// shared populated table is built before the timer starts, so each
// iteration is the per-cell layout and overlay cost.
func BenchmarkNewStore(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"Redis", RedisConfig()}, {"Memcached", MemcachedConfig()}} {
		b.Run(c.name, func(b *testing.B) {
			storeSink = NewStore(c.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				storeSink = NewStore(c.cfg)
			}
		})
	}
}

// BenchmarkNewYCSB prices building one Redis YCSB-A driver, store
// included, in a warm process.
func BenchmarkNewYCSB(b *testing.B) {
	cfg, mix := RedisConfig(), YCSBMixes()["A"]
	ycsbSink = NewYCSB("redis-ycsb-A", cfg, mix, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ycsbSink = NewYCSB("redis-ycsb-A", cfg, mix, uint64(i))
	}
}
