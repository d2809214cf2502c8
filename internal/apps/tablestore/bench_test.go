package tablestore

import "testing"

var (
	tableSink *Table
	ycsbSink  *YCSB
)

// BenchmarkNewTable prices one cell's VoltDB table in a warm process:
// the shared index is built before the timer starts.
func BenchmarkNewTable(b *testing.B) {
	cfg := VoltDBConfig()
	tableSink = NewTable(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tableSink = NewTable(cfg)
	}
}

// BenchmarkNewYCSB prices building one VoltDB YCSB-A driver, table
// included, in a warm process.
func BenchmarkNewYCSB(b *testing.B) {
	cfg, mix := VoltDBConfig(), Mixes()["A"]
	ycsbSink = NewYCSB("voltdb-ycsb-A", cfg, mix, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ycsbSink = NewYCSB("voltdb-ycsb-A", cfg, mix, uint64(i))
	}
}
