package tablestore

import (
	"sort"
	"sync"
	"testing"
)

func mixNames() []string {
	var names []string
	for name := range Mixes() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// requireFreshKeys fails unless keys is exactly a freshly populated
// index of n rows.
func requireFreshKeys(t *testing.T, keys []uint64, n uint64) {
	t.Helper()
	if uint64(len(keys)) != n {
		t.Fatalf("index has %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != uint64(i)+1 {
			t.Fatalf("index[%d] = %d, want %d", i, k, i+1)
		}
	}
}

func TestSharedIndexMatchesPrivateIndex(t *testing.T) {
	for _, cfg := range []Config{smallConfig(), VoltDBConfig()} {
		for _, name := range mixNames() {
			y := NewYCSB("t-"+name, cfg, Mixes()[name], 3)
			m := newMachine(150)
			y.Run(m)

			// The reference owns a private index populated the old way.
			ref := NewYCSB("t-"+name, cfg, Mixes()[name], 3)
			ref.t.keys = sortedKeys(cfg.Rows)
			mr := newMachine(150)
			ref.Run(mr)

			if got, want := m.Counters(), mr.Counters(); got != want {
				t.Fatalf("rows %d mix %s: counters differ from the private-index reference\n got %v\nwant %v", cfg.Rows, name, got, want)
			}
			if y.t.logHead != ref.t.logHead {
				t.Fatalf("rows %d mix %s: log head %d, reference %d", cfg.Rows, name, y.t.logHead, ref.t.logHead)
			}
		}
	}
	requireFreshKeys(t, NewTable(smallConfig()).keys, smallConfig().Rows)
}

func TestConcurrentNewTableSharesOneIndex(t *testing.T) {
	// A row count no other test builds, so the first build races here.
	cfg := Config{Rows: 3 << 12, RowSize: 128, OpCompute: 600, OpILP: 2}
	const workers = 6
	tables := make([]*Table, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = NewTable(cfg)
			tables[i].Update(newMachine(100), uint64(i+1))
		}(i)
	}
	wg.Wait()
	for i, tb := range tables {
		if &tb.keys[0] != &tables[0].keys[0] {
			t.Fatalf("table %d has its own index", i)
		}
	}
	requireFreshKeys(t, tables[0].keys, cfg.Rows)
}
