package kvstore

import (
	"sort"
	"sync"
	"testing"

	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
)

// refStore is the reference store: it populates a private table and
// writes straight into it, with no shared base and no overlay. Its
// operations issue the same machine calls as Store's.
type refStore struct {
	cfg     Config
	table   uint64 // hashtable base address
	values  uint64 // value-log base address
	valSize uint64 // value-log size
	slots   []slot
	nSlots  uint64
	logHead uint64
}

func newRefStore(cfg Config) *refStore {
	l := layout(cfg)
	r := &refStore{cfg: cfg, table: l.table.Base, values: l.values.Base, valSize: l.values.Size, nSlots: l.nSlots}
	r.slots = make([]slot, r.nSlots)
	for k := uint64(1); k <= cfg.Keys; k++ {
		r.insert(k, r.allocValue())
	}
	return r
}

func (r *refStore) allocValue() uint64 {
	addr := r.values + r.logHead
	r.logHead = (r.logHead + r.cfg.ValueSize) % r.valSize
	return addr
}

func (r *refStore) insert(key, valAddr uint64) {
	h := hashKey(key) & (r.nSlots - 1)
	for r.slots[h].key != 0 && r.slots[h].key != key {
		h = (h + 1) & (r.nSlots - 1)
	}
	r.slots[h] = slot{key: key, valAddr: valAddr}
}

func (r *refStore) lookup(m *core.Machine, key uint64) (uint64, bool) {
	h := hashKey(key) & (r.nSlots - 1)
	for probes := 0; probes < 64; probes++ {
		m.Load(r.table+h*16, true)
		m.Compute(6)
		if r.slots[h].key == key {
			return h, true
		}
		if r.slots[h].key == 0 {
			return h, false
		}
		h = (h + 1) & (r.nSlots - 1)
	}
	return h, false
}

func (r *refStore) get(m *core.Machine, key uint64) {
	idx, ok := r.lookup(m, key)
	if !ok {
		return
	}
	addr := r.slots[idx].valAddr
	lines := (r.cfg.ValueSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		m.Load(addr+i*mem.LineSize, i == 0)
	}
	m.Compute(lines * 4)
}

func (r *refStore) set(m *core.Machine, key uint64) {
	idx, _ := r.lookup(m, key)
	addr := r.allocValue()
	lines := (r.cfg.ValueSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		m.Store(addr + i*mem.LineSize)
	}
	r.slots[idx] = slot{key: key, valAddr: addr}
	m.Store(r.table + idx*16)
	m.Compute(lines * 3)
}

// refRun drives r with the mix exactly as YCSB.Run does, from the same
// seed.
func refRun(m *core.Machine, r *refStore, mix Mix, seed uint64) {
	rng := sim.NewRand(seed)
	zipf := sim.NewZipf(rng.Fork(), r.cfg.Keys, 0.99)
	maxKey := r.cfg.Keys
	next := func() uint64 {
		if mix.Latest {
			return maxKey - zipf.Next()
		}
		return zipf.Next() + 1
	}
	half := r.cfg.OpCompute / 2
	for !m.Done() {
		m.ComputeILP(half, r.cfg.OpILP)
		p := rng.Float64()
		switch {
		case p < mix.Read:
			r.get(m, next())
		case p < mix.Read+mix.Update:
			r.set(m, next())
		case p < mix.Read+mix.Update+mix.Insert:
			maxKey++
			r.insert(maxKey, r.allocValue())
			r.set(m, maxKey)
		case p < mix.Read+mix.Update+mix.Insert+mix.Scan:
			key := next()
			for i := 0; i < mix.ScanLen && key+uint64(i) <= r.cfg.Keys; i++ {
				r.get(m, key+uint64(i))
			}
		default:
			key := next()
			r.get(m, key)
			m.ComputeILP(200, r.cfg.OpILP)
			r.set(m, key)
		}
		m.ComputeILP(half, r.cfg.OpILP)
	}
}

// requireSameTable fails unless s reads exactly r's slots and log head.
func requireSameTable(t *testing.T, s *Store, r *refStore) {
	t.Helper()
	if s.nSlots != r.nSlots || s.logHead != r.logHead {
		t.Fatalf("store has %d slots, log head %d; reference %d, %d", s.nSlots, s.logHead, r.nSlots, r.logHead)
	}
	for h := uint64(0); h < s.nSlots; h++ {
		if got := s.slot(h); got != r.slots[h] {
			t.Fatalf("slot %d = %+v, reference %+v", h, got, r.slots[h])
		}
	}
}

func mixNames() []string {
	var names []string
	for name := range YCSBMixes() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func TestSharedBaseMatchesPrivateTable(t *testing.T) {
	for _, cfg := range []Config{smallConfig(), RedisConfig()} {
		for _, name := range mixNames() {
			mix := YCSBMixes()[name]
			y := NewYCSB("t-"+name, cfg, mix, 3)
			m := newMachine(150)
			y.Run(m)

			ref := newRefStore(cfg)
			mr := newMachine(150)
			refRun(mr, ref, mix, 3)

			if got, want := m.Counters(), mr.Counters(); got != want {
				t.Fatalf("keys %d mix %s: counters differ from the private-table reference\n got %v\nwant %v", cfg.Keys, name, got, want)
			}
			requireSameTable(t, y.Store(), ref)
		}
	}
}

func TestWritesNeverReachSharedBase(t *testing.T) {
	cfg := smallConfig()
	for _, name := range []string{"A", "D", "E", "F"} {
		y := NewYCSB("t-"+name, cfg, YCSBMixes()[name], 5)
		y.Run(newMachine(150))
		if len(y.Store().over) == 0 {
			t.Fatalf("mix %s wrote nothing; the test would check nothing", name)
		}
	}
	requireSameTable(t, NewStore(cfg), newRefStore(cfg))
}

func TestConcurrentNewStoreSharesOneBase(t *testing.T) {
	// A shape no other test builds, so the first build races here.
	cfg := Config{Keys: 3 << 12, ValueSize: 192, OpCompute: 400, OpILP: 2}
	const workers = 6
	stores := make([]*Store, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stores[i] = NewStore(cfg)
			stores[i].Set(newMachine(100), uint64(i+1))
		}(i)
	}
	wg.Wait()
	for i, s := range stores {
		if &s.base[0] != &stores[0].base[0] {
			t.Fatalf("store %d has its own base", i)
		}
	}
	requireSameTable(t, NewStore(cfg), newRefStore(cfg))
}
