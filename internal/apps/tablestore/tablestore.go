// Package tablestore implements a VoltDB-like in-memory relational
// table executing against the simulated machine: fixed-width rows in
// row pages, a sorted primary index walked by binary search (a chain of
// dependent loads, which is why the paper's VoltDB numbers are more
// latency-sensitive than Redis in Figure 9b), and an append-only redo
// log for writes. A YCSB driver supplies the A-F mixes.
package tablestore

import (
	"github.com/moatlab/melody/internal/apps/appcache"
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/mem"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
	"github.com/moatlab/melody/internal/workload"
)

// Config sizes a table.
type Config struct {
	Rows    uint64
	RowSize uint64 // bytes per row (fixed-width columns)
	// OpCompute is the per-transaction SQL execution cost
	// (plan lookup, expression evaluation, serialization).
	OpCompute uint64
	OpILP     float64
}

// VoltDBConfig mirrors a single-partition VoltDB-style table.
func VoltDBConfig() Config {
	return Config{Rows: 1 << 21, RowSize: 256, OpCompute: 4200, OpILP: 2.2}
}

// Table is the functional store bound to simulated memory.
type Table struct {
	cfg   Config
	arena *vm.Arena
	index vm.Object // sorted key array, 8B entries
	rows  vm.Object // row pages
	log   vm.Object // redo log

	// keys is the sorted primary index (dense keys 1..Rows, kept
	// explicit for realism), shared read-only by every table of the
	// same Rows; never written.
	keys    []uint64
	logHead uint64
}

// indexes holds each row count's populated primary index while a run
// is open.
var indexes = appcache.RunScoped[uint64, []uint64]()

// NewTable builds a populated table.
func NewTable(cfg Config) *Table {
	t := &Table{cfg: cfg}
	t.arena = vm.New(8 << 30)
	t.index = t.arena.Alloc("index", cfg.Rows*8)
	t.rows = t.arena.Alloc("rows", cfg.Rows*cfg.RowSize)
	t.log = t.arena.Alloc("redolog", 256<<20)
	t.keys = indexes.Get(cfg.Rows, func() []uint64 { return sortedKeys(cfg.Rows) })
	return t
}

// sortedKeys returns the populated index of a table of n rows.
func sortedKeys(n uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	return keys
}

// Arena exposes the table's objects.
func (t *Table) Arena() *vm.Arena { return t.arena }

func (t *Table) indexAddr(i uint64) uint64 { return t.index.Base + i*8 }
func (t *Table) rowAddr(i uint64) uint64   { return t.rows.Base + i*t.cfg.RowSize }

// find binary-searches the primary index through the machine and
// returns the row position. Each probe is a dependent load (the next
// address depends on the comparison result).
func (t *Table) find(m *core.Machine, key uint64) (uint64, bool) {
	lo, hi := uint64(0), uint64(len(t.keys))
	for lo < hi {
		mid := (lo + hi) / 2
		m.Load(t.indexAddr(mid), true)
		m.Compute(4)
		if t.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < uint64(len(t.keys)) && t.keys[lo] == key {
		return lo, true
	}
	return lo, false
}

// Select reads one row.
func (t *Table) Select(m *core.Machine, key uint64) bool {
	pos, ok := t.find(m, key)
	if !ok {
		return false
	}
	addr := t.rowAddr(pos)
	lines := (t.cfg.RowSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		m.Load(addr+i*mem.LineSize, i == 0)
	}
	m.Compute(lines * 6) // column deserialization
	return true
}

// Update rewrites one row and appends a redo-log record.
func (t *Table) Update(m *core.Machine, key uint64) bool {
	pos, ok := t.find(m, key)
	if !ok {
		return false
	}
	addr := t.rowAddr(pos)
	lines := (t.cfg.RowSize + mem.LineSize - 1) / mem.LineSize
	for i := uint64(0); i < lines; i++ {
		m.Load(addr+i*mem.LineSize, i == 0) // read-modify
		m.Store(addr + i*mem.LineSize)
	}
	// Redo log append: sequential stores.
	for i := uint64(0); i < lines; i++ {
		m.Store(t.log.Base + (t.logHead+i*mem.LineSize)%t.log.Size)
	}
	t.logHead = (t.logHead + lines*mem.LineSize) % t.log.Size
	m.Compute(lines * 8)
	return true
}

// ScanRange reads n consecutive rows starting at key.
func (t *Table) ScanRange(m *core.Machine, key uint64, n int) {
	pos, _ := t.find(m, key)
	lines := (t.cfg.RowSize + mem.LineSize - 1) / mem.LineSize
	for r := uint64(0); r < uint64(n) && pos+r < t.cfg.Rows; r++ {
		addr := t.rowAddr(pos + r)
		for i := uint64(0); i < lines; i++ {
			m.Load(addr+i*mem.LineSize, false)
		}
		m.Compute(lines * 4)
	}
}

// YCSB drives a Table with one standard mix (reusing the kvstore mixes'
// shape: A 50/50, B 95/5, C read-only, D latest, E scan, F RMW).
type YCSB struct {
	name string
	t    *Table
	mix  Mix
	rng  *sim.Rand
	zipf *sim.Zipf
}

// Mix mirrors kvstore's YCSB mix locally to avoid a dependency.
type Mix struct {
	Read, Update, Insert, Scan, RMW float64
	ScanLen                         int
	Latest                          bool
}

// Mixes returns YCSB A-F for the table store.
func Mixes() map[string]Mix {
	return map[string]Mix{
		"A": {Read: 0.5, Update: 0.5},
		"B": {Read: 0.95, Update: 0.05},
		"C": {Read: 1.0},
		"D": {Read: 0.95, Insert: 0.05, Latest: true},
		"E": {Scan: 0.95, Insert: 0.05, ScanLen: 16},
		"F": {Read: 0.5, RMW: 0.5},
	}
}

var _ workload.Workload = (*YCSB)(nil)

// NewYCSB builds a driver over a fresh table.
func NewYCSB(name string, cfg Config, mix Mix, seed uint64) *YCSB {
	r := sim.NewRand(seed)
	return &YCSB{
		name: name,
		t:    NewTable(cfg),
		mix:  mix,
		rng:  r,
		zipf: sim.NewZipf(r.Fork(), cfg.Rows, 0.99),
	}
}

// Name implements workload.Workload.
func (y *YCSB) Name() string { return y.name }

// Table exposes the underlying table.
func (y *YCSB) Table() *Table { return y.t }

// PreloadObjects implements workload.Preloader: the primary index is
// hot in steady state; row pages are too large to stay resident.
func (y *YCSB) PreloadObjects() []vm.Object {
	return []vm.Object{y.t.index}
}

func (y *YCSB) nextKey() uint64 {
	if y.mix.Latest {
		return y.t.cfg.Rows - y.zipf.Next()
	}
	return y.zipf.Next() + 1
}

// Run implements workload.Workload.
func (y *YCSB) Run(m *core.Machine) {
	half := y.t.cfg.OpCompute / 2
	for !m.Done() {
		m.ComputeILP(half, y.t.cfg.OpILP)
		p := y.rng.Float64()
		mix := y.mix
		switch {
		case p < mix.Read:
			y.t.Select(m, y.nextKey())
		case p < mix.Read+mix.Update+mix.Insert:
			y.t.Update(m, y.nextKey())
		case p < mix.Read+mix.Update+mix.Insert+mix.Scan:
			y.t.ScanRange(m, y.nextKey(), mix.ScanLen)
		default:
			key := y.nextKey()
			y.t.Select(m, key)
			m.ComputeILP(400, y.t.cfg.OpILP)
			y.t.Update(m, key)
		}
		m.ComputeILP(half, y.t.cfg.OpILP)
	}
}

// Specs returns the VoltDB YCSB A-F catalog entries.
func Specs() []workload.Spec {
	var out []workload.Spec
	for _, wl := range []string{"A", "B", "C", "D", "E", "F"} {
		wl := wl
		out = append(out, workload.Spec{
			Name:  "voltdb-ycsb-" + wl,
			Suite: "VoltDB",
			Class: workload.ClassLatency,
			New: func(seed uint64) workload.Workload {
				return NewYCSB("voltdb-ycsb-"+wl, VoltDBConfig(), Mixes()[wl], seed)
			},
			Siblings: workload.Siblings{Threads: 7, ReadFrac: 0.85, MLP: 4, DelayNs: 300, WorkingSetMB: 256},
		})
	}
	return out
}

// Register adds the table-store specs to the workload catalog.
func Register() { workload.RegisterApps(Specs()) }
