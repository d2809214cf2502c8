package cache

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/moatlab/melody/internal/mem"
)

func TestProbeMissThenHit(t *testing.T) {
	c := New(32<<10, 8)
	if _, hit := c.Probe(0x1000); hit {
		t.Fatal("cold cache hit")
	}
	c.Insert(0x1000, 10, false)
	e, hit := c.Probe(0x1000)
	if !hit {
		t.Fatal("miss after insert")
	}
	if c.ReadyAt(e) != 10 {
		t.Fatalf("ReadyAt = %v, want 10", c.ReadyAt(e))
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(32<<10, 8)
	c.Insert(0x1000, 0, false)
	if _, hit := c.Probe(0x103F); !hit {
		t.Fatal("offset within line missed")
	}
	if _, hit := c.Probe(0x1040); hit {
		t.Fatal("next line hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Single-set cache with 2 ways: third distinct line evicts the LRU.
	c := New(2*mem.LineSize, 2)
	setStride := uint64(c.Sets()) * mem.LineSize
	a, b, d := uint64(0), setStride, 2*setStride
	c.Insert(a, 0, false)
	c.Insert(b, 0, false)
	c.Probe(a) // make b the LRU
	v := c.Insert(d, 0, false)
	if !v.Evicted || v.Addr != b {
		t.Fatalf("evicted %+v, want line b (%#x)", v, b)
	}
	if _, hit := c.Peek(a); !hit {
		t.Fatal("recently used line evicted")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(2*mem.LineSize, 2)
	setStride := uint64(c.Sets()) * mem.LineSize
	c.Insert(0, 0, true)
	c.Insert(setStride, 0, false)
	v := c.Insert(2*setStride, 0, false)
	if !v.Evicted || !v.Dirty {
		t.Fatalf("dirty victim not reported: %+v", v)
	}
}

func TestInsertExistingRefreshes(t *testing.T) {
	c := New(32<<10, 8)
	c.Insert(0x2000, 100, false)
	v := c.Insert(0x2000, 50, true)
	if v.Evicted {
		t.Fatal("re-insert evicted something")
	}
	e, _ := c.Peek(0x2000)
	if c.ReadyAt(e) != 50 {
		t.Fatalf("ReadyAt not lowered: %v", c.ReadyAt(e))
	}
	if !c.IsDirty(e) {
		t.Fatal("dirty bit lost on refresh")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(32<<10, 8)
	c.Insert(0x3000, 0, true)
	v := c.Invalidate(0x3000)
	if !v.Evicted || !v.Dirty {
		t.Fatalf("Invalidate = %+v", v)
	}
	if _, hit := c.Peek(0x3000); hit {
		t.Fatal("line survives invalidate")
	}
	if v := c.Invalidate(0x9999000); v.Evicted {
		t.Fatal("invalidate of absent line reported eviction")
	}
}

func TestResetClears(t *testing.T) {
	c := New(32<<10, 8)
	for i := uint64(0); i < 100; i++ {
		c.Insert(i*mem.LineSize, 0, true)
	}
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("stats survived Reset")
	}
	if _, hit := c.Probe(0); hit {
		t.Fatal("line survived Reset")
	}
}

func TestCapacityProperty(t *testing.T) {
	// Inserting exactly capacity distinct lines with perfect set balance
	// must keep them all resident.
	c := New(16<<10, 4) // 64 sets * 4 ways = 256 lines
	n := uint64(c.Sets() * c.Ways())
	for i := uint64(0); i < n; i++ {
		c.Insert(i*mem.LineSize, 0, false)
	}
	for i := uint64(0); i < n; i++ {
		if _, hit := c.Peek(i * mem.LineSize); !hit {
			t.Fatalf("line %d evicted below capacity", i)
		}
	}
}

func TestWorkingSetBeyondCapacityMisses(t *testing.T) {
	c := New(16<<10, 4)
	lines := uint64(c.Sets()*c.Ways()) * 4 // 4x capacity
	// Two sweeps: second sweep over 4x capacity should still miss a lot.
	for sweep := 0; sweep < 2; sweep++ {
		for i := uint64(0); i < lines; i++ {
			if _, hit := c.Probe(i * mem.LineSize); !hit {
				c.Insert(i*mem.LineSize, 0, false)
			}
		}
	}
	missRate := float64(c.Misses()) / float64(c.Hits()+c.Misses())
	if missRate < 0.9 {
		t.Fatalf("streaming over 4x capacity: miss rate %v, want ~1", missRate)
	}
}

func TestPanicOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate geometry accepted")
		}
	}()
	New(64, 2) // 64 bytes with 2 ways: under one line per way
}

func TestProbeInsertConsistencyProperty(t *testing.T) {
	f := func(addrsRaw []uint32) bool {
		c := New(8<<10, 4)
		present := map[uint64]bool{}
		order := []uint64{}
		for _, a := range addrsRaw {
			addr := uint64(a) &^ (mem.LineSize - 1)
			v := c.Insert(addr, 0, false)
			if v.Evicted {
				delete(present, v.Addr)
			}
			if !present[addr] {
				present[addr] = true
				order = append(order, addr)
			}
		}
		// Everything the model says is present must Peek-hit.
		for addr := range present {
			if _, hit := c.Peek(addr); !hit {
				return false
			}
		}
		_ = order
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refCache is the cache model as it was before 32-bit ticks and bulk
// fills: uint64 LRU ticks that never wrap and one Insert scan per line.
// The equivalence tests below hold Cache to it.
type refCache struct {
	sets, ways int
	lines      []uint64
	ready      []float64
	dirty      []bool
	tick       []uint64
	clock      uint64
}

func newRef(sizeBytes uint64, ways int) *refCache {
	sets := int(sizeBytes / mem.LineSize / uint64(ways))
	n := sets * ways
	return &refCache{sets: sets, ways: ways, lines: make([]uint64, n),
		ready: make([]float64, n), dirty: make([]bool, n), tick: make([]uint64, n)}
}

func (c *refCache) set(addr uint64) int { return int((addr / mem.LineSize) % uint64(c.sets)) }

func (c *refCache) Peek(addr uint64) (int, bool) {
	line := addr/mem.LineSize + 1
	base := c.set(addr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			return base + w, true
		}
	}
	return -1, false
}

func (c *refCache) Probe(addr uint64) (int, bool) {
	e, ok := c.Peek(addr)
	if ok {
		c.clock++
		c.tick[e] = c.clock
	}
	return e, ok
}

func (c *refCache) Insert(addr uint64, readyAt float64, dirty bool) Victim {
	line := addr/mem.LineSize + 1
	base := c.set(addr) * c.ways
	victimWay := 0
	oldest := ^uint64(0)
	for w := 0; w < c.ways; w++ {
		e := base + w
		if c.lines[e] == line {
			c.clock++
			c.tick[e] = c.clock
			if readyAt < c.ready[e] {
				c.ready[e] = readyAt
			}
			if dirty {
				c.dirty[e] = true
			}
			return Victim{}
		}
		if c.lines[e] == 0 {
			victimWay = w
			oldest = 0
		} else if c.tick[e] < oldest {
			victimWay = w
			oldest = c.tick[e]
		}
	}
	e := base + victimWay
	var v Victim
	if c.lines[e] != 0 {
		v = Victim{Addr: (c.lines[e] - 1) * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
	}
	c.clock++
	c.lines[e] = line
	c.ready[e] = readyAt
	c.dirty[e] = dirty
	c.tick[e] = c.clock
	return v
}

func (c *refCache) Fill(base, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Insert(base+i*mem.LineSize, 0, false)
	}
}

func (c *refCache) Invalidate(addr uint64) Victim {
	if e, ok := c.Peek(addr); ok {
		v := Victim{Addr: addr / mem.LineSize * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
		c.lines[e] = 0
		c.dirty[e] = false
		c.ready[e] = 0
		return v
	}
	return Victim{}
}

func (c *refCache) MarkDirty(e int)       { c.dirty[e] = true }
func (c *refCache) ReadyAt(e int) float64 { return c.ready[e] }
func (c *refCache) IsDirty(e int) bool    { return c.dirty[e] }

// model is the surface the lockstep driver exercises.
type model interface {
	Peek(addr uint64) (int, bool)
	Probe(addr uint64) (int, bool)
	Insert(addr uint64, readyAt float64, dirty bool) Victim
	Fill(base, n uint64)
	Invalidate(addr uint64) Victim
	MarkDirty(e int)
	ReadyAt(e int) float64
	IsDirty(e int) bool
}

// insertFiller is a Cache whose Fill is the per-line Insert loop.
type insertFiller struct{ *Cache }

func (c insertFiller) Fill(base, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.Insert(base+i*mem.LineSize, 0, false)
	}
}

// lockstep applies ops random operations on lines below window to every
// model in ms and fails at the first result on which they differ: a
// Probe's hit, entry, readiness and dirty bit, or an Insert's or
// Invalidate's victim. fills selects whether Fill is among the ops.
func lockstep(t *testing.T, rng *rand.Rand, ops int, window uint64, fills bool, ms ...model) {
	t.Helper()
	kinds := 4
	if fills {
		kinds = 5
	}
	for op := 0; op < ops; op++ {
		addr := rng.Uint64N(window)*mem.LineSize + rng.Uint64N(mem.LineSize)
		switch rng.IntN(kinds) {
		case 0:
			e0, hit0 := ms[0].Probe(addr)
			for _, m := range ms[1:] {
				e, hit := m.Probe(addr)
				if e != e0 || hit != hit0 {
					t.Fatalf("op %d Probe(%#x) = %d,%v, want %d,%v", op, addr, e, hit, e0, hit0)
				}
				if hit && (m.ReadyAt(e) != ms[0].ReadyAt(e0) || m.IsDirty(e) != ms[0].IsDirty(e0)) {
					t.Fatalf("op %d Probe(%#x): entry state differs", op, addr)
				}
			}
		case 1:
			ready, dirty := float64(rng.IntN(100)), rng.IntN(4) == 0
			v0 := ms[0].Insert(addr, ready, dirty)
			for _, m := range ms[1:] {
				if v := m.Insert(addr, ready, dirty); v != v0 {
					t.Fatalf("op %d Insert(%#x) victim %+v, want %+v", op, addr, v, v0)
				}
			}
		case 2:
			for _, m := range ms {
				if e, ok := m.Peek(addr); ok {
					m.MarkDirty(e)
				}
			}
		case 3:
			v0 := ms[0].Invalidate(addr)
			for _, m := range ms[1:] {
				if v := m.Invalidate(addr); v != v0 {
					t.Fatalf("op %d Invalidate(%#x) = %+v, want %+v", op, addr, v, v0)
				}
			}
		case 4:
			n := rng.Uint64N(window / 2)
			for _, m := range ms {
				m.Fill(addr, n)
			}
		}
	}
}

// sameState fails unless a and b hold the same valid lines in the same
// ways with the same readiness, dirty bits and LRU ticks, and the same
// clock.
func sameState(t *testing.T, a, b *Cache) {
	t.Helper()
	if a.clock != b.clock {
		t.Fatalf("clock %d, want %d", a.clock, b.clock)
	}
	for e := range a.lines {
		if a.lines[e] != b.lines[e] {
			t.Fatalf("entry %d holds line %d, want %d", e, a.lines[e], b.lines[e])
		}
		if a.lines[e] != 0 && (a.ready[e] != b.ready[e] || a.dirty[e] != b.dirty[e] || a.tick[e] != b.tick[e]) {
			t.Fatalf("entry %d: ready/dirty/tick %v/%v/%d, want %v/%v/%d",
				e, a.ready[e], a.dirty[e], a.tick[e], b.ready[e], b.dirty[e], b.tick[e])
		}
	}
}

func TestFillMatchesInserts(t *testing.T) {
	for _, ways := range []int{8, 16} {
		for _, sets := range []int{5, 7, 13} {
			size := uint64(sets*ways) * mem.LineSize
			capacity := uint64(sets * ways)
			rng := rand.New(rand.NewPCG(uint64(ways), uint64(sets)))
			for n := uint64(0); n <= capacity; n++ {
				fill, ins, ref := New(size, ways), New(size, ways), newRef(size, ways)
				// A prior history over twice the capacity leaves sets
				// partly filled, with holes, and overlapping the range.
				lockstep(t, rng, int(rng.Uint64N(3*capacity)), 2*capacity, false, ref, fill, insertFiller{ins})
				base := rng.Uint64N(2*capacity)*mem.LineSize + rng.Uint64N(mem.LineSize)
				fill.Fill(base, n)
				insertFiller{ins}.Fill(base, n)
				ref.Fill(base, n)
				sameState(t, fill, ins)
				lockstep(t, rng, 200, 2*capacity, true, ref, fill, insertFiller{ins})
			}
		}
	}
}

func TestFillBeyondCapacityMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const sets, ways = 11, 8
	size := uint64(sets*ways) * mem.LineSize
	for _, n := range []uint64{sets*ways + 1, 2*sets*ways + 5, 5 * sets * ways} {
		fill, ins := New(size, ways), New(size, ways)
		lockstep(t, rng, 300, 4*sets*ways, false, fill, insertFiller{ins})
		base := rng.Uint64N(sets*ways) * mem.LineSize
		fill.Fill(base, n)
		insertFiller{ins}.Fill(base, n)
		sameState(t, fill, ins)
	}
}

func TestTickRenumberKeepsLRU(t *testing.T) {
	for _, ways := range []int{8, 16} {
		const sets = 13
		size := uint64(sets*ways) * mem.LineSize
		c, ref := New(size, ways), newRef(size, ways)
		rng := rand.New(rand.NewPCG(uint64(ways), 9))
		renumbers := 0
		for round := 0; round < 200; round++ {
			// Jump the clock to a few ticks below the limit. Every valid
			// tick stays below it, so recency order is unchanged.
			c.clock = tickLimit - 1 - uint32(rng.IntN(2*ways))
			before := c.clock
			lockstep(t, rng, 100, 3*sets*uint64(ways), true, ref, c)
			if c.clock < before {
				renumbers++
			}
		}
		if renumbers < 150 {
			t.Fatalf("ways %d: the clock was renumbered in %d of 200 rounds", ways, renumbers)
		}
	}
}

func TestRenumberRanksWithinSet(t *testing.T) {
	c := New(4*mem.LineSize, 4) // one set
	for i, addr := range []uint64{0, 1, 2, 3} {
		c.Insert(addr*mem.LineSize, 0, false)
		c.tick[3-i] += 1000 * uint32(i) // distinct, far apart
	}
	c.Invalidate(2 * mem.LineSize)
	c.renumber()
	var got []uint32
	for w := range c.lines {
		if c.lines[w] != 0 {
			got = append(got, c.tick[w])
		}
	}
	if !reflect.DeepEqual(got, []uint32{3, 2, 1}) || c.clock != 4 {
		t.Fatalf("ticks %v clock %d, want [3 2 1] clock 4", got, c.clock)
	}
}

func TestResetCacheBehavesLikeNew(t *testing.T) {
	const size, ways = 37 * 16 * mem.LineSize, 16
	rng := rand.New(rand.NewPCG(5, 6))
	used := New(size, ways)
	lockstep(t, rng, 5000, 4*37*16, true, used)
	used.Fill(0, 37*16)
	used.Reset()
	if used.Hits() != 0 || used.Misses() != 0 {
		t.Fatal("statistics survived Reset")
	}
	lockstep(t, rng, 5000, 4*37*16, true, New(size, ways), used)

	if Reuse(used, size, ways) != used {
		t.Fatal("Reuse of a matching geometry allocated a new cache")
	}
	if Reuse(used, size, 8) == used || Reuse(used, 2*size, ways) == used || Reuse(nil, size, ways) == nil {
		t.Fatal("Reuse kept a cache of another geometry")
	}
}

// TestReuseAllocatesNothing pins that re-arming a cache of the same
// geometry allocates no metadata.
func TestReuseAllocatesNothing(t *testing.T) {
	c := New(2<<20, 16)
	if a := testing.AllocsPerRun(10, func() { c = Reuse(c, 2<<20, 16) }); a != 0 {
		t.Fatalf("Reuse allocated %v times per call", a)
	}
}
