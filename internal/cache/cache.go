// Package cache implements the set-associative cache model used for the
// simulated L1D/L2/LLC hierarchy. Lines carry a readiness timestamp so
// in-flight fills (demand misses and prefetches) live in the cache as
// *pending* lines: a hit on a pending line is the paper's "delayed hit",
// the mechanism behind CXL-induced cache-level stalls (§5.4).
package cache

import "github.com/moatlab/melody/internal/mem"

// Cache is one level of the hierarchy. Not safe for concurrent use.
//
// Only lines decides whether an entry is valid. ready and dirty are
// read only for entries a lookup hit, and tick only for valid entries,
// so Reset clears lines alone and leaves the rest stale but unreachable.
//
// LRU ticks are 32-bit. Before the clock would reach the tickLimit
// sentinel, renumber rewrites each valid line's tick as its rank within
// its set. Insert compares ticks only within one set, so no victim
// choice changes.
type Cache struct {
	sets, ways int

	// Per-entry state, indexed by set*ways+way. A line's entry stores
	// the full line number (addr / LineSize) + 1, with 0 = invalid, so
	// evictions can reconstruct victim addresses.
	lines []uint64
	ready []float64 // time the line's data is available (ns)
	dirty []bool
	tick  []uint32 // LRU clock values

	clock uint32

	hits, misses uint64
}

// tickLimit is Insert's "no valid way seen yet" sentinel. No valid line
// ever carries it: the clock is renumbered before it gets there.
const tickLimit = ^uint32(0)

// New builds a cache of the given total size and associativity. Size is
// rounded down to a whole number of sets. It panics if the geometry is
// degenerate.
func New(sizeBytes uint64, ways int) *Cache {
	c := &Cache{sets: setCount(sizeBytes, ways), ways: ways}
	n := c.sets * c.ways
	c.lines = make([]uint64, n)
	c.ready = make([]float64, n)
	c.dirty = make([]bool, n)
	c.tick = make([]uint32, n)
	return c
}

// setCount is the number of sets New builds for a geometry.
func setCount(sizeBytes uint64, ways int) int {
	if ways <= 0 || sizeBytes < uint64(ways)*mem.LineSize {
		panic("cache: invalid geometry")
	}
	return int(sizeBytes / mem.LineSize / uint64(ways))
}

// Reuse returns c, Reset, if it has the geometry New(sizeBytes, ways)
// builds, and a new cache otherwise (or when c is nil).
func Reuse(c *Cache, sizeBytes uint64, ways int) *Cache {
	if c == nil || c.ways != ways || c.sets != setCount(sizeBytes, ways) {
		return New(sizeBytes, ways)
	}
	c.Reset()
	return c
}

// Reset invalidates every line and clears statistics; the cache then
// behaves exactly like a new one.
func (c *Cache) Reset() {
	clear(c.lines)
	c.clock = 0
	c.hits, c.misses = 0, 0
}

// Sets and Ways expose the geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }

// Hits and Misses expose lookup statistics.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// set returns the set index for addr. The set bits are taken directly
// above the line offset; bank-style hashing is unnecessary at cache
// granularity.
func (c *Cache) set(addr uint64) int {
	return int((addr / mem.LineSize) % uint64(c.sets))
}

// nextTick advances the LRU clock and returns its new value.
func (c *Cache) nextTick() uint32 {
	if c.clock == tickLimit-1 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces every valid line's tick by its rank (1 = least
// recently used) among its set's valid lines and restarts the clock at
// ways, above every rank. Ranks come from a copy of the set's ticks, so
// ticks already rewritten never affect the ranks of the others.
func (c *Cache) renumber() {
	old := make([]uint32, c.ways)
	for base := 0; base < len(c.lines); base += c.ways {
		copy(old, c.tick[base:base+c.ways])
		for w, t := range old {
			if c.lines[base+w] == 0 {
				continue
			}
			rank := uint32(1)
			for v, u := range old {
				if c.lines[base+v] != 0 && u < t {
					rank++
				}
			}
			c.tick[base+w] = rank
		}
	}
	c.clock = uint32(c.ways)
}

// Probe looks addr up and returns the entry index on a hit. It counts
// hit/miss statistics and refreshes LRU state on hits.
func (c *Cache) Probe(addr uint64) (entry int, hit bool) {
	line := addr/mem.LineSize + 1
	base := c.set(addr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			c.tick[base+w] = c.nextTick()
			c.hits++
			return base + w, true
		}
	}
	c.misses++
	return -1, false
}

// Peek is Probe without statistics or LRU updates (for prefetcher
// filtering).
func (c *Cache) Peek(addr uint64) (entry int, hit bool) {
	line := addr/mem.LineSize + 1
	base := c.set(addr) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.lines[base+w] == line {
			return base + w, true
		}
	}
	return -1, false
}

// ReadyAt returns when the entry's data is available.
func (c *Cache) ReadyAt(entry int) float64 { return c.ready[entry] }

// SetReady overrides the entry's availability time.
func (c *Cache) SetReady(entry int, t float64) { c.ready[entry] = t }

// MarkDirty marks the entry's line dirty.
func (c *Cache) MarkDirty(entry int) { c.dirty[entry] = true }

// IsDirty reports whether the entry is dirty.
func (c *Cache) IsDirty(entry int) bool { return c.dirty[entry] }

// Victim holds the line evicted by an Insert.
type Victim struct {
	Addr    uint64
	Dirty   bool
	Evicted bool
}

// Insert installs addr with the given readiness time, evicting the LRU
// way of its set if needed. Inserting an already-present line refreshes
// it in place (keeping its dirty bit).
func (c *Cache) Insert(addr uint64, readyAt float64, dirty bool) Victim {
	return c.insert(c.set(addr)*c.ways, addr/mem.LineSize+1, readyAt, dirty, c.nextTick())
}

// insert is Insert of the entry value line into the set starting at
// entry base, stamping it with tick.
func (c *Cache) insert(base int, line uint64, readyAt float64, dirty bool, tick uint32) Victim {
	victimWay := 0
	oldest := tickLimit
	for w := 0; w < c.ways; w++ {
		e := base + w
		if c.lines[e] == line {
			c.tick[e] = tick
			if readyAt < c.ready[e] {
				c.ready[e] = readyAt
			}
			if dirty {
				c.dirty[e] = true
			}
			return Victim{}
		}
		if c.lines[e] == 0 {
			// Prefer invalid ways outright; the last one wins.
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
	c.lines[e] = line
	c.ready[e] = readyAt
	c.dirty[e] = dirty
	c.tick[e] = tick
	return v
}

// Fill installs the n consecutive lines starting at base as ready,
// clean lines and discards their victims. It leaves exactly the state n
// calls Insert(base+i*LineSize, 0, false) leave, but walks the range set
// by set: line i lands in set (line0+i) mod sets with tick clock0+i+1
// either way, and lines of different sets never interact, so each set's
// metadata is scanned once rather than once per line.
func (c *Cache) Fill(base, n uint64) {
	line0 := base / mem.LineSize
	for n > 0 {
		if c.clock == tickLimit-1 {
			c.renumber()
		}
		k := min(n, uint64(tickLimit-1-c.clock))
		c.fill(line0, k)
		c.clock += uint32(k)
		line0 += k
		n -= k
	}
}

// fill is Fill of lines line0..line0+n-1 with ticks clock+1..clock+n,
// which the caller guarantees stay below tickLimit.
func (c *Cache) fill(line0, n uint64) {
	sets := uint64(c.sets)
	for j := uint64(0); j < min(n, sets); j++ {
		base := int((line0+j)%sets) * c.ways
		k := (n - j + sets - 1) / sets // range lines that map to this set
		// Fast path: none of the range is resident here and there are
		// enough invalid ways, which Insert takes last-first.
		free, resident := 0, false
		for w := 0; w < c.ways; w++ {
			if l := c.lines[base+w]; l == 0 {
				free++
			} else if l-1-line0 < n {
				resident = true
			}
		}
		if resident || uint64(free) < k {
			for i := j; i < n; i += sets {
				c.insert(base, line0+i+1, 0, false, c.clock+uint32(i)+1)
			}
			continue
		}
		i := j
		for w := c.ways - 1; i < n; w-- {
			e := base + w
			if c.lines[e] != 0 {
				continue
			}
			c.lines[e] = line0 + i + 1
			c.ready[e] = 0
			c.dirty[e] = false
			c.tick[e] = c.clock + uint32(i) + 1
			i += sets
		}
	}
}

// Invalidate drops addr if present, returning its victim record.
func (c *Cache) Invalidate(addr uint64) Victim {
	if e, ok := c.Peek(addr); ok {
		v := Victim{Addr: addr / mem.LineSize * mem.LineSize, Dirty: c.dirty[e], Evicted: true}
		c.lines[e] = 0
		c.dirty[e] = false
		c.ready[e] = 0
		return v
	}
	return Victim{}
}
