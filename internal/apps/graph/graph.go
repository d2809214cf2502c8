// Package graph implements GAPBS-style graph kernels (BFS, PageRank,
// connected components, SSSP, triangle counting, betweenness centrality)
// that actually execute over CSR graphs while performing their loads and
// stores through the simulated machine. The paper's graph inputs
// (twitter, web, kron, urand, road) are replaced by synthetic generators
// with matching shape: power-law degree distributions for twitter/web,
// RMAT for kron, uniform for urand, and near-diagonal locality for road.
package graph

import (
	"sort"
	"sync"

	"github.com/moatlab/melody/internal/apps/appcache"
	"github.com/moatlab/melody/internal/core"
	"github.com/moatlab/melody/internal/sim"
	"github.com/moatlab/melody/internal/vm"
)

// Graph is a CSR graph bound to simulated addresses.
type Graph struct {
	Name    string
	N       uint32   // nodes
	Offsets []uint32 // len N+1
	Edges   []uint32 // len M

	arena      *vm.Arena
	offsetsObj vm.Object
	edgesObj   vm.Object
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// Arena exposes the graph's allocations (for placement experiments).
func (g *Graph) Arena() *vm.Arena { return g.arena }

// simulated addresses of CSR elements.
func (g *Graph) offsetAddr(v uint32) uint64 { return g.offsetsObj.Base + uint64(v)*4 }
func (g *Graph) edgeAddr(i int) uint64      { return g.edgesObj.Base + uint64(i)*4 }

// DefaultNodes is the synthetic graph scale: large enough that kernel
// working sets exceed the biggest simulated LLC.
const DefaultNodes = 1 << 21

// DefaultDegree is the average out-degree.
const DefaultDegree = 12

// Build constructs the named synthetic graph ("twitter", "web", "kron",
// "urand", "road") at the given scale.
func Build(name string, n uint32, degree int, seed uint64) *Graph {
	r := sim.NewRand(seed)
	targets := make([][]uint32, n)
	m := int(n) * degree

	addEdge := func(u, v uint32) {
		if u != v {
			targets[u] = append(targets[u], v)
		}
	}

	switch name {
	case "urand":
		for i := 0; i < m; i++ {
			addEdge(uint32(r.Uint64n(uint64(n))), uint32(r.Uint64n(uint64(n))))
		}
	case "kron":
		// RMAT with the GAPBS parameters (a=0.57, b=0.19, c=0.19).
		bits := 0
		for 1<<bits < int(n) {
			bits++
		}
		for i := 0; i < m; i++ {
			var u, v uint32
			for b := 0; b < bits; b++ {
				p := r.Float64()
				switch {
				case p < 0.57: // a: top-left
				case p < 0.76: // b: top-right
					v |= 1 << b
				case p < 0.95: // c: bottom-left
					u |= 1 << b
				default: // d: bottom-right
					u |= 1 << b
					v |= 1 << b
				}
			}
			if u < n && v < n {
				addEdge(u, v)
			}
		}
	case "twitter":
		// Power-law degrees on both sides: sources and targets drawn
		// from independent Zipf distributions, like the follower graph.
		zSrc := sim.NewZipf(r, uint64(n), 0.6)
		zDst := sim.NewZipf(r.Fork(), uint64(n), 0.8)
		for i := 0; i < m; i++ {
			// Scatter the hot ranks across the id space so hubs are not
			// all low ids.
			u := uint32((zSrc.Next() * 0x9e3779b9) % uint64(n))
			v := uint32((zDst.Next() * 0x85ebca6b) % uint64(n))
			addEdge(u, v)
		}
	case "web":
		// Power-law plus host locality: most links stay near the source.
		z := sim.NewZipf(r, uint64(n), 0.7)
		for i := 0; i < m; i++ {
			u := uint32(r.Uint64n(uint64(n)))
			var v uint32
			if r.Bool(0.7) {
				// Local link within a 4K-node "site".
				base := u &^ 4095
				v = base + uint32(r.Uint64n(4096))
				if v >= n {
					v = n - 1
				}
			} else {
				v = uint32(z.Next())
			}
			addEdge(u, v)
		}
	case "road":
		// Grid-like: ~4 neighbours with adjacent ids.
		side := uint32(1)
		for side*side < n {
			side++
		}
		for u := uint32(0); u < n; u++ {
			x, y := u%side, u/side
			if x+1 < side && u+1 < n {
				addEdge(u, u+1)
				addEdge(u+1, u)
			}
			if y+1 < side && u+side < n {
				addEdge(u, u+side)
				addEdge(u+side, u)
			}
		}
	default:
		panic("graph: unknown generator " + name)
	}

	g := &Graph{Name: name, N: n}
	g.Offsets = make([]uint32, n+1)
	total := 0
	for u := uint32(0); u < n; u++ {
		sort.Slice(targets[u], func(i, j int) bool { return targets[u][i] < targets[u][j] })
		total += len(targets[u])
	}
	g.Edges = make([]uint32, 0, total)
	for u := uint32(0); u < n; u++ {
		g.Offsets[u] = uint32(len(g.Edges))
		g.Edges = append(g.Edges, targets[u]...)
		targets[u] = nil
	}
	g.Offsets[n] = uint32(len(g.Edges))

	g.arena = vm.New(2 << 30)
	g.offsetsObj = g.arena.Alloc("offsets", uint64(n+1)*4)
	g.edgesObj = g.arena.Alloc("edges", uint64(len(g.Edges))*4)
	return g
}

// Graphs are expensive to build, so instances are cached per name for
// the life of the process. Addresses are deterministic, so sharing
// across runs is safe. A build holds hundreds of MB of scratch, so
// graphs build one at a time; a built graph is returned without
// waiting for another's build.
var (
	graphs  appcache.Cache[string, *Graph]
	buildMu sync.Mutex
)

// Get returns the cached default-scale instance of the named graph.
func Get(name string) *Graph {
	return graphs.Get(name, func() *Graph {
		buildMu.Lock()
		defer buildMu.Unlock()
		return Build(name, DefaultNodes, DefaultDegree, 0x6a09e667f3bcc908)
	})
}

// loadOffsets reads offsets[u] and offsets[u+1] through the machine.
func (g *Graph) loadOffsets(m *core.Machine, u uint32) (uint32, uint32) {
	m.Load(g.offsetAddr(u), false)
	// offsets[u+1] is usually the same line; the cache model makes the
	// second load nearly free when it is.
	m.Load(g.offsetAddr(u+1), false)
	return g.Offsets[u], g.Offsets[u+1]
}
