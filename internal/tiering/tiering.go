// Package tiering implements a page-granularity memory-tiering
// simulator over a fast (local DRAM) and a slow (CXL) device — the
// paper's §5.7 direction: "By directly measuring performance losses
// through stall cycles, Spa enables smarter tiering policy designs".
//
// The TieredDevice wraps both tiers behind one mem.Device. Pages start
// in the slow tier (capacity-driven placement); every epoch the policy
// ranks pages and migrates the most valuable into the limited fast
// tier, paying migration bandwidth.
//
// Two promotion policies are provided:
//
//   - PolicyAccessCount ranks pages by access frequency — the
//     conventional LLC-miss/PMU-sampling approach the paper critiques.
//   - PolicySpa ranks pages by accumulated *device latency* — the
//     tiering analog of Spa's stall-cycle metric: a page whose accesses
//     stall the CPU longest is worth the most to promote, even when a
//     frequently-touched page is cheap (e.g. prefetched or overlapped).
package tiering

import (
	"sort"

	"github.com/moatlab/melody/internal/mem"
)

const pageBytes = 4096

// Policy selects how pages are ranked for promotion.
type Policy uint8

const (
	// PolicyAccessCount promotes the most-accessed pages.
	PolicyAccessCount Policy = iota
	// PolicySpa promotes the pages with the largest accumulated
	// device-latency contribution (the Spa-style stall metric).
	PolicySpa
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	if p == PolicySpa {
		return "spa"
	}
	return "access-count"
}

// Config parameterizes the tiered device.
type Config struct {
	// FastPages is the fast-tier capacity in 4 KiB pages.
	FastPages int
	// EpochAccesses is the migration-decision interval.
	EpochAccesses uint64
	// MigrateBatch bounds pages moved per epoch (migration costs
	// bandwidth; moving everything at once would stall the system).
	MigrateBatch int
	// MigrationCostNs is charged to the device timeline per migrated
	// page (64 line transfers at slow-tier bandwidth, amortized).
	MigrationCostNs float64
	Policy          Policy
}

// DefaultConfig returns a sensible tiering setup.
func DefaultConfig() Config {
	return Config{
		FastPages:       4096, // 16 MiB fast tier
		EpochAccesses:   20_000,
		MigrateBatch:    512,
		MigrationCostNs: 400,
		Policy:          PolicySpa,
	}
}

type pageStat struct {
	page    uint64
	count   uint64
	stallNs float64
	inFast  bool
}

// TieredDevice routes accesses to the fast or slow tier by page
// placement and migrates pages per epoch. Not safe for concurrent use.
type TieredDevice struct {
	cfg  Config
	fast mem.Device
	slow mem.Device

	pages map[uint64]*pageStat
	nFast int

	sinceEpoch uint64
	epochs     uint64
	migrations uint64

	// busyUntil serializes migration cost into the access timeline.
	migrateBusyUntil float64
}

var _ mem.Device = (*TieredDevice)(nil)

// New builds a tiered device over fast and slow tiers.
func New(fast, slow mem.Device, cfg Config) *TieredDevice {
	if cfg.FastPages <= 0 || cfg.EpochAccesses == 0 {
		panic("tiering: invalid config")
	}
	return &TieredDevice{cfg: cfg, fast: fast, slow: slow, pages: map[uint64]*pageStat{}}
}

// Name implements mem.Device.
func (t *TieredDevice) Name() string { return "Tiered(" + t.cfg.Policy.String() + ")" }

// Reset implements mem.Device.
func (t *TieredDevice) Reset() {
	t.fast.Reset()
	t.slow.Reset()
	t.pages = map[uint64]*pageStat{}
	t.nFast = 0
	t.sinceEpoch, t.epochs, t.migrations = 0, 0, 0
	t.migrateBusyUntil = 0
}

// Stats implements mem.Device (slow-tier stats; tier details via
// methods).
func (t *TieredDevice) Stats() mem.DeviceStats { return t.slow.Stats() }

// Epochs and Migrations expose tiering activity.
func (t *TieredDevice) Epochs() uint64     { return t.epochs }
func (t *TieredDevice) Migrations() uint64 { return t.migrations }

// FastResidentPages returns the current fast-tier population.
func (t *TieredDevice) FastResidentPages() int { return t.nFast }

// Access implements mem.Device.
func (t *TieredDevice) Access(now float64, addr uint64, kind mem.Kind) float64 {
	if t.migrateBusyUntil > now {
		now = t.migrateBusyUntil
	}
	page := addr / pageBytes
	ps := t.pages[page]
	if ps == nil {
		ps = &pageStat{page: page}
		t.pages[page] = ps
	}
	var done float64
	if ps.inFast {
		done = t.fast.Access(now, addr, kind)
	} else {
		done = t.slow.Access(now, addr, kind)
	}
	ps.count++
	if kind == mem.DemandRead {
		// Only demand latency stalls the CPU — prefetches and posted
		// writes are off the critical path. This asymmetry is exactly
		// what the Spa policy exploits and access counting misses.
		ps.stallNs += done - now
	}

	t.sinceEpoch++
	if t.sinceEpoch >= t.cfg.EpochAccesses {
		t.rebalance(done)
		t.sinceEpoch = 0
	}
	return done
}

// score is a page's promotion value under the configured policy.
func (t *TieredDevice) score(ps *pageStat) float64 {
	if t.cfg.Policy == PolicySpa {
		return ps.stallNs
	}
	return float64(ps.count)
}

// rank orders the tracked pages by descending score, ties by ascending
// page number, so the order never depends on map iteration.
func (t *TieredDevice) rank() []*pageStat {
	ranked := make([]*pageStat, 0, len(t.pages))
	for _, ps := range t.pages {
		ranked = append(ranked, ps)
	}
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := t.score(ranked[i]), t.score(ranked[j])
		if si != sj {
			return si > sj
		}
		return ranked[i].page < ranked[j].page
	})
	return ranked
}

// rebalance promotes the top-ranked pages into the fast tier (demoting
// as needed) and decays history so the policy tracks phase changes.
func (t *TieredDevice) rebalance(now float64) {
	t.epochs++
	ranked := t.rank()

	// Desired fast set: the top FastPages by score.
	want := map[uint64]bool{}
	for i := 0; i < len(ranked) && i < t.cfg.FastPages; i++ {
		if t.score(ranked[i]) > 0 {
			want[ranked[i].page] = true
		}
	}

	// Demote first (frees capacity), then promote, bounded per epoch.
	moved := 0
	for _, ps := range ranked {
		if ps.inFast && !want[ps.page] && moved < t.cfg.MigrateBatch {
			ps.inFast = false
			t.nFast--
			moved++
		}
	}
	for _, ps := range ranked {
		if moved >= t.cfg.MigrateBatch || t.nFast >= t.cfg.FastPages {
			break
		}
		if !ps.inFast && want[ps.page] {
			ps.inFast = true
			t.nFast++
			moved++
		}
	}
	t.migrations += uint64(moved)
	t.migrateBusyUntil = now + float64(moved)*t.cfg.MigrationCostNs

	// Exponential decay keeps rankings responsive to phases.
	for _, ps := range ranked {
		ps.count /= 2
		ps.stallNs /= 2
	}
}
