// Package ghb implements the Global History Buffer prefetcher in its
// PC/DC (program-counter localized, delta-correlating) variant, after
// Nesbit & Smith (HPCA 2004) — the strongest conventional prefetcher the
// paper compares against ("GHB PC/DC, subsumes stride prefetching";
// Table 1: 4-deep, 256-entry index table, 256-entry GHB).
//
// The GHB observes the L1D miss stream. For each miss, the miss address is
// pushed into a circular global history buffer and linked to the previous
// miss of the same PC. Prediction walks the PC's chain to form the delta
// stream, finds the most recent earlier occurrence of the current delta
// pair, and replays the deltas that followed it, issuing up to Depth
// prefetches.
package ghb

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params configures the GHB.
type Params struct {
	// IndexEntries is the size of the PC-indexed table (direct mapped).
	IndexEntries int
	// BufferEntries is the size of the circular global history buffer
	// (a power of two).
	BufferEntries int
	// Depth is the prefetch degree (deltas replayed per prediction).
	Depth int
	// MaxChain bounds the per-miss chain walk (hardware walks a small,
	// fixed number of linked entries per miss).
	MaxChain int
}

// DefaultParams returns the paper's Table 1 configuration.
func DefaultParams() Params {
	return Params{IndexEntries: 256, BufferEntries: 256, Depth: 4, MaxChain: 64}
}

type itEntry struct {
	pc  mem.Addr
	ptr uint64 // absolute GHB position + 1; 0 means empty
}

type ghbEntry struct {
	addr mem.Addr // miss block address
	prev uint64   // absolute position + 1 of previous miss by the same PC
}

// Stats counts GHB events.
type Stats struct {
	Misses      uint64 // observed training misses
	Walks       uint64 // delta-correlation attempts
	PairMatches uint64 // delta pairs found in history
	Prefetches  uint64 // issued prefetch addresses
}

// Predictor is a GHB PC/DC prefetcher; it implements sim.Prefetcher.
// Prefetched blocks are placed with the cache's replacement policy (no
// dead-block targeting), so aggressive fetching can pollute — the behaviour
// the paper observes for twolf.
type Predictor struct {
	p     Params
	geo   mem.Geometry
	it    []itEntry
	buf   []ghbEntry
	mask  uint64 // len(buf) - 1
	head  uint64 // absolute count of pushes
	stats Stats

	deltas []int64 // chain-walk scratch, reused across calls
}

var _ sim.Prefetcher = (*Predictor)(nil)

// New builds a GHB prefetcher attached to an L1D with the given
// configuration.
func New(l1 cache.Config, p Params) (*Predictor, error) {
	if _, ok := mem.Log2(p.IndexEntries); !ok {
		return nil, fmt.Errorf("ghb: IndexEntries %d not a power of two", p.IndexEntries)
	}
	if p.BufferEntries < 4 {
		return nil, fmt.Errorf("ghb: BufferEntries %d too small", p.BufferEntries)
	}
	if _, ok := mem.Log2(p.BufferEntries); !ok {
		return nil, fmt.Errorf("ghb: BufferEntries %d not a power of two", p.BufferEntries)
	}
	if p.Depth < 1 {
		return nil, fmt.Errorf("ghb: Depth must be positive")
	}
	if p.MaxChain < 4 {
		p.MaxChain = 4
	}
	if err := l1.Validate(); err != nil {
		return nil, err
	}
	geo, err := mem.NewGeometry(l1.BlockSize, l1.Sets())
	if err != nil {
		return nil, err
	}
	return &Predictor{
		p:    p,
		geo:  geo,
		it:   make([]itEntry, p.IndexEntries),
		buf:  make([]ghbEntry, p.BufferEntries),
		mask: uint64(p.BufferEntries - 1),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(l1 cache.Config, p Params) *Predictor {
	pr, err := New(l1, p)
	if err != nil {
		panic(err)
	}
	return pr
}

// Name implements sim.Prefetcher.
func (pr *Predictor) Name() string { return "ghb-pc/dc" }

// Stats returns a copy of the event counters.
func (pr *Predictor) Stats() Stats { return pr.stats }

// live reports whether absolute position p (1-based ptr) is still within
// the circular buffer.
func (pr *Predictor) live(ptr uint64) bool {
	if ptr == 0 || ptr > pr.head {
		return false
	}
	return pr.head-ptr < uint64(len(pr.buf))
}

func (pr *Predictor) at(ptr uint64) *ghbEntry {
	return &pr.buf[(ptr-1)&pr.mask]
}

// OnAccess implements sim.Prefetcher: GHB trains on misses only.
// Predictions are appended to the driver-owned preds buffer.
func (pr *Predictor) OnAccess(ref trace.Ref, hit bool, evicted *cache.EvictInfo, preds []sim.Prediction) []sim.Prediction {
	if hit {
		return preds
	}
	pr.stats.Misses++
	block := pr.geo.BlockAddr(ref.Addr)
	slot := int(uint64(ref.PC>>2) & uint64(pr.p.IndexEntries-1))
	ite := &pr.it[slot]
	var prev uint64
	if ite.pc == ref.PC && pr.live(ite.ptr) {
		prev = ite.ptr
	}
	pr.head++
	*pr.at(pr.head) = ghbEntry{addr: block, prev: prev}
	ite.pc = ref.PC
	ite.ptr = pr.head

	return pr.predict(block, preds)
}

// predict walks the current PC's miss chain and applies delta correlation,
// appending replayed prefetch addresses to preds.
func (pr *Predictor) predict(cur mem.Addr, preds []sim.Prediction) []sim.Prediction {
	pr.stats.Walks++
	// Walk the PC's chain of at most MaxChain miss addresses, newest
	// first, building deltas[i] = addr[i] - addr[i+1] (deltas[0] is the
	// newest delta) as it goes. The walk stops at the most recent earlier
	// occurrence of the pair (d1, d0): the smallest j ≥ 2 with deltas[j]
	// == deltas[0] and deltas[j+1] == deltas[1], checked as soon as
	// deltas[j+1] exists.
	deltas := pr.deltas[:0]
	e := pr.at(pr.head)
	match := -1
	for n := 1; n < pr.p.MaxChain && pr.live(e.prev); n++ {
		next := pr.at(e.prev)
		deltas = append(deltas, int64(e.addr)-int64(next.addr))
		e = next
		if j := len(deltas) - 2; j >= 2 && deltas[j] == deltas[0] && deltas[j+1] == deltas[1] {
			match = j
			break
		}
	}
	pr.deltas = deltas
	if match < 0 {
		return preds
	}
	pr.stats.PairMatches++
	// Replay the deltas that followed the match (they sit at smaller
	// indices, i.e. closer to the present of that occurrence). If the
	// window is shorter than the prefetch depth — e.g. a constant stride
	// matches two positions back — cycle through it, which extrapolates
	// the recurring pattern.
	next := cur
	k := match - 1
	for issued := 0; issued < pr.p.Depth; issued++ {
		next = mem.Addr(int64(next) + deltas[k])
		// GHB fetches into the L2: without last-touch knowledge, placing
		// speculative blocks in the small L1D would pollute it.
		preds = append(preds, sim.Prediction{Addr: next, ToL2: true})
		pr.stats.Prefetches++
		k--
		if k < 0 {
			k = match - 1
		}
	}
	return preds
}
