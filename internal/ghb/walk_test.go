package ghb

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fullWalk is an independent reference GHB: it gathers the whole chain
// (up to MaxChain addresses) with modulo ring indexing, builds every
// delta, and only then searches for the earlier (d1, d0) pair. The
// Predictor's masked, early-exit walk must issue exactly its
// predictions and count exactly its Stats.
type fullWalk struct {
	p     Params
	geo   mem.Geometry
	it    []itEntry
	buf   []ghbEntry
	head  uint64
	stats Stats
}

func newFullWalk(t testing.TB, p Params) *fullWalk {
	t.Helper()
	l1 := sim.PaperL1D()
	geo, err := mem.NewGeometry(l1.BlockSize, l1.Sets())
	if err != nil {
		t.Fatal(err)
	}
	if p.MaxChain < 4 {
		p.MaxChain = 4
	}
	return &fullWalk{p: p, geo: geo, it: make([]itEntry, p.IndexEntries), buf: make([]ghbEntry, p.BufferEntries)}
}

func (f *fullWalk) live(ptr uint64) bool {
	return ptr != 0 && ptr <= f.head && f.head-ptr < uint64(len(f.buf))
}

func (f *fullWalk) at(ptr uint64) *ghbEntry { return &f.buf[(ptr-1)%uint64(len(f.buf))] }

func (f *fullWalk) onAccess(ref trace.Ref, hit bool) []sim.Prediction {
	if hit {
		return nil
	}
	f.stats.Misses++
	block := f.geo.BlockAddr(ref.Addr)
	ite := &f.it[int(uint64(ref.PC>>2)&uint64(f.p.IndexEntries-1))]
	var prev uint64
	if ite.pc == ref.PC && f.live(ite.ptr) {
		prev = ite.ptr
	}
	f.head++
	*f.at(f.head) = ghbEntry{addr: block, prev: prev}
	ite.pc, ite.ptr = ref.PC, f.head

	f.stats.Walks++
	var addrs []mem.Addr
	for ptr := f.head; len(addrs) < f.p.MaxChain && f.live(ptr); ptr = f.at(ptr).prev {
		addrs = append(addrs, f.at(ptr).addr)
	}
	if len(addrs) < 4 {
		return nil
	}
	var deltas []int64
	for i := 0; i+1 < len(addrs); i++ {
		deltas = append(deltas, int64(addrs[i])-int64(addrs[i+1]))
	}
	match := -1
	for j := 2; j+1 < len(deltas); j++ {
		if deltas[j] == deltas[0] && deltas[j+1] == deltas[1] {
			match = j
			break
		}
	}
	if match < 0 {
		return nil
	}
	f.stats.PairMatches++
	var preds []sim.Prediction
	next, k := block, match-1
	for issued := 0; issued < f.p.Depth; issued++ {
		next = mem.Addr(int64(next) + deltas[k])
		preds = append(preds, sim.Prediction{Addr: next, ToL2: true})
		f.stats.Prefetches++
		if k--; k < 0 {
			k = match - 1
		}
	}
	return preds
}

// missStream draws a training stream from rng: a few PCs (some aliasing
// in a small index table), each replaying a stride, a short repeating
// delta pattern or random jumps, with occasional hits that must not
// train. Long runs on one PC make chains longer than MaxChain; more
// misses than BufferEntries wrap the ring.
func missStream(rng *rand.Rand, n int) ([]trace.Ref, []bool) {
	npc := 1 + rng.Intn(6)
	pcs := make([]mem.Addr, npc)
	addr := make([]int64, npc)
	pattern := make([][]int64, npc)
	for i := range pcs {
		pcs[i] = mem.Addr(0x400 + 4*rng.Intn(64))
		addr[i] = int64(0x100000 + rng.Intn(1<<20))
		switch rng.Intn(3) {
		case 0: // constant stride
			pattern[i] = []int64{int64(64 * (1 + rng.Intn(4)))}
		case 1: // recurring delta pattern
			for k := 2 + rng.Intn(5); k > 0; k-- {
				pattern[i] = append(pattern[i], int64(64*(rng.Intn(9)-4)))
			}
		}
	}
	refs := make([]trace.Ref, n)
	hits := make([]bool, n)
	pc, step := 0, 0
	for i := range refs {
		if rng.Intn(8) == 0 {
			pc = rng.Intn(npc)
		}
		if p := pattern[pc]; p != nil && rng.Intn(32) != 0 {
			addr[pc] += p[step%len(p)]
		} else {
			addr[pc] += int64(64 * (rng.Intn(2048) - 1024))
		}
		step++
		refs[i] = trace.Ref{PC: pcs[pc], Addr: mem.Addr(addr[pc])}
		hits[i] = rng.Intn(10) == 0
	}
	return refs, hits
}

func checkWalkEquivalence(t *testing.T, p Params, refs []trace.Ref, hits []bool) Stats {
	t.Helper()
	pr := MustNew(sim.PaperL1D(), p)
	ref := newFullWalk(t, p)
	var got []sim.Prediction
	for i, r := range refs {
		got = pr.OnAccess(r, hits[i], nil, got[:0])
		if want := ref.onAccess(r, hits[i]); !slices.Equal(got, want) {
			t.Fatalf("params %+v, access %d (pc %#x addr %#x): predictions %v, full walk %v", p, i, r.PC, r.Addr, got, want)
		}
	}
	if pr.Stats() != ref.stats {
		t.Fatalf("params %+v: stats %+v, full walk %+v", p, pr.Stats(), ref.stats)
	}
	return ref.stats
}

// TestPredictMatchesFullWalk pins the early-exit walk against the full
// walk over random miss streams and geometries, including chains longer
// than MaxChain and many ring wraps.
func TestPredictMatchesFullWalk(t *testing.T) {
	var total Stats
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Params{
			IndexEntries:  1 << rng.Intn(9),
			BufferEntries: 4 << rng.Intn(7),
			Depth:         1 + rng.Intn(6),
			MaxChain:      rng.Intn(80),
		}
		refs, hits := missStream(rng, 2000)
		st := checkWalkEquivalence(t, p, refs, hits)
		total.Walks += st.Walks
		total.PairMatches += st.PairMatches
	}
	refs, hits := missStream(rand.New(rand.NewSource(1)), 20000)
	checkWalkEquivalence(t, DefaultParams(), refs, hits)
	// The streams must exercise both outcomes of the pair search.
	if total.PairMatches == 0 || total.PairMatches == total.Walks {
		t.Fatalf("degenerate streams: %d pair matches in %d walks", total.PairMatches, total.Walks)
	}
	t.Logf("%d pair matches in %d walks", total.PairMatches, total.Walks)
}

// FuzzPredictMatchesFullWalk drives fuzzed stream seeds and geometries
// through both walks.
func FuzzPredictMatchesFullWalk(f *testing.F) {
	f.Add(int64(1), uint8(0x35), uint16(500))
	f.Add(int64(7), uint8(0xF2), uint16(3000))
	f.Fuzz(func(t *testing.T, seed int64, geo uint8, n uint16) {
		p := Params{
			IndexEntries:  1 << (geo & 7),
			BufferEntries: 4 << (geo >> 3 & 7),
			Depth:         1 + int(geo>>6),
			MaxChain:      int(geo % 70),
		}
		refs, hits := missStream(rand.New(rand.NewSource(seed)), int(n%4096))
		checkWalkEquivalence(t, p, refs, hits)
	})
}
