package cache

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// batchCase is one randomized access stream replayed three ways: through
// AccessBatch on one cache, AccessBatchHits on a second and a scalar
// Access loop on a third, identically configured cache. They must agree
// on every AccessResult (including eviction info; hit bits only for
// AccessBatchHits) and on the final Stats.
type batchCase struct {
	addrs  []mem.Addr
	writes []bool
	nows   []uint64
}

// genCase builds a stream that exercises the eviction edge cases: a small
// address footprint (high conflict rate), mixed loads/stores, and a
// non-monotonic external clock (now occasionally jumps back, covering the
// DeadTime clamp). With runLen > 0, a quarter of the accesses start a run
// of up to runLen accesses inside the previous access's block, the shape
// AccessBatchHits's same-block path serves.
func genCase(rng *rand.Rand, n int, footprint, runLen int) batchCase {
	bc := batchCase{
		addrs:  make([]mem.Addr, n),
		writes: make([]bool, n),
		nows:   make([]uint64, n),
	}
	now := uint64(1000)
	run := 0
	for i := 0; i < n; i++ {
		if run == 0 && runLen > 0 && i > 0 && rng.Intn(4) == 0 {
			run = 1 + rng.Intn(runLen)
		}
		if run > 0 {
			run--
			bc.addrs[i] = bc.addrs[i-1]&^63 | mem.Addr(rng.Intn(64))
		} else {
			bc.addrs[i] = mem.Addr(rng.Intn(footprint))
		}
		bc.writes[i] = rng.Intn(3) == 0
		if rng.Intn(16) == 0 {
			now -= uint64(rng.Intn(50)) // clock skew: DeadTime clamp path
		} else {
			now += uint64(rng.Intn(20))
		}
		bc.nows[i] = now
	}
	return bc
}

// interleaveOps applies the same prefetch-insert / invalidate sequence to
// every cache between batches, so the equivalence also covers streams
// where demand accesses displace prefetched lines and fill freshly
// invalidated ways. The inserts often target the block the batch ended
// on, so the next batch's same-block path starts after a fill.
func interleaveOps(rng *rand.Rand, footprint int, last mem.Addr, now uint64, caches ...*Cache) {
	for k := rng.Intn(4); k > 0; k-- {
		addr := mem.Addr(rng.Intn(footprint))
		if rng.Intn(2) == 0 {
			addr = last ^ 64
		}
		victim := mem.Addr(rng.Intn(footprint))
		op := rng.Intn(3)
		for _, c := range caches {
			switch op {
			case 0:
				c.InsertPrefetch(addr, victim, true, now)
			case 1:
				c.InsertPrefetch(addr, 0, false, now)
			default:
				c.Invalidate(addr, now)
			}
		}
	}
}

func checkEquivalence(t *testing.T, cfg Config, bc batchCase, seed int64) {
	t.Helper()
	batched := MustNew(cfg)
	hitsOnly := MustNew(cfg)
	scalar := MustNew(cfg)
	rng := rand.New(rand.NewSource(seed))
	got := make([]AccessResult, len(bc.addrs))
	gotHits := make([]bool, len(bc.addrs))
	want := make([]AccessResult, len(bc.addrs))
	for pos := 0; pos < len(bc.addrs); {
		n := 1 + rng.Intn(97) // ragged batch boundaries
		if pos+n > len(bc.addrs) {
			n = len(bc.addrs) - pos
		}
		batched.AccessBatch(bc.addrs[pos:pos+n], bc.writes[pos:pos+n], bc.nows[pos:pos+n], got[pos:pos+n])
		hitsOnly.AccessBatchHits(bc.addrs[pos:pos+n], bc.writes[pos:pos+n], bc.nows[pos:pos+n], gotHits[pos:pos+n])
		for i := pos; i < pos+n; i++ {
			want[i] = scalar.Access(bc.addrs[i], bc.writes[i], bc.nows[i])
		}
		pos += n
		interleaveOps(rng, 1<<12, bc.addrs[pos-1], bc.nows[pos-1], batched, hitsOnly, scalar)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("cfg %+v: access %d (%#x): batch %+v, scalar %+v", cfg, i, bc.addrs[i], got[i], want[i])
		}
		if gotHits[i] != want[i].Hit {
			t.Fatalf("cfg %+v: access %d (%#x): hits-only batch hit=%v, scalar %+v", cfg, i, bc.addrs[i], gotHits[i], want[i])
		}
	}
	ss := scalar.Stats()
	if bs := batched.Stats(); bs != ss {
		t.Fatalf("cfg %+v: stats diverge: batch %+v, scalar %+v", cfg, bs, ss)
	}
	if hs := hitsOnly.Stats(); hs != ss {
		t.Fatalf("cfg %+v: stats diverge: hits-only batch %+v, scalar %+v", cfg, hs, ss)
	}
	sv := scalar.ValidLines()
	if bv, hv := batched.ValidLines(), hitsOnly.ValidLines(); bv != sv || hv != sv {
		t.Fatalf("cfg %+v: valid lines diverge: batch %d, hits-only %d, scalar %d", cfg, bv, hv, sv)
	}
	// Same final state way for way: replaying a probe stream must agree.
	for a := mem.Addr(0); a < 1<<12; a += 64 {
		if b, h, s := batched.ProbePrefetched(a), hitsOnly.ProbePrefetched(a), scalar.ProbePrefetched(a); b != s || h != s {
			t.Fatalf("cfg %+v: block %#x prefetched flag: batch %v, hits-only %v, scalar %v", cfg, a, b, h, s)
		}
	}
}

// TestAccessBatchScalarEquivalence pins the batch contract: AccessBatch
// and AccessBatchHits must produce the exact AccessResult sequence (hit
// bits for AccessBatchHits) and Stats of a scalar Access loop over the
// same stream, for every policy and associativity, including streams
// with long same-block runs and runs with prefetch inserts and
// invalidations interleaved at batch boundaries.
func TestAccessBatchScalarEquivalence(t *testing.T) {
	configs := []Config{
		{Name: "dm", Size: 1024, BlockSize: 64, Assoc: 1},
		{Name: "2w", Size: 2048, BlockSize: 64, Assoc: 2},
		{Name: "4w-fifo", Size: 4096, BlockSize: 64, Assoc: 4, Policy: FIFO},
		{Name: "2w-rand", Size: 2048, BlockSize: 64, Assoc: 2, Policy: Random},
		{Name: "8w", Size: 64 * mem.KiB, BlockSize: 64, Assoc: 8},
	}
	for _, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			checkEquivalence(t, cfg, genCase(rng, 4000, 1<<12, 0), seed+100)
			checkEquivalence(t, cfg, genCase(rng, 4000, 1<<12, 48), seed+200)
		}
	}
}

// TestPairAccessBatchEquivalence pins the paired double lookup against the
// scalar interleaving outC[i] = c.Access(...); outPeer[i] = peer.Access(...).
func TestPairAccessBatchEquivalence(t *testing.T) {
	cfg := Config{Name: "pair", Size: 2048, BlockSize: 64, Assoc: 2}
	rng := rand.New(rand.NewSource(11))
	bc := genCase(rng, 3000, 1<<12, 0)

	pa, pb := MustNew(cfg), MustNew(cfg)
	sa, sb := MustNew(cfg), MustNew(cfg)
	gotA := make([]AccessResult, len(bc.addrs))
	gotB := make([]AccessResult, len(bc.addrs))
	pa.PairAccessBatch(pb, bc.addrs, bc.writes, bc.nows, gotA, gotB)
	for i := range bc.addrs {
		wantA := sa.Access(bc.addrs[i], bc.writes[i], bc.nows[i])
		wantB := sb.Access(bc.addrs[i], bc.writes[i], bc.nows[i])
		if gotA[i] != wantA || gotB[i] != wantB {
			t.Fatalf("access %d: pair (%+v, %+v), scalar (%+v, %+v)", i, gotA[i], gotB[i], wantA, wantB)
		}
	}
	if pa.Stats() != sa.Stats() || pb.Stats() != sb.Stats() {
		t.Fatalf("paired stats diverge: (%+v, %+v) vs (%+v, %+v)", pa.Stats(), pb.Stats(), sa.Stats(), sb.Stats())
	}
}

func TestPairAccessBatchGeometryMismatchPanics(t *testing.T) {
	a := MustNew(Config{Name: "a", Size: 1024, BlockSize: 64, Assoc: 1})
	b := MustNew(Config{Name: "b", Size: 2048, BlockSize: 64, Assoc: 1})
	defer func() {
		if recover() == nil {
			t.Error("geometry mismatch must panic")
		}
	}()
	a.PairAccessBatch(b, []mem.Addr{0}, []bool{false}, []uint64{0}, make([]AccessResult, 1), make([]AccessResult, 1))
}

// TestColdFillStats pins the eviction accounting on cold fills: filling an
// empty cache to capacity displaces nothing, so Evictions (and its dirty /
// prefetch-unused breakdowns) must stay zero and every result must carry a
// zero EvictInfo. The first conflicting access then counts exactly one
// eviction.
func TestColdFillStats(t *testing.T) {
	cfg := Config{Name: "cold", Size: 2048, BlockSize: 64, Assoc: 2}
	c := MustNew(cfg)
	lines := cfg.Size / cfg.BlockSize
	for i := 0; i < lines; i++ {
		r := c.Access(mem.Addr(i*cfg.BlockSize), i%2 == 0, uint64(i))
		if r.Hit {
			t.Fatalf("cold access %d hit", i)
		}
		if r.Evicted != (EvictInfo{}) {
			t.Fatalf("cold fill %d reported an eviction: %+v", i, r.Evicted)
		}
	}
	st := c.Stats()
	want := Stats{Accesses: uint64(lines), Misses: uint64(lines),
		ReadMisses: uint64(lines / 2), WriteMisses: uint64(lines - lines/2)}
	if st != want {
		t.Fatalf("cold-fill stats = %+v, want %+v (Evictions must be 0)", st, want)
	}
	if c.ValidLines() != lines {
		t.Fatalf("valid lines = %d, want %d", c.ValidLines(), lines)
	}
	// One more distinct block: a genuine eviction, counted once.
	r := c.Access(mem.Addr(lines*cfg.BlockSize), false, uint64(lines))
	if !r.Evicted.Valid {
		t.Fatal("capacity conflict must evict")
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("Evictions = %d after first conflict, want 1", got)
	}
}

// FuzzAccessBatchEquivalence drives arbitrary byte strings as access
// streams through the batch, hits-only batch and scalar paths. Each byte
// is an access to byte<<4, so four consecutive values share a block and
// repeated values make same-block runs. A byte ≥ 0xF0 ends the current
// batch and prefetch-inserts the next byte's block into every cache
// (over a victim when the low bit is set) before the next batch starts.
func FuzzAccessBatchEquivalence(f *testing.F) {
	f.Add([]byte{0x01, 0x80, 0x40, 0xFF, 0x00, 0x80}, uint8(1))
	f.Add([]byte{0xAA, 0xBB, 0xAA, 0xBB, 0xCC}, uint8(2))
	f.Add([]byte{0x10, 0x11, 0x12, 0x13, 0x10, 0x11, 0xF1, 0x50, 0x50, 0x51, 0x52, 0xF2, 0x50, 0x50, 0x90, 0x90, 0x91, 0x10}, uint8(5))
	f.Add([]byte{0x20, 0x21, 0x22, 0x60, 0x61, 0xA0, 0xA1, 0xF3, 0x20, 0x20, 0x21, 0xE0, 0xE1, 0x60, 0x22, 0x22}, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		assoc := 1 << (sel % 3) // 1, 2, 4
		cfg := Config{Name: "fuzz", Size: 64 * 8 * assoc, BlockSize: 64, Assoc: assoc,
			Policy: PolicyKind(sel / 3 % 3)}
		batched, hitsOnly, scalar := MustNew(cfg), MustNew(cfg), MustNew(cfg)
		var addrs []mem.Addr
		var writes []bool
		var nows []uint64
		flush := func() {
			got := make([]AccessResult, len(addrs))
			gotHits := make([]bool, len(addrs))
			batched.AccessBatch(addrs, writes, nows, got)
			hitsOnly.AccessBatchHits(addrs, writes, nows, gotHits)
			for i := range addrs {
				want := scalar.Access(addrs[i], writes[i], nows[i])
				if got[i] != want || gotHits[i] != want.Hit {
					t.Fatalf("access %#x: batch %+v, hits-only hit=%v, scalar %+v", addrs[i], got[i], gotHits[i], want)
				}
			}
			addrs, writes, nows = addrs[:0], writes[:0], nows[:0]
		}
		for i := 0; i < len(data); i++ {
			bb := data[i]
			now := uint64(i * int(bb%5))
			if bb >= 0xF0 && i+1 < len(data) {
				flush()
				i++
				a := mem.Addr(data[i]) << 4
				for _, c := range []*Cache{batched, hitsOnly, scalar} {
					c.InsertPrefetch(a, a^0x200, bb&1 != 0, now)
				}
				continue
			}
			addrs = append(addrs, mem.Addr(bb)<<4) // span several sets and tags
			writes = append(writes, bb&1 != 0)
			nows = append(nows, now)
		}
		flush()
		ss := scalar.Stats()
		if batched.Stats() != ss || hitsOnly.Stats() != ss {
			t.Fatalf("stats diverge: batch %+v, hits-only %+v, scalar %+v", batched.Stats(), hitsOnly.Stats(), ss)
		}
	})
}
