// Package cache models set-associative caches with pluggable replacement,
// write-back/write-allocate semantics, and the hooks the predictors need:
// detailed eviction information (who was evicted, how dirty, how long dead)
// and prefetch insertion with an explicit victim, which is how LT-cords and
// DBCP place a prefetched block over the block they predict dead.
//
// The tag store is laid out structure-of-arrays (parallel tag / packed-flag
// / stamp arrays, see DESIGN.md §9): the lookup loop touches only the tag
// lane, and the batch entry points (AccessBatch, PairAccessBatch) hoist
// set-index/tag extraction into a separate pass over the whole batch so it
// compiles to straight-line shift/mask code. AccessBatch is the primary
// demand-access contract; the scalar Access is a one-element adapter kept
// for tests and genuinely serialized callers (the timing model).
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// PolicyKind selects the replacement policy.
type PolicyKind uint8

const (
	// LRU evicts the least recently used way.
	LRU PolicyKind = iota
	// FIFO evicts the earliest filled way.
	FIFO
	// Random evicts a pseudo-randomly chosen way (deterministic xorshift).
	Random
)

// String names the policy.
func (p PolicyKind) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Config describes one cache level. The defaults in the experiment harness
// follow the paper's Table 1 (L1D: 64KB, 64-byte lines, 2-way, 2-cycle;
// L2: 1MB, 8-way, 20-cycle).
type Config struct {
	// Name labels the cache in stats output (e.g. "L1D").
	Name string
	// Size is the capacity in bytes.
	Size int
	// BlockSize is the line size in bytes.
	BlockSize int
	// Assoc is the associativity (ways per set).
	Assoc int
	// Policy is the replacement policy (default LRU).
	Policy PolicyKind
	// HitLatency is the access latency in cycles, used by the timing model.
	HitLatency int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (c.BlockSize * c.Assoc) }

// Fingerprint renders the configuration into a canonical cache-key form:
// every simulation-affecting field, explicitly enumerated, in a fixed
// order. The persistent result cache (internal/cachedir) addresses
// on-disk entries by these strings, so the encoding is part of the cache
// format: adding a field here is a deliberate schema change (and any
// semantic change that is NOT visible in a field must bump the
// content-address version stamp instead — see DESIGN.md §12). The
// display-only Name is excluded: two caches differing only in label
// simulate identically.
func (c Config) Fingerprint() string {
	return fmt.Sprintf("sz%d,bl%d,as%d,po%d,hl%d", c.Size, c.BlockSize, c.Assoc, c.Policy, c.HitLatency)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Size <= 0 || c.BlockSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, block size and associativity must be positive", c.Name)
	}
	if c.Size%(c.BlockSize*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by block*assoc", c.Name, c.Size)
	}
	if _, ok := mem.Log2(c.BlockSize); !ok {
		return fmt.Errorf("cache %q: block size %d not a power of two", c.Name, c.BlockSize)
	}
	if _, ok := mem.Log2(c.Sets()); !ok {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, c.Sets())
	}
	return nil
}

// Per-way status bits, packed into one byte of the flags lane.
const (
	flagValid uint8 = 1 << iota
	flagDirty
	flagPrefetched // filled by prefetch and not yet demand-touched
)

// EvictInfo describes a line that left the cache.
type EvictInfo struct {
	// Valid reports whether an eviction actually happened (a valid line was
	// displaced). A fill into an invalid way produces Valid == false.
	Valid bool
	// Addr is the block-aligned address of the evicted line.
	Addr mem.Addr
	// Dirty reports whether the line held modified data (write-back needed).
	Dirty bool
	// Prefetched reports that the line was prefetched and never demand
	// touched — a useless prefetch.
	Prefetched bool
	// DeadTime is the externally supplied clock delta between the line's
	// last demand touch and its eviction (the paper's Figure 2 metric).
	DeadTime uint64
	// LastTouch is the external clock of the line's last demand touch.
	LastTouch uint64
}

// AccessResult describes one demand access.
type AccessResult struct {
	// Hit reports whether the block was present.
	Hit bool
	// PrefetchHit reports a hit whose line was brought in by a prefetch and
	// is being demand-touched for the first time (a useful prefetch).
	PrefetchHit bool
	// Evicted is the line displaced by the fill on a miss.
	Evicted EvictInfo
}

// Stats counts cache events.
type Stats struct {
	Accesses        uint64
	Hits            uint64
	Misses          uint64
	ReadMisses      uint64
	WriteMisses     uint64
	Evictions       uint64
	DirtyEvictions  uint64
	PrefetchInserts uint64 // prefetch fills performed
	PrefetchDupes   uint64 // prefetches dropped because the block was present
	PrefetchHits    uint64 // prefetched lines that saw a demand touch
	PrefetchUnused  uint64 // prefetched lines evicted untouched
}

// MissRate returns misses per access, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulators are single-goroutine by design (determinism).
//
// Storage is structure-of-arrays: way (set, w) lives at index set*Assoc+w
// of the parallel tag/flag/stamp lanes. The hit path reads the tag lane
// (8 bytes per way) and the flag lane (1 byte per way) instead of a full
// 48-byte line record, so a 2-way probe stays within one cache line of
// simulator memory per lane.
type Cache struct {
	cfg   Config
	geo   mem.Geometry
	assoc int

	// Parallel per-way lanes, indexed set*assoc+way. The order lane is
	// policy-managed replacement age: under LRU it is refreshed on every
	// touch, under FIFO only at fill, so victim selection is one min-scan
	// either way and the fill path writes one stamp lane instead of two.
	tags    []mem.Addr
	flags   []uint8  // packed flagValid|flagDirty|flagPrefetched
	order   []uint64 // internal monotonic replacement age (LRU/FIFO)
	touches []uint64 // external clock at last demand touch: dead time

	clock    uint64 // internal stamp counter
	rng      uint64 // xorshift state for Random policy
	lruTouch bool   // policy == LRU: hits refresh the order lane
	stats    Stats

	// Batch scratch for the hoisted set-index/tag extraction pass; grown to
	// the largest batch seen and reused (zero steady-state allocation).
	setScratch []int32
	tagScratch []mem.Addr
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy > Random {
		return nil, fmt.Errorf("cache %q: unknown policy %d", cfg.Name, cfg.Policy)
	}
	geo, err := mem.NewGeometry(cfg.BlockSize, cfg.Sets())
	if err != nil {
		return nil, err
	}
	ways := cfg.Sets() * cfg.Assoc
	return &Cache{
		cfg:      cfg,
		geo:      geo,
		assoc:    cfg.Assoc,
		tags:     make([]mem.Addr, ways),
		flags:    make([]uint8, ways),
		order:    make([]uint64, ways),
		touches:  make([]uint64, ways),
		rng:      0x9E3779B97F4A7C15,
		lruTouch: cfg.Policy == LRU,
	}, nil
}

// MustNew is New that panics on error, for tests and constant configs.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Geometry returns the block/set geometry, which predictors share to build
// per-set history state.
func (c *Cache) Geometry() mem.Geometry { return c.geo }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// lookupWay finds the global way index holding tag in the set starting at
// base, or -1. Only the tag and flag lanes are touched.
func (c *Cache) lookupWay(base int, tag mem.Addr) int {
	tags := c.tags[base : base+c.assoc]
	for w := range tags {
		if tags[w] == tag && c.flags[base+w]&flagValid != 0 {
			return base + w
		}
	}
	return -1
}

func (c *Cache) nextRand() uint64 {
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return x
}

// victimWay picks the global way index to replace in the set starting at
// base, according to the policy. Invalid ways win outright.
func (c *Cache) victimWay(base int) int {
	end := base + c.assoc
	for w := base; w < end; w++ {
		if c.flags[w]&flagValid == 0 {
			return w
		}
	}
	if c.cfg.Policy == Random {
		return base + int(c.nextRand()%uint64(c.assoc))
	}
	// LRU and FIFO are both a min-scan of the order lane: the lane is
	// refreshed on touch under LRU and left at its fill stamp under FIFO.
	best, bestStamp := base, c.order[base]
	for w := base + 1; w < end; w++ {
		if c.order[w] < bestStamp {
			best, bestStamp = w, c.order[w]
		}
	}
	return best
}

// evictWay captures EvictInfo for the line in global way w of set idx at
// external clock now, and invalidates it. An invalid way yields a zero
// EvictInfo and — deliberately — touches no statistics: a fill into an
// empty way (cold fill) is not an eviction, so Evictions and its dirty /
// prefetch-unused breakdowns count displaced valid lines only.
func (c *Cache) evictWay(w, idx int, now uint64) EvictInfo {
	f := c.flags[w]
	if f&flagValid == 0 {
		return EvictInfo{}
	}
	info := EvictInfo{
		Valid:      true,
		Addr:       c.geo.Rebuild(c.tags[w], idx),
		Dirty:      f&flagDirty != 0,
		Prefetched: f&flagPrefetched != 0,
		LastTouch:  c.touches[w],
	}
	if now >= info.LastTouch {
		info.DeadTime = now - info.LastTouch
	}
	c.stats.Evictions++
	if info.Dirty {
		c.stats.DirtyEvictions++
	}
	if info.Prefetched {
		c.stats.PrefetchUnused++
	}
	c.flags[w] = 0
	return info
}

// AccessIndexed performs one demand access given a precomputed set index
// and tag (as produced by the cache's own Geometry). It is the building
// block of the batch entry points, exported so drivers that already
// extracted idx/tag for their own bookkeeping (classification, pending-
// prediction maps) do not pay the extraction twice. idx and tag must come
// from this cache's Geometry — a mismatched pair silently corrupts the
// simulation. Use Access when in doubt.
func (c *Cache) AccessIndexed(idx int, tag mem.Addr, write bool, now uint64) AccessResult {
	c.stats.Accesses++
	c.clock++
	base := idx * c.assoc
	if w := c.lookupWay(base, tag); w >= 0 {
		c.stats.Hits++
		res := AccessResult{Hit: true}
		f := c.flags[w]
		if f&flagPrefetched != 0 {
			f &^= flagPrefetched
			c.stats.PrefetchHits++
			res.PrefetchHit = true
		}
		if write {
			f |= flagDirty
		}
		c.flags[w] = f
		if c.lruTouch {
			c.order[w] = c.clock
		}
		c.touches[w] = now
		return res
	}
	c.stats.Misses++
	if write {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}
	w := c.victimWay(base)
	info := c.evictWay(w, idx, now)
	c.tags[w] = tag
	f := flagValid
	if write {
		f |= flagDirty
	}
	c.flags[w] = f
	c.order[w] = c.clock
	c.touches[w] = now
	return AccessResult{Hit: false, Evicted: info}
}

// Access performs a demand access to address a at external clock now.
// On a miss the block is filled (write-allocate) and the displaced line, if
// any, is reported in the result. Stores mark the line dirty (write-back).
//
// Access is the one-element adapter over the batch contract: it extracts
// idx/tag for a single address and defers to AccessIndexed. Hot loops that
// hold whole reference batches should call AccessBatch (or PairAccessBatch
// for a shadow+main double lookup) instead.
func (c *Cache) Access(a mem.Addr, write bool, now uint64) AccessResult {
	return c.AccessIndexed(c.geo.Index(a), c.geo.Tag(a), write, now)
}

// extract runs the hoisted extraction pass: set indexes and tags for every
// address in the batch, written to the cache-owned scratch lanes. The loop
// body is pure shift/mask on independent elements, so it vectorizes.
func (c *Cache) extract(addrs []mem.Addr) {
	if cap(c.setScratch) < len(addrs) {
		c.setScratch = make([]int32, len(addrs))
		c.tagScratch = make([]mem.Addr, len(addrs))
	}
	sets := c.setScratch[:len(addrs)]
	tags := c.tagScratch[:len(addrs)]
	bb := c.geo.BlockBits()
	sb := c.geo.SetBits()
	mask := mem.Addr(c.geo.Sets() - 1)
	for i, a := range addrs {
		bn := a >> bb
		sets[i] = int32(bn & mask)
		tags[i] = bn >> sb
	}
}

// AccessBatch performs len(addrs) demand accesses: address addrs[i] with
// write flag writes[i] at external clock now[i], filling out[i]. It is the
// primary demand-access contract (DESIGN.md §9) and is exactly equivalent
// to the scalar loop
//
//	for i := range addrs { out[i] = c.Access(addrs[i], writes[i], now[i]) }
//
// including every Stats counter and the Random-policy rng sequence
// (TestAccessBatchScalarEquivalence pins this). writes, now and out must
// each hold at least len(addrs) elements; out must not alias the input
// slices. The input slices belong to the caller and are not retained.
func (c *Cache) AccessBatch(addrs []mem.Addr, writes []bool, now []uint64, out []AccessResult) {
	n := len(addrs)
	if n == 0 {
		return
	}
	writes, now, out = writes[:n], now[:n], out[:n]
	c.extract(addrs)
	for i := 0; i < n; i++ {
		out[i] = c.AccessIndexed(int(c.setScratch[i]), c.tagScratch[i], writes[i], now[i])
	}
}

// AccessBatchHits performs the same accesses (and exact state evolution,
// Stats and Random-policy rng sequence) as AccessBatch, but reports only
// the hit outcome per access: hits[i] is set to whether addrs[i] was
// present. This is the base-system contract of the coverage drivers — the
// shadow hierarchy's per-access eviction details are never consumed, so
// this path skips materializing EvictInfo (address rebuild, dead-time)
// entirely, folds set/tag extraction into the access loop, and batches the
// statistics updates into per-call accumulators. An access to the block
// the previous access of the same call touched skips the lookup: that
// block is resident in the way the previous access hit or filled, and
// nothing else runs on the cache between the two. Slice contract as in
// AccessBatch.
func (c *Cache) AccessBatchHits(addrs []mem.Addr, writes []bool, now []uint64, hits []bool) {
	n := len(addrs)
	if n == 0 {
		return
	}
	writes, now, hits = writes[:n], now[:n], hits[:n]
	bb := c.geo.BlockBits()
	sb := c.geo.SetBits()
	mask := mem.Addr(c.geo.Sets() - 1)
	clock := c.clock
	var nhits, wmiss, evics, dirtyEv, pfUnused, pfHits uint64
	lastBn, lastW := mem.Addr(0), -1
	for i := 0; i < n; i++ {
		bn := addrs[i] >> bb
		clock++
		w := lastW
		if bn != lastBn || w < 0 {
			w = c.lookupWay(int(bn&mask)*c.assoc, bn>>sb)
		}
		lastBn = bn
		if w >= 0 {
			lastW = w
			nhits++
			f := c.flags[w]
			if f&flagPrefetched != 0 {
				f &^= flagPrefetched
				pfHits++
			}
			if writes[i] {
				f |= flagDirty
			}
			c.flags[w] = f
			if c.lruTouch {
				c.order[w] = clock
			}
			c.touches[w] = now[i]
			hits[i] = true
			continue
		}
		if writes[i] {
			wmiss++
		}
		base := int(bn&mask) * c.assoc
		w = c.victimWay(base)
		lastW = w
		if f := c.flags[w]; f&flagValid != 0 {
			evics++
			if f&flagDirty != 0 {
				dirtyEv++
			}
			if f&flagPrefetched != 0 {
				pfUnused++
			}
		}
		c.tags[w] = bn >> sb
		f := flagValid
		if writes[i] {
			f |= flagDirty
		}
		c.flags[w] = f
		c.order[w] = clock
		c.touches[w] = now[i]
		hits[i] = false
	}
	c.clock = clock
	misses := uint64(n) - nhits
	c.stats.Accesses += uint64(n)
	c.stats.Hits += nhits
	c.stats.Misses += misses
	c.stats.WriteMisses += wmiss
	c.stats.ReadMisses += misses - wmiss
	c.stats.Evictions += evics
	c.stats.DirtyEvictions += dirtyEv
	c.stats.PrefetchUnused += pfUnused
	c.stats.PrefetchHits += pfHits
}

// PairAccessBatch drives one access sequence through two caches of
// identical geometry — the shadow+main double lookup of the coverage
// methodology — sharing a single set-index/tag extraction pass. For each i
// the access hits c first, then peer, preserving the scalar interleaving
//
//	outC[i] = c.Access(addrs[i], ...); outPeer[i] = peer.Access(addrs[i], ...)
//
// It is only sound when nothing else (prefetch fills, invalidations) must
// interleave with the batch on either cache; drivers with an active
// prefetcher batch the shadow side alone and keep the main side scalar.
// Panics if the two geometries differ. Slice contract as in AccessBatch.
func (c *Cache) PairAccessBatch(peer *Cache, addrs []mem.Addr, writes []bool, now []uint64, outC, outPeer []AccessResult) {
	if c.geo != peer.geo {
		panic(fmt.Sprintf("cache: PairAccessBatch geometry mismatch (%q vs %q)", c.cfg.Name, peer.cfg.Name))
	}
	n := len(addrs)
	if n == 0 {
		return
	}
	writes, now, outC, outPeer = writes[:n], now[:n], outC[:n], outPeer[:n]
	c.extract(addrs)
	for i := 0; i < n; i++ {
		idx, tag := int(c.setScratch[i]), c.tagScratch[i]
		outC[i] = c.AccessIndexed(idx, tag, writes[i], now[i])
		outPeer[i] = peer.AccessIndexed(idx, tag, writes[i], now[i])
	}
}

// InsertPrefetch fills block a without a demand access. If useVictim is
// true, the line currently holding block victim (in a's set) is replaced —
// this is LT-cords/DBCP dead-block replacement; if that block is absent the
// policy victim is used instead. The displaced line is returned. If block a
// is already present the insert is a no-op and ok is false.
func (c *Cache) InsertPrefetch(a mem.Addr, victim mem.Addr, useVictim bool, now uint64) (EvictInfo, bool) {
	idx := c.geo.Index(a)
	tag := c.geo.Tag(a)
	base := idx * c.assoc
	if c.lookupWay(base, tag) >= 0 {
		c.stats.PrefetchDupes++
		return EvictInfo{}, false
	}
	c.clock++
	w := -1
	if useVictim && c.geo.Index(victim) == idx {
		w = c.lookupWay(base, c.geo.Tag(victim))
	}
	if w < 0 {
		w = c.victimWay(base)
	}
	info := c.evictWay(w, idx, now)
	c.tags[w] = tag
	c.flags[w] = flagValid | flagPrefetched
	c.order[w] = c.clock
	c.touches[w] = now // a prefetched line's "touch" clock starts at fill
	c.stats.PrefetchInserts++
	return info, true
}

// Probe reports whether block a is present, without changing any state.
func (c *Cache) Probe(a mem.Addr) bool {
	return c.lookupWay(c.geo.Index(a)*c.assoc, c.geo.Tag(a)) >= 0
}

// ProbePrefetched reports whether block a is present and still marked as an
// untouched prefetch.
func (c *Cache) ProbePrefetched(a mem.Addr) bool {
	w := c.lookupWay(c.geo.Index(a)*c.assoc, c.geo.Tag(a))
	return w >= 0 && c.flags[w]&flagPrefetched != 0
}

// Invalidate removes block a if present and returns its eviction record.
func (c *Cache) Invalidate(a mem.Addr, now uint64) (EvictInfo, bool) {
	idx := c.geo.Index(a)
	w := c.lookupWay(idx*c.assoc, c.geo.Tag(a))
	if w < 0 {
		return EvictInfo{}, false
	}
	return c.evictWay(w, idx, now), true
}

// Flush invalidates every line and leaves statistics intact.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.flags)
	clear(c.order)
	clear(c.touches)
}

// ValidLines counts the currently valid lines (used by tests and the
// capacity invariants).
func (c *Cache) ValidLines() int {
	n := 0
	for _, f := range c.flags {
		if f&flagValid != 0 {
			n++
		}
	}
	return n
}
