// Package cpu implements the cycle-level timing model used for the paper's
// speedup (Table 3) and bandwidth (Figure 12) experiments.
//
// It is an interval-style model of the Table 1 machine: an 8-wide
// out-of-order core with a 256-entry reorder buffer, 128-entry load/store
// queue and 64 L1D MSHRs, a two-channel L1/L2 bus, a 1MB L2, a 32-byte
// 1333MHz memory bus and 200-cycle DRAM. The model charges exactly the
// effects the paper's results hinge on:
//
//   - exposed miss latency: a load's completion waits for its cache level,
//     bus queuing and DRAM;
//   - memory-level parallelism: independent misses overlap up to the MSHR
//     and bus limits, while Dep-flagged references (pointer chasing)
//     serialize behind the previous load;
//   - window stalls: the core cannot run more than ROB instructions or LSQ
//     memory operations ahead of an incomplete memory access;
//   - front-end bubbles: branch mispredictions cost a fixed penalty at the
//     workload's misprediction density;
//   - TLB misses (256-entry, 4-way, 600-cycle penalty);
//   - prefetch traffic: prefetches wait in a 128-entry request queue and
//     issue to the same busses and DRAM only from the queue head, as the
//     engine's in-flight fill buffers free up; queue overflow drops old
//     unissued requests at zero cost (nothing was reserved yet), and fills
//     reach the L1 only when their data arrives (DESIGN.md §13).
//
// The absolute IPC of a real Alpha pipeline is not reproduced (see
// DESIGN.md §5); relative speedups across predictor configurations are the
// meaningful output.
package cpu

import (
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Params configures the core and memory system (defaults: paper Table 1).
type Params struct {
	IssueWidth    int     // instructions per cycle
	ROB           int     // reorder buffer entries
	LSQ           int     // load/store queue entries
	MSHRs         int     // outstanding L1D misses
	BranchPenalty int     // cycles per branch misprediction
	BranchMPKI    float64 // mispredictions per 1000 instructions (workload)
	TLBEntries    int
	TLBAssoc      int
	TLBPenalty    int // cycles per TLB miss
	PageBytes     int
	PrefetchQueue int // prefetch request queue entries (unissued requests)
	// PrefetchInflight bounds the prefetches concurrently issued to the
	// memory system (the prefetch engine's MSHR-like fill buffers): the
	// issue stage moves requests from the queue head into flight only
	// while this many are not already outstanding, so the queue backs up —
	// and overflows, dropping old unissued requests — exactly when
	// completions cannot keep up. 0 defaults to MSHRs.
	PrefetchInflight int
	// PerfectL1 makes every L1D access hit (the Table 3 upper bound).
	PerfectL1 bool
	// WarmupInstrs excludes the first N committed instructions from the
	// measured-region counters (MeasuredCycles/MeasuredIPC), mirroring the
	// paper's SMARTS methodology of detailed warm-up before measurement.
	// The caches and predictor still simulate the warm-up in full detail.
	WarmupInstrs uint64
	// DeadTimes, when non-nil, collects L1D eviction dead-times in cycles
	// (Figure 2).
	DeadTimes *stats.Log2Histogram
}

// DefaultParams returns the paper's Table 1 core configuration.
func DefaultParams() Params {
	return Params{
		IssueWidth:       8,
		ROB:              256,
		LSQ:              128,
		MSHRs:            64,
		BranchPenalty:    12,
		TLBEntries:       256,
		TLBAssoc:         4,
		TLBPenalty:       600,
		PageBytes:        8192,
		PrefetchQueue:    128,
		PrefetchInflight: 64,
	}
}

// Result summarises a timing run.
type Result struct {
	Predictor string
	Instrs    uint64
	Refs      uint64
	Cycles    uint64

	L1Misses uint64
	L2Misses uint64
	TLBMiss  uint64

	// Off-chip (memory bus) traffic decomposition, Figure 12 categories.
	BytesBaseData  uint64 // demand block transfers incl. write-backs and useful prefetches
	BytesIncorrect uint64 // block transfers of prefetches that were never used
	BytesSeqWrite  uint64 // LT-cords sequence creation + confidence updates
	BytesSeqFetch  uint64 // LT-cords sequence fetch

	MemBusBusy     uint64 // memory bus occupancy in cycles
	PrefetchIssued uint64 // requests that left the queue and engaged the memory system
	PrefetchDrops  uint64 // queue-overflow drops: unissued requests cancelled at zero cost
	BranchBubbles  uint64

	// WarmCycles and WarmInstrs are the cycle/instruction counts consumed
	// by the warm-up region (zero when no warm-up was configured).
	WarmCycles uint64
	WarmInstrs uint64
}

// MeasuredCycles returns the cycles of the measured (post-warm-up) region.
func (r Result) MeasuredCycles() uint64 { return r.Cycles - r.WarmCycles }

// MeasuredInstrs returns the instructions of the measured region.
func (r Result) MeasuredInstrs() uint64 { return r.Instrs - r.WarmInstrs }

// MeasuredIPC returns IPC over the measured region.
func (r Result) MeasuredIPC() float64 {
	c := r.MeasuredCycles()
	if c == 0 {
		return 0
	}
	return float64(r.MeasuredInstrs()) / float64(c)
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// BytesPerInstr returns total off-chip traffic per instruction (the
// Figure 12 y-axis).
func (r Result) BytesPerInstr() float64 {
	if r.Instrs == 0 {
		return 0
	}
	total := r.BytesBaseData + r.BytesIncorrect + r.BytesSeqWrite + r.BytesSeqFetch
	return float64(total) / float64(r.Instrs)
}

// OffChipTraffic is implemented by predictors whose metadata lives off chip
// (LT-cords): the engine charges the byte deltas to the memory bus.
type OffChipTraffic interface {
	// OffChipTrafficBytes returns cumulative (writes, fetches) byte counts.
	OffChipTrafficBytes() (writes, fetches uint64)
}

type inflightOp struct {
	instr  uint64 // instruction index at issue
	done   uint64 // completion cycle
	isMiss bool
}

// pendingPrefetch is one predictor request in the two-stage prefetch
// lifecycle (DESIGN.md §13). Queued requests (pfQueue) have reserved
// nothing: ready is unset and the engine may still drop them at zero cost.
// Issued requests (pfInflight) have walked the L2/DRAM path; ready is the
// cycle their data arrives at the L1.
type pendingPrefetch struct {
	addr      mem.Addr
	victim    mem.Addr
	useVictim bool
	ready     uint64
}

// pfQueuedReady is the pfTracker sentinel for a queued-but-unissued
// request: the block is claimed (no duplicate enqueue) but no data is on
// its way, so fetchLatency's merge path must not treat it as in flight.
const pfQueuedReady = ^uint64(0)

// Engine runs timing simulations. Create one per run.
type Engine struct {
	p      Params
	l1cfg  cache.Config
	l2cfg  cache.Config
	l1     *cache.Cache
	l2     *cache.Cache
	tlb    *cache.Cache
	geo    mem.Geometry // l1 geometry, cached off the hot path
	busL2  *bus.Line
	dram   *bus.DRAM
	memBus *bus.Line

	// Batch prep lanes (see Run): per-reference block addresses,
	// precomputed L1 set-index+tag pairs and TLB hit bits, extracted in
	// one pass over each reference batch before the serialized
	// per-reference walk. tlbWrites and tlbNow are constant all-false and
	// all-zero lanes for the TLB's batch call.
	blocks    []mem.Addr
	l1Sets    []int32
	l1Tags    []mem.Addr
	tlbHits   []bool
	tlbWrites []bool
	tlbNow    []uint64

	cycle      uint64
	instrs     uint64
	issueCarry int  // instructions not yet converted to cycles
	issueShift uint // log2(IssueWidth)

	rob ring[inflightOp] // FIFO of in-flight memory ops (instruction order)
	// missDones mirrors the completion times of the ROB's miss subsequence
	// (misses enter and leave the ROB in FIFO order, so the mirror only
	// pushes with rob.push and pops with rob.pop): the MSHR gate scans
	// outstanding misses on every reference, and walking this ring visits
	// exactly the candidates instead of the whole in-flight window.
	missDones ring[uint64]

	lastLoadDone uint64

	// Two-stage prefetch lifecycle: pfQueue holds enqueued requests that
	// have not touched the memory system yet; the issue stage moves them
	// to pfInflight (bus reserved, L2/DRAM walked, ready computed) when
	// they reach the queue head and a fill buffer is free. pfTracker maps
	// a claimed block to its ready cycle — pfQueuedReady while the request
	// is still queued — so duplicate enqueues are suppressed in both
	// stages and demand misses can tell a real in-flight fetch from a
	// cancellable queued one.
	pfQueue     ring[pendingPrefetch]
	pfInflight  ring[pendingPrefetch]
	pfTracker   map[mem.Addr]uint64
	mshrScratch []uint64

	branchDebtMicro uint64
	branchMicro     uint64 // BranchMPKI*1000: micro-mispredictions per instruction
	// lastEvict is the eviction of the most recent demand access; its
	// address is handed to predictor hooks (which must not retain it),
	// avoiding a per-miss heap allocation. Same for fillEvict, the slot for
	// prefetch-fill evictions.
	lastEvict      cache.EvictInfo
	lastEvictValid bool
	fillEvict      cache.EvictInfo

	predScratch []sim.Prediction
	pfOffChip   uint64 // off-chip bytes fetched by L1-targeted prefetches
	pfOffChipL2 uint64 // off-chip bytes fetched by L2-targeted prefetches

	// Per-run accounting for the predictor's own off-chip traffic deltas
	// and the SMARTS warm-up boundary.
	lastWrites, lastFetches uint64
	warmed                  bool

	res Result
}

// NewEngine builds an engine for the given configs. Zero-valued cache
// configs default to the paper's L1D/L2.
func NewEngine(p Params, l1cfg, l2cfg cache.Config) (*Engine, error) {
	if l1cfg.Size == 0 {
		l1cfg = sim.PaperL1D()
	}
	if l2cfg.Size == 0 {
		l2cfg = sim.PaperL2()
	}
	if p.IssueWidth < 1 || p.ROB < 1 || p.LSQ < 1 || p.MSHRs < 1 {
		return nil, fmt.Errorf("cpu: core parameters must be positive")
	}
	issueShift, ok := mem.Log2(p.IssueWidth)
	if !ok {
		return nil, fmt.Errorf("cpu: IssueWidth %d not a power of two", p.IssueWidth)
	}
	if p.PrefetchInflight == 0 {
		p.PrefetchInflight = p.MSHRs
	}
	l1, err := cache.New(l1cfg)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(l2cfg)
	if err != nil {
		return nil, err
	}
	if p.PageBytes < l1cfg.BlockSize {
		return nil, fmt.Errorf("cpu: PageBytes %d smaller than the L1 block", p.PageBytes)
	}
	tlb, err := cache.New(cache.Config{
		Name: "TLB", Size: p.TLBEntries * p.PageBytes, BlockSize: p.PageBytes, Assoc: p.TLBAssoc,
	})
	if err != nil {
		return nil, fmt.Errorf("cpu: tlb: %w", err)
	}
	memBus := bus.NewLine("mem", 1)
	return &Engine{
		p:           p,
		l1cfg:       l1cfg,
		l2cfg:       l2cfg,
		l1:          l1,
		l2:          l2,
		tlb:         tlb,
		geo:         l1.Geometry(),
		busL2:       bus.NewLine("l1l2", 2),
		memBus:      memBus,
		dram:        bus.NewDRAM(memBus),
		pfTracker:   make(map[mem.Addr]uint64, 256),
		blocks:      make([]mem.Addr, trace.DefaultBatch),
		l1Sets:      make([]int32, trace.DefaultBatch),
		l1Tags:      make([]mem.Addr, trace.DefaultBatch),
		tlbHits:     make([]bool, trace.DefaultBatch),
		tlbWrites:   make([]bool, trace.DefaultBatch),
		tlbNow:      make([]uint64, trace.DefaultBatch),
		issueShift:  issueShift,
		branchMicro: uint64(p.BranchMPKI * 1000),
	}, nil
}

// prep runs the batch extraction pass: block addresses and L1 set-index/
// tag pairs for every reference in the batch (at most trace.DefaultBatch,
// Run's buffer size), into the engine's reused lanes. The per-reference
// machine walk is inherently serialized (every
// latency depends on the previous reference's completion), but the
// address arithmetic is not — hoisting it here keeps the serialized loop
// free of geometry work and the extraction loop vectorizable.
//
// The TLB runs here too, as one AccessBatchHits call over the whole
// batch. That is exact: the TLB sees only demand references, in stream
// order, nothing else fills or probes it, and only its hit bit is used —
// its eviction records and touch clocks, the only state the access
// clock reaches, are never read. The TLB is fed block addresses, which
// lie on their reference's page because NewEngine rejects pages smaller
// than a block.
func (e *Engine) prep(refs []trace.Ref) {
	for i, ref := range refs {
		e.blocks[i] = e.geo.BlockAddr(ref.Addr)
		e.l1Sets[i] = int32(e.geo.Index(ref.Addr))
		e.l1Tags[i] = e.geo.Tag(ref.Addr)
	}
	e.tlb.AccessBatchHits(e.blocks[:len(refs)], e.tlbWrites, e.tlbNow, e.tlbHits)
}

// retire pops completed ops and enforces ROB/LSQ windows before issuing
// instruction index instr.
func (e *Engine) retire(instr uint64) {
	for e.rob.len() > 0 {
		head := *e.rob.at(0)
		if head.done <= e.cycle {
			e.popHead(head)
			continue
		}
		// Window constraints: the head blocks retirement. If the new
		// instruction would overflow the ROB (instruction distance) or the
		// LSQ (memory ops in flight), stall until the head completes.
		if instr-head.instr >= uint64(e.p.ROB) || e.rob.len() >= e.p.LSQ {
			e.cycle = head.done
			e.popHead(head)
			continue
		}
		break
	}
}

// popHead removes the ROB head (already read as head), keeping the
// miss-done mirror in lockstep.
func (e *Engine) popHead(head inflightOp) {
	e.rob.pop()
	if head.isMiss {
		e.missDones.pop()
	}
}

// mshrGate returns the earliest issue time respecting the MSHR limit: with
// k misses outstanding at time at and a capacity of MSHRs, the new miss may
// issue once enough of them complete that a register frees (the
// (k-MSHRs+1)-th completion).
func (e *Engine) mshrGate(at uint64) uint64 {
	if e.missDones.len() < e.p.MSHRs {
		// Fewer misses in flight than registers even before the done>at
		// filter: the gate cannot bind.
		return at
	}
	dones := e.mshrScratch[:0]
	for i := 0; i < e.missDones.len(); i++ {
		if d := *e.missDones.at(i); d > at {
			dones = append(dones, d)
		}
	}
	e.mshrScratch = dones
	if len(dones) < e.p.MSHRs {
		return at
	}
	slices.Sort(dones)
	return dones[len(dones)-e.p.MSHRs]
}

// issuePrefetches is the issue stage of the two-stage lifecycle: requests
// leave the queue head only while the prefetch engine has a free in-flight
// buffer (PrefetchInflight). Only then is the bus reserved, the L2 walked
// and DRAM engaged — a request dropped before reaching this point has
// consumed no bandwidth anywhere. The bus/DRAM reservations queue behind
// demand traffic like any other requester, so the in-flight window is what
// limits issue: when completions cannot keep up, the window fills, the
// queue backs up and overflows, dropping old unissued requests.
func (e *Engine) issuePrefetches(now uint64) {
	for e.pfQueue.len() > 0 {
		if e.pfInflight.len() >= e.p.PrefetchInflight {
			break // fill buffers full: the head waits, still cancellable
		}
		pp := e.pfQueue.pop()
		if e.l1.Probe(pp.addr) {
			// A demand miss fetched the block while the request sat in
			// the queue: the prefetch is moot, release its claim without
			// any traffic (not a drop — nothing displaced it).
			delete(e.pfTracker, pp.addr)
			continue
		}
		grant := e.busL2.Reserve(now, 1+e.l1cfg.BlockSize/32, e.l1cfg.BlockSize)
		l2res := e.l2.Access(pp.addr, false, now)
		if l2res.Hit {
			pp.ready = grant + uint64(e.l2cfg.HitLatency) + uint64(e.l1cfg.BlockSize/32)
		} else {
			pp.ready = e.dram.ReadBlock(grant+uint64(e.l2cfg.HitLatency), e.l1cfg.BlockSize)
			e.pfOffChip += uint64(e.l1cfg.BlockSize) // split correct/incorrect at the end
		}
		e.res.PrefetchIssued++
		e.pfInflight.push(pp)
		e.pfTracker[pp.addr] = pp.ready
	}
}

// drainPrefetches runs the issue stage, then completes issued prefetches
// whose data has arrived, filling the L1 (and informing mirror-keeping
// predictors). Fills complete in issue order: a later request whose data
// arrives early waits behind the head, like the engine's FIFO fill queue.
func (e *Engine) drainPrefetches(now uint64, filler sim.PrefetchFillObserver) {
	e.issuePrefetches(now)
	for e.pfInflight.len() > 0 {
		if e.pfInflight.at(0).ready > now {
			break
		}
		pp := e.pfInflight.pop()
		delete(e.pfTracker, pp.addr)
		if ev, inserted := e.l1.InsertPrefetch(pp.addr, pp.victim, pp.useVictim, now); inserted {
			if e.p.DeadTimes != nil && ev.Valid {
				e.p.DeadTimes.Add(ev.DeadTime)
			}
			if filler != nil {
				var ep *cache.EvictInfo
				if ev.Valid {
					e.fillEvict = ev
					ep = &e.fillEvict
				}
				filler.OnPrefetchFill(pp.addr, ep)
			}
		}
	}
}

// fetchLatency walks the memory system for a demand access issued at time
// at and returns (completionTime, missedL1, missedL2, offChipBytes). block,
// l1idx and l1tag are the reference's prep-pass extractions.
func (e *Engine) fetchLatency(at uint64, addr, block mem.Addr, l1idx int, l1tag mem.Addr, write bool) (uint64, bool, bool, uint64) {
	if e.p.PerfectL1 {
		return at + uint64(e.l1cfg.HitLatency), false, false, 0
	}
	res := e.l1.AccessIndexed(l1idx, l1tag, write, at)
	if res.Evicted.Valid {
		e.lastEvict = res.Evicted
		e.lastEvictValid = true
		if e.p.DeadTimes != nil {
			e.p.DeadTimes.Add(res.Evicted.DeadTime)
		}
	}
	if res.Hit {
		return at + uint64(e.l1cfg.HitLatency), false, false, 0
	}
	// Issued in-flight prefetch to the same block: merge with it (the data
	// is already on its way; the miss completes when it arrives). A
	// queued-unissued request is no such thing — nothing has been fetched —
	// so the demand miss below takes the full path and pays full cost; the
	// stale queue entry cancels itself at issue time (the block is resident
	// by then).
	if ready, ok := e.pfTracker[block]; ok && ready != pfQueuedReady {
		done := ready
		if m := at + uint64(e.l1cfg.HitLatency); done < m {
			done = m
		}
		return done, false, false, 0
	}
	var offChip uint64
	// L1/L2 bus: 1-cycle request, 64B block at 32B/cycle = 2 transfer cycles.
	grant := e.busL2.Reserve(at, 1+e.l1cfg.BlockSize/32, e.l1cfg.BlockSize)
	l2res := e.l2.Access(addr, false, at)
	var done uint64
	if l2res.Hit {
		done = grant + uint64(e.l2cfg.HitLatency) + uint64(e.l1cfg.BlockSize/32)
	} else {
		done = e.dram.ReadBlock(grant+uint64(e.l2cfg.HitLatency), e.l1cfg.BlockSize)
		offChip += uint64(e.l1cfg.BlockSize)
		if l2res.Evicted.Valid && l2res.Evicted.Dirty {
			e.dram.WriteBlock(done, e.l1cfg.BlockSize)
			offChip += uint64(e.l1cfg.BlockSize)
		}
	}
	// The L1 eviction's write-back travels on the L1/L2 bus.
	if res.Evicted.Valid && res.Evicted.Dirty {
		e.busL2.Reserve(at, e.l1cfg.BlockSize/32, e.l1cfg.BlockSize)
	}
	return done, true, !l2res.Hit, offChip
}

// enqueuePrefetch is the enqueue stage of a predictor-initiated fetch: the
// request joins the prefetch queue and claims its block, but touches no
// bus or DRAM — that happens in issuePrefetches, when the request reaches
// the queue head. On queue overflow, new requests replace old unissued
// ones at the queue head (paper Section 5); since a queued request has
// reserved nothing, the drop cancels the fetch outright: its claim is
// released, later demand misses pay the full miss path, and the block may
// be re-prefetched. L2-targeted prefetches (GHB) bypass the queue and fill
// only the L2.
func (e *Engine) enqueuePrefetch(now uint64, p sim.Prediction) {
	if e.p.PerfectL1 {
		return
	}
	block := e.geo.BlockAddr(p.Addr)
	if p.ToL2 {
		if e.l2.Probe(block) {
			return
		}
		// Prefetches issue opportunistically: the shared bus reservation
		// inside the DRAM model provides the queuing.
		e.dram.ReadBlock(now, e.l1cfg.BlockSize)
		e.l2.InsertPrefetch(block, 0, false, now)
		e.res.PrefetchIssued++
		e.pfOffChipL2 += uint64(e.l1cfg.BlockSize)
		return
	}
	if e.l1.Probe(block) {
		return
	}
	if _, claimed := e.pfTracker[block]; claimed {
		return // already queued or in flight
	}
	if e.pfQueue.len() >= e.p.PrefetchQueue {
		dropped := e.pfQueue.pop()
		delete(e.pfTracker, dropped.addr)
		e.res.PrefetchDrops++
	}
	e.pfQueue.push(pendingPrefetch{addr: block, victim: p.Victim, useVictim: p.UseVictim})
	e.pfTracker[block] = pfQueuedReady
}

// Run drives the reference stream through the timing model with the given
// prefetcher (sim.Null{} for the baseline). References are pumped in fixed
// batches reused across the run: steady-state simulation performs no heap
// allocation per reference.
func (e *Engine) Run(src trace.Source, pf sim.Prefetcher) Result {
	filler, _ := pf.(sim.PrefetchFillObserver)
	traffic, _ := pf.(OffChipTraffic)
	e.lastWrites, e.lastFetches = 0, 0
	e.warmed = e.p.WarmupInstrs == 0

	refBuf := make([]trace.Ref, trace.DefaultBatch)
	if e.predScratch == nil {
		e.predScratch = make([]sim.Prediction, 0, 16)
	}
	for nrefs := src.ReadRefs(refBuf); nrefs > 0; nrefs = src.ReadRefs(refBuf) {
		e.prep(refBuf[:nrefs])
		for i, ref := range refBuf[:nrefs] {
			e.step(ref, i, pf, filler, traffic)
		}
	}
	// Drain: run to completion of all outstanding operations.
	for i := 0; i < e.rob.len(); i++ {
		if op := e.rob.at(i); op.done > e.cycle {
			e.cycle = op.done
		}
	}
	e.res.Predictor = pf.Name()
	e.res.Instrs = e.instrs
	e.res.Cycles = e.cycle
	e.res.MemBusBusy = e.memBus.BusyCycles()
	// Split the prefetch off-chip traffic into useful (base data: those
	// fetches substituted demand transfers) and incorrect (never-touched
	// prefetches), pro-rated by the observed useless fraction at the level
	// the prefetcher targets.
	split := func(offChip uint64, st cache.Stats) {
		if st.PrefetchInserts > 0 {
			uselessFrac := 1 - float64(st.PrefetchHits)/float64(st.PrefetchInserts)
			wrong := uint64(float64(offChip) * uselessFrac)
			e.res.BytesIncorrect += wrong
			e.res.BytesBaseData += offChip - wrong
		} else {
			e.res.BytesBaseData += offChip
		}
	}
	split(e.pfOffChip, e.l1.Stats())
	split(e.pfOffChipL2, e.l2.Stats())
	return e.res
}

// step advances the machine by one committed reference; i indexes the
// reference's prep-pass extractions.
func (e *Engine) step(ref trace.Ref, i int, pf sim.Prefetcher, filler sim.PrefetchFillObserver, traffic OffChipTraffic) {
	e.res.Refs++
	n := uint64(ref.Gap) + 1
	e.instrs += n
	if !e.warmed && e.instrs >= e.p.WarmupInstrs {
		e.warmed = true
		e.res.WarmCycles = e.cycle
		e.res.WarmInstrs = e.instrs
	}

	// Front-end: issue-width-limited instruction delivery.
	e.issueCarry += int(n)
	e.cycle += uint64(e.issueCarry >> e.issueShift)
	e.issueCarry &= e.p.IssueWidth - 1

	// Branch mispredictions at the workload's density: MPKI per 1000
	// instructions, accumulated in micro-misprediction units.
	if e.p.BranchMPKI > 0 {
		e.branchDebtMicro += n * e.branchMicro
		for e.branchDebtMicro >= 1_000_000 {
			e.cycle += uint64(e.p.BranchPenalty)
			e.res.BranchBubbles++
			e.branchDebtMicro -= 1_000_000
		}
	}

	e.retire(e.instrs)
	e.drainPrefetches(e.cycle, filler)

	issue := e.cycle
	if ref.Dep && e.lastLoadDone > issue {
		// Address depends on the previous load's value.
		issue = e.lastLoadDone
	}

	// TLB (looked up in the prep pass).
	if !e.tlbHits[i] {
		e.res.TLBMiss++
		issue += uint64(e.p.TLBPenalty)
	}

	issue = e.mshrGate(issue)

	write := ref.Kind == trace.Store
	block := e.blocks[i]
	done, l1miss, l2miss, offBytes := e.fetchLatency(issue, ref.Addr, block, int(e.l1Sets[i]), e.l1Tags[i], write)
	e.res.BytesBaseData += offBytes
	if l1miss {
		e.res.L1Misses++
	}
	if l2miss {
		e.res.L2Misses++
	}
	if !write {
		e.lastLoadDone = done
	}
	// Stores commit without blocking (write buffer), but their fills
	// occupy the machine like loads.
	e.rob.push(inflightOp{instr: e.instrs, done: done, isMiss: l1miss})
	if l1miss {
		e.missDones.push(done)
	}

	// Predictor hooks (committed-access observation).
	var evp *cache.EvictInfo
	if e.lastEvictValid {
		evp = &e.lastEvict
	}
	e.predScratch = pf.OnAccess(ref, !l1miss, evp, e.predScratch[:0])
	e.lastEvictValid = false
	for _, p := range e.predScratch {
		if e.geo.BlockAddr(p.Addr) == block {
			continue
		}
		e.enqueuePrefetch(e.cycle, p)
	}

	// Charge the predictor's own off-chip traffic (LT-cords sequence
	// creation and fetch) to the memory bus.
	if traffic != nil {
		w, f := traffic.OffChipTrafficBytes()
		if dw := w - e.lastWrites; dw > 0 {
			e.dram.WriteBlock(e.cycle, int(dw))
			e.res.BytesSeqWrite += dw
			e.lastWrites = w
		}
		if df := f - e.lastFetches; df > 0 {
			e.dram.ReadBlock(e.cycle, int(df))
			e.res.BytesSeqFetch += df
			e.lastFetches = f
		}
	}
}

// L1Stats exposes the L1 cache counters after a run.
func (e *Engine) L1Stats() cache.Stats { return e.l1.Stats() }

// L2Stats exposes the L2 cache counters after a run.
func (e *Engine) L2Stats() cache.Stats { return e.l2.Stats() }

// MemBusUtilization returns the memory bus busy fraction over the run.
func (e *Engine) MemBusUtilization() float64 {
	return e.memBus.Utilization(e.cycle)
}
