package cpu

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func mustEngine(t *testing.T, p Params) *Engine {
	t.Helper()
	e, err := NewEngine(p, cache.Config{}, cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	p := DefaultParams()
	p.IssueWidth = 0
	if _, err := NewEngine(p, cache.Config{}, cache.Config{}); err == nil {
		t.Error("zero issue width must fail")
	}
	p = DefaultParams()
	p.TLBEntries = 100 // 100*8192/(8192*4)=25 sets: not a power of two
	if _, err := NewEngine(p, cache.Config{}, cache.Config{}); err == nil {
		t.Error("bad TLB geometry must fail")
	}
	p = DefaultParams()
	p.IssueWidth = 6 // the front end converts instructions to cycles by shift
	if _, err := NewEngine(p, cache.Config{}, cache.Config{}); err == nil {
		t.Error("non-power-of-two issue width must fail")
	}
	p = DefaultParams()
	p.PageBytes = 32 // the TLB is fed 64-byte L1 block addresses
	p.TLBEntries = 256
	if _, err := NewEngine(p, cache.Config{}, cache.Config{}); err == nil {
		t.Error("a page smaller than an L1 block must fail")
	}
}

// All-hit workload: IPC approaches the issue width over gap-dense streams.
func TestIdealIPC(t *testing.T) {
	p := DefaultParams()
	p.PerfectL1 = true
	e := mustEngine(t, p)
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x1000, Arrays: 1, Elems: 64, Stride: 8, Iters: 2000,
		Gap: workload.Gaps{Mean: 20}, PCBase: 0x10,
	})
	r := e.Run(src, sim.Null{})
	if got := r.IPC(); got < 6.0 || got > 8.01 {
		t.Errorf("perfect-L1 dense-gap IPC = %.2f want near 8", got)
	}
}

// A dependent chase with every access missing off-chip: IPC collapses, and
// the cycles are dominated by serialized memory latency (roughly 200+
// cycles per miss).
func TestDependentMissesSerialize(t *testing.T) {
	e := mustEngine(t, DefaultParams())
	src := workload.PointerChase(workload.ChaseConfig{
		Base: 0x100000, Nodes: 32768, NodeSize: 64, ShuffleLayout: true, Iters: 2, PCBase: 0x10, Seed: 1,
	})
	r := e.Run(src, sim.Null{})
	cyclesPerRef := float64(r.Cycles) / float64(r.Refs)
	t.Logf("dep chase: IPC=%.3f cycles/ref=%.1f L1miss=%d", r.IPC(), cyclesPerRef, r.L1Misses)
	if cyclesPerRef < 150 {
		t.Errorf("dependent off-chip misses must serialize: %.1f cycles/ref", cyclesPerRef)
	}
}

// The same misses without dependences overlap: MLP must make the run
// substantially faster than the dependent version.
func TestIndependentMissesOverlap(t *testing.T) {
	mkDep := func(dep bool) trace.Source {
		refs := make([]trace.Ref, 0, 65536)
		rng := workload.NewRNG(7)
		for i := 0; i < 65536; i++ {
			refs = append(refs, trace.Ref{
				PC:   0x40,
				Addr: mem.Addr(0x100000 + rng.Intn(1<<24)&^63),
				Dep:  dep,
			})
		}
		return trace.NewSliceSource(refs)
	}
	eDep := mustEngine(t, DefaultParams())
	rDep := eDep.Run(mkDep(true), sim.Null{})
	eInd := mustEngine(t, DefaultParams())
	rInd := eInd.Run(mkDep(false), sim.Null{})
	t.Logf("dep cycles=%d ind cycles=%d speedup=%.1fx", rDep.Cycles, rInd.Cycles,
		float64(rDep.Cycles)/float64(rInd.Cycles))
	if rInd.Cycles*3 > rDep.Cycles {
		t.Errorf("independent misses should overlap at least 3x: dep=%d ind=%d", rDep.Cycles, rInd.Cycles)
	}
}

// Perfect L1 must dominate every other configuration.
func TestPerfectL1IsUpperBound(t *testing.T) {
	mk := func() trace.Source {
		return workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 16384, Stride: 64, Iters: 3, PCBase: 0x10,
		})
	}
	base := mustEngine(t, DefaultParams()).Run(mk(), sim.Null{})
	p := DefaultParams()
	p.PerfectL1 = true
	perf := mustEngine(t, p).Run(mk(), sim.Null{})
	if perf.Cycles >= base.Cycles {
		t.Errorf("perfect L1 (%d cycles) must beat base (%d)", perf.Cycles, base.Cycles)
	}
}

// LT-cords speedup: on a correlated latency-bound sweep, the
// predictor-equipped machine must be materially faster than baseline and
// bounded by perfect L1. The sweep carries a compute gap so the baseline is
// exposed-latency-bound with spare bus bandwidth: a gap-free sweep
// saturates the memory bus with demand transfers alone, and a prefetcher
// that (honestly accounted) only adds metadata and mispredicted bytes
// cannot speed up a bandwidth-bound run.
func TestLTCordsSpeedsUpTimingRun(t *testing.T) {
	mk := func() trace.Source {
		return workload.ArraySweep(workload.SweepConfig{
			Base: 0x100000, Arrays: 2, Elems: 16384, Stride: 64, Iters: 5, PCBase: 0x10,
			Gap: workload.Gaps{Mean: 30},
		})
	}
	base := mustEngine(t, DefaultParams()).Run(mk(), sim.Null{})
	lt := core.MustNew(sim.PaperL1D(), core.DefaultParams())
	ltRes := mustEngine(t, DefaultParams()).Run(mk(), lt)
	p := DefaultParams()
	p.PerfectL1 = true
	perf := mustEngine(t, p).Run(mk(), sim.Null{})

	speedup := stats.PercentChange(float64(base.Cycles), float64(ltRes.Cycles))
	bound := stats.PercentChange(float64(base.Cycles), float64(perf.Cycles))
	t.Logf("base=%d lt=%d perfect=%d speedup=%.0f%% bound=%.0f%%", base.Cycles, ltRes.Cycles, perf.Cycles, speedup, bound)
	if speedup < 15 {
		t.Errorf("LT-cords speedup %.0f%% too small on covered sweep", speedup)
	}
	if ltRes.Cycles < perf.Cycles {
		t.Error("LT-cords cannot beat perfect L1")
	}
	if ltRes.BytesSeqWrite == 0 || ltRes.BytesSeqFetch == 0 {
		t.Error("LT-cords off-chip metadata traffic not charged")
	}
}

func TestTLBMissesCharged(t *testing.T) {
	// Stride of one page over many pages: every access a TLB miss after
	// the 256-entry TLB wraps.
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = trace.Ref{PC: 0x40, Addr: mem.Addr(i%1024) * 8192}
	}
	e := mustEngine(t, DefaultParams())
	r := e.Run(trace.NewSliceSource(refs), sim.Null{})
	if r.TLBMiss == 0 {
		t.Error("page-stride workload must miss the TLB")
	}
}

func TestBranchBubbles(t *testing.T) {
	p := DefaultParams()
	p.BranchMPKI = 10
	p.PerfectL1 = true
	e := mustEngine(t, p)
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x1000, Arrays: 1, Elems: 64, Stride: 8, Iters: 1000, Gap: workload.Gaps{Mean: 9}, PCBase: 0x10,
	})
	r := e.Run(src, sim.Null{})
	wantBubbles := r.Instrs * 10 / 1000
	if r.BranchBubbles < wantBubbles*9/10 || r.BranchBubbles > wantBubbles*11/10 {
		t.Errorf("branch bubbles = %d want ~%d", r.BranchBubbles, wantBubbles)
	}
	// IPC must be visibly below the no-misprediction run.
	p2 := p
	p2.BranchMPKI = 0
	e2 := mustEngine(t, p2)
	src2 := workload.ArraySweep(workload.SweepConfig{
		Base: 0x1000, Arrays: 1, Elems: 64, Stride: 8, Iters: 1000, Gap: workload.Gaps{Mean: 9}, PCBase: 0x10,
	})
	r2 := e2.Run(src2, sim.Null{})
	if r.Cycles <= r2.Cycles {
		t.Error("mispredictions must cost cycles")
	}
}

func TestDeadTimeHistogramWired(t *testing.T) {
	p := DefaultParams()
	p.DeadTimes = stats.NewLog2Histogram(40)
	e := mustEngine(t, p)
	src := workload.ArraySweep(workload.SweepConfig{
		Base: 0x100000, Arrays: 1, Elems: 8192, Stride: 64, Iters: 2, PCBase: 0x10, Gap: workload.Gaps{Mean: 4},
	})
	e.Run(src, sim.Null{})
	if p.DeadTimes.Total() == 0 {
		t.Error("no dead times recorded")
	}
}

func TestResultHelpers(t *testing.T) {
	var r Result
	if r.IPC() != 0 || r.BytesPerInstr() != 0 {
		t.Error("zero result helpers must be 0")
	}
	r = Result{Instrs: 1000, Cycles: 500, BytesBaseData: 1500, BytesSeqFetch: 500}
	if r.IPC() != 2 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.BytesPerInstr() != 2 {
		t.Errorf("BytesPerInstr = %v", r.BytesPerInstr())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() Result {
		e := mustEngine(t, DefaultParams())
		src := workload.PointerChase(workload.ChaseConfig{
			Base: 0x100000, Nodes: 8192, NodeSize: 64, ShuffleLayout: true, Iters: 3, PCBase: 0x10, Seed: 2,
		})
		lt := core.MustNew(sim.PaperL1D(), core.DefaultParams())
		return e.Run(src, lt)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("timing runs differ:\n%+v\n%+v", a, b)
	}
}
