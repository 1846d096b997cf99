package ghb

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(sim.PaperL1D(), Params{IndexEntries: 100, BufferEntries: 256, Depth: 4}); err == nil {
		t.Error("non-power-of-two IT must fail")
	}
	if _, err := New(sim.PaperL1D(), Params{IndexEntries: 256, BufferEntries: 2, Depth: 4}); err == nil {
		t.Error("tiny GHB must fail")
	}
	if _, err := New(sim.PaperL1D(), Params{IndexEntries: 256, BufferEntries: 100, Depth: 4}); err == nil {
		t.Error("non-power-of-two GHB must fail (the ring is indexed by mask)")
	}
	if _, err := New(sim.PaperL1D(), Params{IndexEntries: 256, BufferEntries: 256, Depth: 0}); err == nil {
		t.Error("zero depth must fail")
	}
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	if pr.Name() != "ghb-pc/dc" {
		t.Errorf("name = %q", pr.Name())
	}
}

func TestTrainsOnMissesOnly(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	pr.OnAccess(trace.Ref{PC: 0x10, Addr: 0x1000}, true, nil, nil)
	if pr.Stats().Misses != 0 {
		t.Error("hits must not train the GHB")
	}
	pr.OnAccess(trace.Ref{PC: 0x10, Addr: 0x1000}, false, nil, nil)
	if pr.Stats().Misses != 1 {
		t.Error("miss not observed")
	}
}

// A constant-stride miss stream: after the delta pair recurs, PC/DC must
// predict the following blocks.
func TestConstantStridePrediction(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	var preds []sim.Prediction
	for i := 0; i < 10; i++ {
		addr := mem.Addr(0x10000 + i*64)
		preds = pr.OnAccess(trace.Ref{PC: 0x44, Addr: addr}, false, nil, nil)
	}
	if len(preds) != 4 {
		t.Fatalf("depth-4 prediction returned %d prefetches", len(preds))
	}
	// Last miss at 0x10000+9*64; predictions continue the +64 stride.
	for i, p := range preds {
		want := mem.Addr(0x10000 + (10+i)*64)
		if p.Addr != want {
			t.Errorf("pred %d = %#x want %#x", i, p.Addr, want)
		}
		if p.UseVictim {
			t.Error("GHB does not target dead blocks")
		}
	}
}

// A repeating non-constant delta pattern (delta correlation, not stride).
func TestDeltaPatternPrediction(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	// Pattern of block deltas: +1, +3, +1, +3, ... (in 64B units).
	addr := mem.Addr(0x40000)
	deltas := []int64{64, 192, 64, 192, 64, 192, 64, 192}
	var preds []sim.Prediction
	for _, d := range deltas {
		addr += mem.Addr(d)
		preds = pr.OnAccess(trace.Ref{PC: 0x88, Addr: addr}, false, nil, nil)
	}
	if len(preds) < 2 {
		t.Fatal("recurring delta pair produced too few predictions")
	}
	// The stream alternates +64, +192 and the last delta was +192, so the
	// next deltas are +64, +192, ...
	if preds[0].Addr != addr+64 {
		t.Errorf("first pred = %#x want %#x", preds[0].Addr, addr+64)
	}
	if preds[1].Addr != addr+64+192 {
		t.Errorf("second pred = %#x want %#x", preds[1].Addr, addr+64+192)
	}
}

// Interleaved PCs keep separate chains: stride per PC is detected even when
// the global miss stream alternates.
func TestPCLocalization(t *testing.T) {
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	var predsA, predsB []sim.Prediction
	for i := 0; i < 12; i++ {
		predsA = pr.OnAccess(trace.Ref{PC: 0x100, Addr: mem.Addr(0x10000 + i*64)}, false, nil, nil)
		predsB = pr.OnAccess(trace.Ref{PC: 0x200, Addr: mem.Addr(0x90000 + i*128)}, false, nil, nil)
	}
	if len(predsA) == 0 || len(predsB) == 0 {
		t.Fatal("interleaved strides not detected")
	}
	if predsA[0].Addr != mem.Addr(0x10000+12*64) {
		t.Errorf("PC A pred = %#x", predsA[0].Addr)
	}
	if predsB[0].Addr != mem.Addr(0x90000+12*128) {
		t.Errorf("PC B pred = %#x", predsB[0].Addr)
	}
}

// End-to-end: GHB covers a strided streaming workload well. GHB targets
// the L2 ("only last-touch prediction can place blocks in the L1D without
// pollution"), so its coverage is measured at the off-chip level.
func TestCoversRegularStream(t *testing.T) {
	src := workload.StreamOnce(workload.StreamConfig{
		Base: 0x100000, Bytes: 4 << 20, Stride: 64, Passes: 2, PCBase: 0x10,
	})
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	cov, err := sim.RunCoverage(src, pr, sim.Config{WithL2: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stream: L1 coverage=%.1f%% L2 coverage=%.1f%%", cov.CoveragePct()*100, cov.L2CoveragePct()*100)
	if cov.L2CoveragePct() < 0.5 {
		t.Errorf("GHB off-chip coverage %.2f too low on a regular stream", cov.L2CoveragePct())
	}
	if cov.EarlyPct() > 0.01 {
		t.Errorf("L2-targeted prefetches must not pollute the L1 (early=%.2f)", cov.EarlyPct())
	}
}

// ...but fails on a shuffled pointer chase (the paper's motivating contrast
// with address correlation).
func TestFailsOnShuffledChase(t *testing.T) {
	src := workload.PointerChase(workload.ChaseConfig{
		Base: 0x100000, Nodes: 16384, NodeSize: 64, ShuffleLayout: true, Iters: 4, PCBase: 0x10, Seed: 9,
	})
	pr := MustNew(sim.PaperL1D(), DefaultParams())
	cov, err := sim.RunCoverage(src, pr, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chase: coverage=%.1f%%", cov.CoveragePct()*100)
	if cov.CoveragePct() > 0.10 {
		t.Errorf("GHB should not cover an irregular chase, got %.2f", cov.CoveragePct())
	}
}

// Buffer wrap: old entries become unreachable, no stale pointers survive.
func TestCircularBufferWrap(t *testing.T) {
	p := DefaultParams()
	p.BufferEntries = 16
	pr := MustNew(sim.PaperL1D(), p)
	for i := 0; i < 100; i++ {
		pc := mem.Addr(0x100 + (i%3)*0x40)
		pr.OnAccess(trace.Ref{PC: pc, Addr: mem.Addr(i * 6400)}, false, nil, nil)
	}
	// Pointers older than 16 pushes must be dead.
	if pr.live(pr.head - 16) {
		t.Error("entry at head-16 must be dead in a 16-entry buffer")
	}
	if !pr.live(pr.head) {
		t.Error("newest entry must be live")
	}
	if pr.live(0) || pr.live(pr.head+1) {
		t.Error("zero/future pointers must be dead")
	}
}
