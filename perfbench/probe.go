package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/cachedir"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dbcp"
	"repro/internal/exp"
	"repro/internal/ghb"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// measure times f after a collection, so garbage from earlier steps is
// not charged to it, and returns its wall time and bytes allocated.
func measure(f func() error) (time.Duration, uint64, error) {
	runtime.GC()
	a := totalAlloc()
	t := time.Now()
	err := f()
	return time.Since(t), totalAlloc() - a, err
}

// drain pulls a source to its end and returns the references read.
func drain(src trace.Source) uint64 {
	buf := make([]trace.Ref, trace.DefaultBatch)
	var n uint64
	for {
		k := src.ReadRefs(buf)
		if k == 0 {
			return n
		}
		n += uint64(k)
	}
}

// probeTotals accumulates the layer probe over presets.
type probeTotals struct {
	refs, encoded, matAlloc                      uint64
	gen, mat, replay                             time.Duration
	simNull, simCore, simDBCPUnl, simDBCPTable   time.Duration
	coreNewAlloc, coreRunAlloc, dbcpNewAlloc     uint64
	l1Misses, coreCorrect, coreOpp, sigCacheHits uint64
	cpuNull, cpuLT, cpuGHB, cpuDBCP              time.Duration
	cpuNewAlloc, cycles, l2Accesses, drops       uint64
	addTrace                                     []float64
}

// layerProbe calls each simulation layer directly over the cold
// workloads' presets, at the same scale and seed, in pipeline order:
// generation, materialization, cursor replay, the coverage simulator
// with no predictor, LT-cords and DBCP (unlimited and a 2MB table), the
// timing engine with no prefetcher, LT-cords, GHB and DBCP, and storing
// the trace in a fresh cache directory. Each layer's self cost is its
// call minus the call it builds on (replay under the simulator, the
// no-predictor run under a predictor), per reference.
func layerProbe(e *env, m metrics) error {
	var t probeTotals
	for _, name := range append(coldPresets["cold-coverage"], coldPresets["cold-timing"]...) {
		if err := probePreset(e, name, &t); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
	}
	refs := float64(t.refs)
	perRef := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / refs }
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	m.set("workload.gen_ns_per_ref", "ns", perRef(t.gen))
	m.set("trace.refs", "count", refs)
	m.set("trace.materialize_ns_per_ref", "ns", perRef(t.mat-t.gen))
	m.set("trace.materialize_alloc_b_per_ref", "B", float64(t.matAlloc)/refs)
	m.set("trace.encoded_b_per_ref", "B", float64(t.encoded)/refs)
	m.set("trace.replay_ns_per_ref", "ns", perRef(t.replay))
	m.set("sim.base_ns_per_ref", "ns", perRef(t.simNull-t.replay))
	m.set("sim.l1_misses", "count", float64(t.l1Misses))
	m.set("core.self_ns_per_ref", "ns", perRef(t.simCore-t.simNull))
	m.set("core.new_alloc_mb", "MB", mb(t.coreNewAlloc))
	m.set("core.run_alloc_mb", "MB", mb(t.coreRunAlloc))
	m.set("core.coverage_pct", "%", 100*float64(t.coreCorrect)/float64(max(t.coreOpp, 1)))
	m.set("core.sig_cache_hits", "count", float64(t.sigCacheHits))
	m.set("dbcp.unlimited_self_ns_per_ref", "ns", perRef(t.simDBCPUnl-t.simNull))
	m.set("dbcp.table_self_ns_per_ref", "ns", perRef(t.simDBCPTable-t.simNull))
	m.set("dbcp.new_alloc_mb", "MB", mb(t.dbcpNewAlloc))
	m.set("cpu.base_ns_per_ref", "ns", perRef(t.cpuNull-t.replay))
	m.set("cpu.ltcords_ns_per_ref", "ns", perRef(t.cpuLT-t.cpuNull))
	m.set("cpu.ghb_ns_per_ref", "ns", perRef(t.cpuGHB-t.cpuNull))
	m.set("cpu.dbcp_ns_per_ref", "ns", perRef(t.cpuDBCP-t.cpuNull))
	m.set("cpu.host_ns_per_sim_cycle", "ns", float64(t.cpuNull.Nanoseconds())/float64(max(t.cycles, 1)))
	m.set("cpu.new_alloc_mb", "MB", mb(t.cpuNewAlloc))
	m.set("cpu.sim_cycles", "count", float64(t.cycles))
	m.set("cpu.l2_accesses", "count", float64(t.l2Accesses))
	m.set("cpu.prefetch_drops", "count", float64(t.drops))
	m.set("cachedir.add_trace_ms", "ms", median(t.addTrace))
	return nil
}

func probePreset(e *env, name string, t *probeTotals) error {
	p, ok := workload.ByName(name)
	if !ok {
		return fmt.Errorf("no preset %s", name)
	}
	sc := workload.Small
	var gen uint64
	d, _, _ := measure(func() error { gen = drain(p.Source(sc, e.seed)); return nil })
	t.gen += d
	var mt *trace.Materialized
	d, a, _ := measure(func() error { mt = trace.Materialize(p.Source(sc, e.seed)); return nil })
	t.mat += d
	t.matAlloc += a
	if mt.Refs() != gen {
		return fmt.Errorf("materialized %d refs, generated %d", mt.Refs(), gen)
	}
	t.refs += gen
	t.encoded += uint64(mt.Bytes())
	var replayed uint64
	d, _, _ = measure(func() error { replayed = drain(mt.Cursor()); return nil })
	t.replay += d
	if replayed != gen {
		return fmt.Errorf("replayed %d refs, generated %d", replayed, gen)
	}

	// Coverage simulator: no predictor, LT-cords, DBCP.
	var base sim.Coverage
	d, _, err := measure(func() (err error) { base, err = sim.RunCoverage(mt.Cursor(), sim.Null{}, sim.Config{}); return })
	if err != nil {
		return err
	}
	t.simNull += d
	t.l1Misses += base.Opportunity
	var lt *core.Predictor
	_, a, err = measure(func() (err error) { lt, err = core.New(sim.PaperL1D(), core.DefaultParams()); return })
	if err != nil {
		return err
	}
	t.coreNewAlloc += a
	var cov sim.Coverage
	d, a, err = measure(func() (err error) { cov, err = sim.RunCoverage(mt.Cursor(), lt, sim.Config{}); return })
	if err != nil {
		return err
	}
	t.simCore += d
	t.coreRunAlloc += a
	t.coreCorrect += cov.Correct
	t.coreOpp += cov.Opportunity
	t.sigCacheHits += lt.Stats().SigCacheHits
	for _, params := range []dbcp.Params{dbcp.UnlimitedParams(), dbcp.DefaultParams()} {
		var pr *dbcp.Predictor
		_, a, err := measure(func() (err error) { pr, err = dbcp.New(sim.PaperL1D(), params); return })
		if err != nil {
			return err
		}
		d, _, err := measure(func() error { _, err := sim.RunCoverage(mt.Cursor(), pr, sim.Config{}); return err })
		if err != nil {
			return err
		}
		if params.TableBytes == 0 {
			t.simDBCPUnl += d
		} else {
			t.simDBCPTable += d
			t.dbcpNewAlloc += a
		}
	}

	// Timing engine, configured as the timing cells configure it: the
	// preset's branch behaviour, 30% detailed warm-up, dead-time sink.
	params := cpu.DefaultParams()
	params.BranchMPKI = p.BranchMPKI
	params.WarmupInstrs = mt.Stats().Instrs * 30 / 100
	pfs := []struct {
		dst *time.Duration
		mk  func() (sim.Prefetcher, error)
	}{
		{&t.cpuNull, func() (sim.Prefetcher, error) { return sim.Null{}, nil }},
		{&t.cpuLT, func() (sim.Prefetcher, error) { return core.New(sim.PaperL1D(), core.DefaultParams()) }},
		{&t.cpuGHB, func() (sim.Prefetcher, error) { return ghb.New(sim.PaperL1D(), ghb.DefaultParams()) }},
		{&t.cpuDBCP, func() (sim.Prefetcher, error) { return dbcp.New(sim.PaperL1D(), dbcp.ScaledParams()) }},
	}
	for i, pf := range pfs {
		pr, err := pf.mk()
		if err != nil {
			return err
		}
		params.DeadTimes = stats.NewLog2Histogram(36)
		var eng *cpu.Engine
		_, a, err := measure(func() (err error) { eng, err = cpu.NewEngine(params, cache.Config{}, cache.Config{}); return })
		if err != nil {
			return err
		}
		var res cpu.Result
		d, _, _ := measure(func() error { res = eng.Run(mt.Cursor(), pr); return nil })
		*pf.dst += d
		switch i {
		case 0:
			t.cpuNewAlloc += a
			t.cycles += res.Cycles
			t.l2Accesses += eng.L2Stats().Accesses
		case 1:
			t.drops += res.PrefetchDrops
		}
	}

	// Trace tier write: what a populate run pays per preset trace.
	dir, err := exp.OpenCache(filepath.Join(e.work, "probe-cache-"+name), cachedir.ReadWrite, 0)
	if err != nil {
		return err
	}
	d, _, err = measure(func() error { _, err := dir.AddTrace(mt); return err })
	if err != nil {
		return err
	}
	t.addTrace = append(t.addTrace, d.Seconds()*1e3)
	return nil
}
