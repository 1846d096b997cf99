package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/runner"
	"repro/internal/workload"
)

// coldPresets are the benchmarks each cold workload's jobs run. The
// default 28-preset sets take 20-45 s per job; these were chosen, by
// profiling every preset alone, as the smallest sets whose CPU profile
// by layer stays close to the full sets' (README.md, "Why these
// presets"). Cold-coverage's must be memory-intensive presets, which
// fig9 and fig10 cover by default, so that every row of a seed-1 job
// has a reference row in EXPERIMENTS.md.
var coldPresets = map[string][]string{
	"cold-coverage": {"wupwise"},
	"cold-timing":   {"gap", "sixtrack", "swim"},
}

// coldExperiments are the experiment sets of the two cold workloads: the
// coverage figures (sim, cache, core, dbcp, history, trace) and the
// timing ones (cpu, ghb, the scalar L2 path).
var coldExperiments = map[string][]string{
	"cold-coverage": {"fig4", "fig8", "fig9", "fig10"},
	"cold-timing":   {"fig2", "table2", "table3", "fig12"},
}

func coldSpec(name string, seed uint64) exp.JobSpec {
	return exp.JobSpec{Experiments: coldExperiments[name], Scale: workload.Small.String(), Seed: seed, Benchmarks: coldPresets[name]}
}

// startSpec is the first job a cold run does: one of its workload's
// experiments over the cheapest preset. Set-up is a harness process's
// start through this job.
func startSpec(name string, seed uint64) exp.JobSpec {
	id := map[string]string{"cold-coverage": "fig8", "cold-timing": "table2"}[name]
	return exp.JobSpec{Experiments: []string{id}, Scale: workload.Small.String(), Seed: seed, Benchmarks: []string{"gcc"}}
}

// runColdJob runs one memory-only job on a fresh one-worker scheduler:
// exp.RunJob once per experiment on that scheduler, each call a span
// when traced, and the rendered reports joined in order. It returns the
// text output and the job's scheduler counters.
func runColdJob(ctx context.Context, spec exp.JobSpec, rec *recorder, job int) (string, runner.Stats, error) {
	sched := runner.New(1)
	root := rec.open("job", -1, job)
	defer rec.close(root)
	var b bytes.Buffer
	for _, id := range spec.Experiments {
		one := spec
		one.Experiments = []string{id}
		t := time.Now()
		res, err := exp.RunJob(ctx, one, sched)
		rec.add("exp."+id, root, job, t, time.Now(), 0)
		if err != nil {
			return "", runner.Stats{}, err
		}
		if err := res.RenderText(&b); err != nil {
			return "", runner.Stats{}, err
		}
	}
	return b.String(), sched.Stats(), nil
}

// startRun is the whole of a harness process started with -start: run
// the workload's start job and verify it. Its exit status says whether
// it succeeded.
func startRun(ctx context.Context, e *env, name string) error {
	spec := startSpec(name, e.seed)
	text, _, err := runColdJob(ctx, spec, nil, -1)
	if err != nil {
		return err
	}
	return e.ver.check("start-"+name, text, spec.Benchmarks, spec.Experiments)
}

// coldWorkload runs cold-coverage or cold-timing: repeated cold jobs of
// one spec, each on a fresh scheduler with no persistent cache. Set-up
// is timed on fresh harness processes, each from exec to exit through
// loading the reference and running the start job (startRun); the run
// itself then runs the start job once before its timed phase.
func coldWorkload(ctx context.Context, e *env, ph phase) (*result, error) {
	res := newResult()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < ph.setups; i++ {
		cmd := exec.CommandContext(ctx, exe, "-start", "-workload", ph.workload,
			"-seed", strconv.FormatUint(e.seed, 10), "-root", e.root, "-out", e.out)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		t := time.Now()
		err := cmd.Run()
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			err = fmt.Errorf("start process: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		res.op(err)
	}
	res.m.set("setup_s", "s", median(setups))
	res.op(startRun(ctx, e, ph.workload))

	spec := coldSpec(ph.workload, e.seed)
	out, err := coldPhase(ctx, e, ph, spec)
	if err != nil {
		return nil, err
	}
	out.absorb(res)
	res = out
	if ph.rec != nil {
		spans := ph.rec.snapshot()
		for _, id := range spec.Experiments {
			var ds []float64
			for _, s := range named(spans, "exp."+id) {
				ds = append(ds, s.dur().Seconds())
			}
			res.layer.set("exp."+id+"_s", "s", median(ds))
		}
	}
	return res, nil
}

// coldPhase is one timed phase of a cold workload.
func coldPhase(ctx context.Context, e *env, ph phase, spec exp.JobSpec) (*result, error) {
	r := newResult()
	debug.FreeOSMemory()
	var samples []jobSample
	start := time.Now()
	steal := startStealSeries(start)
	defer steal.stop()
	var last time.Duration
	for n := 0; n < ph.minJobs || time.Since(start)+last/2 < ph.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec := ph.rec
		if ph.alternate && n%2 == 0 {
			rec = nil
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		c0, a0, t0 := cpuTime(), totalAlloc(), time.Now()
		text, st, err := runColdJob(ctx, spec, rec, n)
		t1 := time.Now()
		last = t1.Sub(t0)
		rss, rerr := peakRSSMB("self")
		if rerr != nil {
			return nil, rerr
		}
		samples = append(samples, jobSample{wall: last.Seconds(), cpu: (cpuTime() - c0).Seconds(),
			alloc: float64(totalAlloc()-a0) / (1 << 20), rss: rss, done: t1.Sub(start).Seconds()})
		r.alternated(ph, rec, last)
		if err == nil {
			err = e.ver.check(ph.workload, text, spec.Benchmarks, spec.Experiments)
		}
		r.op(err)
		if n == 0 && err == nil {
			r.layer.set("runner.cells_submitted", "count", float64(st.Submitted))
			r.layer.set("runner.cells_executed", "count", float64(st.Executed))
			r.layer.set("runner.cells_hits", "count", float64(st.Hits))
		}
	}
	steal.stop()
	used := r.steady(jobUnits(samples), steal, true)
	r.m.set("cpu_s", "s", medianOf(used, func(j jobSample) float64 { return j.cpu }))
	r.m.set("alloc_mb", "MB", medianOf(used, func(j jobSample) float64 { return j.alloc }))
	r.m.set("peak_rss_mb", "MB", medianOf(used, func(j jobSample) float64 { return j.rss }))
	return r, nil
}
