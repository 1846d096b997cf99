package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/cachedir"
	"repro/internal/exp"
	"repro/internal/runner"
)

// timedStore is the runner.CacheStore the traced run puts between the
// scheduler and a cachedir.Dir: every Get and Put becomes a span
// carrying its byte count.
type timedStore struct {
	dir         *cachedir.Dir
	rec         *recorder
	parent, job int
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t := time.Now()
	b, ok := s.dir.Get(key)
	s.rec.add("cachedir.get", s.parent, s.job, t, time.Now(), int64(len(b)))
	return b, ok
}

func (s *timedStore) Put(key string, data []byte) bool {
	t := time.Now()
	ok := s.dir.Put(key, data)
	s.rec.add("cachedir.put", s.parent, s.job, t, time.Now(), int64(len(data)))
	return ok
}

// cacheJob runs one job against the persistent cache at dir the way a
// new `ltexp -cache-dir dir` process does: open the directory, attach
// it to a fresh one-worker scheduler, run the spec, render the text.
// Traced, the job, the open, every store call and the render are spans.
func cacheJob(ctx context.Context, dir string, spec exp.JobSpec, rec *recorder, job int) (string, runner.Stats, error) {
	root := rec.open("job", -1, job)
	defer rec.close(root)
	t := time.Now()
	d, err := exp.OpenCache(dir, cachedir.ReadWrite, 0)
	rec.add("cachedir.open", root, job, t, time.Now(), 0)
	if err != nil {
		return "", runner.Stats{}, err
	}
	sched := runner.New(1)
	if rec == nil {
		sched.SetStore(d)
	} else {
		sched.SetStore(&timedStore{dir: d, rec: rec, parent: root, job: job})
	}
	spec.Cache = d
	res, err := exp.RunJob(ctx, spec, sched)
	if err != nil {
		return "", runner.Stats{}, err
	}
	t = time.Now()
	var b bytes.Buffer
	err = res.RenderText(&b)
	rec.add("exp.render", root, job, t, time.Now(), int64(b.Len()))
	return b.String(), res.Stats, err
}

// warmWorkload runs warm-rerun: the set-up populates a fresh cache
// directory with one cold-timing job; the timed phase reruns that spec
// against the populated directory, which must serve every cell from disk.
func warmWorkload(ctx context.Context, e *env, ph phase) (*result, error) {
	res := newResult()
	spec := coldSpec("cold-timing", e.seed)
	var setups []float64
	var dir string
	var populate runner.Stats
	for i := 0; i < ph.setups; i++ {
		dir = filepath.Join(e.work, fmt.Sprintf("warm-%d", i))
		t := time.Now()
		text, st, err := cacheJob(ctx, dir, spec, ph.rec, -1-i)
		setups = append(setups, time.Since(t).Seconds())
		if err == nil {
			err = e.ver.check("cold-timing", text, spec.Benchmarks, spec.Experiments)
		}
		res.op(err)
		populate = st
	}
	res.m.set("setup_s", "s", median(setups))

	out, err := warmPhase(ctx, e, ph, dir, spec)
	if err != nil {
		return nil, err
	}
	out.absorb(res)
	res = out
	res.layer.set("runner.persisted", "count", float64(populate.Persisted))
	if ph.rec != nil {
		warmLayers(res.layer, ph.rec.snapshot())
	}
	return res, nil
}

// warmPhase is one timed phase of warm-rerun over the populated dir.
func warmPhase(ctx context.Context, e *env, ph phase, dir string, spec exp.JobSpec) (*result, error) {
	r := newResult()
	if err := startTimedPhase(); err != nil {
		return nil, err
	}
	var samples []jobSample
	var diskHits uint64
	start := time.Now()
	steal := startStealSeries(start)
	defer steal.stop()
	for n := 0; n < ph.minJobs || time.Since(start) < ph.seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec := ph.rec
		if ph.alternate && n%2 == 0 {
			rec = nil
		}
		c0, a0, t0 := cpuTime(), totalAlloc(), time.Now()
		text, st, err := cacheJob(ctx, dir, spec, rec, n)
		t1 := time.Now()
		samples = append(samples, jobSample{wall: t1.Sub(t0).Seconds(), cpu: (cpuTime() - c0).Seconds(),
			alloc: float64(totalAlloc()-a0) / (1 << 20), done: t1.Sub(start).Seconds()})
		r.alternated(ph, rec, t1.Sub(t0))
		if err == nil && st.Executed != 0 {
			err = fmt.Errorf("warm job %d executed %d cells, want 0", n, st.Executed)
		}
		if err == nil {
			err = e.ver.check("cold-timing", text, spec.Benchmarks, spec.Experiments)
		}
		r.op(err)
		diskHits = st.DiskHits
	}
	phaseWall := time.Since(start).Seconds()
	steal.stop()
	// Three-second windows hold over a thousand warm jobs each, so each
	// window's p99 has ten jobs beyond it.
	used := r.steady(windowUnits(samples, phaseWall, 3), steal, false)
	r.m.set("cpu_s", "s", medianOf(used, func(j jobSample) float64 { return j.cpu }))
	r.m.set("alloc_mb", "MB", medianOf(used, func(j jobSample) float64 { return j.alloc }))
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.m.set("peak_rss_mb", "MB", rss)
	r.layer.set("runner.disk_hits", "count", float64(diskHits))
	return r, nil
}

// warmLayers derives the runner, cachedir and exp per-layer metrics from
// the spans of the populate jobs (negative job ids) and the warm jobs.
func warmLayers(m metrics, spans []span) {
	var self, opens, render, getUS, getKB, putUS []float64
	var gets, warmJobs, puts, populates int
	for _, s := range spans {
		switch s.Name {
		case "cachedir.open":
			if s.Job >= 0 {
				opens = append(opens, s.dur().Seconds()*1e3)
			}
		case "cachedir.get":
			if s.Job >= 0 {
				gets++
				getUS = append(getUS, s.dur().Seconds()*1e6)
				getKB = append(getKB, float64(s.Bytes)/1024)
			}
		case "cachedir.put":
			puts++
			putUS = append(putUS, s.dur().Seconds()*1e6)
		case "exp.render":
			if s.Job >= 0 {
				render = append(render, s.dur().Seconds()*1e3)
			}
		case "job":
			if s.Job < 0 {
				populates++
				continue
			}
			warmJobs++
			self = append(self, selfTime(s, children(spans, s.ID)).Seconds()*1e3)
		}
	}
	m.set("runner.warm_self_ms", "ms", median(self))
	m.set("exp.render_ms", "ms", median(render))
	m.set("cachedir.open_ms", "ms", median(opens))
	m.set("cachedir.gets", "count", float64(gets)/float64(max(warmJobs, 1)))
	m.set("cachedir.get_us", "us", median(getUS))
	m.set("cachedir.get_p99_us", "us", quantile(getUS, 0.99))
	m.set("cachedir.get_kb", "KB", mean(getKB))
	m.set("cachedir.puts", "count", float64(puts)/float64(max(populates, 1)))
	m.set("cachedir.put_us", "us", median(putUS))
}
