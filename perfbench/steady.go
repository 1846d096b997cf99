package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// stealSeconds returns the CPU time the hypervisor has taken from the
// virtual machine the benchmark runs in, summed over its CPUs (the steal
// column of /proc/stat).
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal …
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseUint(f[8], 10, 64)
	return float64(ticks) / clockTicks
}

// stealSeries samples stealSeconds every 100 ms from the start of a
// timed phase until stop.
type stealSeries struct {
	start time.Time
	mu    sync.Mutex
	at    []float64 // seconds since start
	steal []float64
	once  sync.Once
	quit  chan struct{}
	done  chan struct{}
}

func startStealSeries(start time.Time) *stealSeries {
	s := &stealSeries{start: start, quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.quit:
				s.sample()
				return
			}
		}
	}()
	return s
}

func (s *stealSeries) sample() {
	v := stealSeconds()
	s.mu.Lock()
	s.at = append(s.at, time.Since(s.start).Seconds())
	s.steal = append(s.steal, v)
	s.mu.Unlock()
}

// stop ends sampling and returns once the sampler has exited. Calls
// after the first return at once.
func (s *stealSeries) stop() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// between returns the steal seconds between two phase times, from the
// samples that bracket them.
func (s *stealSeries) between(a, b float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	// last sample at or before a; first sample at or after b.
	i := sort.SearchFloat64s(s.at, a)
	if i == len(s.at) || (i > 0 && s.at[i] > a) {
		i--
	}
	j := min(sort.SearchFloat64s(s.at, b), len(s.at)-1)
	if i < 0 || j < i {
		return 0
	}
	return s.steal[j] - s.steal[i]
}

// stealLimit is the share of a stretch's CPU capacity (its length times
// the CPUs) the host may take before the stretch is set aside.
const stealLimit = 0.05

// minCleanUnits is how many units the host must have left alone for
// the others to be set aside. Steal comes in episodes of minutes, so a
// run can have few clean units; three still give a median, and a serve
// or warm window holds a thousand jobs.
const minCleanUnits = 3

// jobSample is one timed job: wall, CPU, MB allocated, peak RSS in MB,
// and when it completed, in seconds from the phase start.
type jobSample struct {
	wall, cpu, alloc, rss, done float64
}

// unit is a stretch of the timed phase judged as a whole: one cold job,
// or a window of a warm or serve phase.
type unit struct {
	jobs       []jobSample
	from, till float64
}

// steady sets the job metrics from the units of a timed phase that the
// host left alone: those where it took at most stealLimit of the CPU
// capacity, provided at least minCleanUnits qualify (otherwise all are
// used, and the run record says so). It returns the jobs of the
// units used. The same figures over every unit go to r.allUnits, which
// the run record prints, so that what setting units aside changes can
// be measured on the same runs.
func (r *result) steady(units []unit, st *stealSeries, perJob bool) []jobSample {
	capacity := float64(runtime.NumCPU())
	var clean []unit
	for _, u := range units {
		if st.between(u.from, u.till) <= stealLimit*(u.till-u.from)*capacity {
			clean = append(clean, u)
		}
	}
	used := clean
	if len(clean) < minCleanUnits {
		used = units
	}
	r.samples["units"] = len(units)
	r.samples["units_clean"] = len(clean)
	r.samples["units_used"] = len(used)
	r.steal = st.between(0, units[len(units)-1].till)
	all := newResult()
	all.setJobMetrics(units, perJob)
	r.allUnits = all.m
	return r.setJobMetrics(used, perJob)
}

// setJobMetrics sets the job metrics from the units of a timed phase and
// returns their jobs. Units of one job give the mean, percentiles and
// rate over those jobs; window units give the median over units of each
// unit's mean, percentiles and job rate, so a few seconds of stall move
// a few units, not the run's figures.
func (r *result) setJobMetrics(units []unit, perJob bool) []jobSample {
	var jobs []jobSample
	for _, u := range units {
		jobs = append(jobs, u.jobs...)
	}
	r.samples["job"] = len(jobs)
	pick := func(f func(jobSample) float64, js []jobSample) []float64 {
		out := make([]float64, len(js))
		for i, j := range js {
			out[i] = f(j)
		}
		return out
	}
	wall := func(j jobSample) float64 { return j.wall }
	if perJob {
		walls := pick(wall, jobs)
		var total float64
		for _, w := range walls {
			total += w
		}
		r.m.set("job_s", "s", mean(walls))
		r.m.set("job_p50_ms", "ms", quantile(walls, 0.50)*1e3)
		r.m.set("job_p90_ms", "ms", quantile(walls, 0.90)*1e3)
		r.m.set("job_p99_ms", "ms", quantile(walls, 0.99)*1e3)
		r.m.set("jobs_per_s", "1/s", float64(len(walls))/total)
		return jobs
	}
	var means, p50, p90, p99, rate []float64
	least := len(jobs)
	for _, u := range units {
		walls := pick(wall, u.jobs)
		rate = append(rate, float64(len(walls))/(u.till-u.from))
		if len(walls) == 0 {
			continue
		}
		means = append(means, mean(walls))
		p50 = append(p50, quantile(walls, 0.50)*1e3)
		p90 = append(p90, quantile(walls, 0.90)*1e3)
		p99 = append(p99, quantile(walls, 0.99)*1e3)
		least = min(least, len(walls))
	}
	r.samples["job_per_unit_least"] = least
	r.m.set("job_s", "s", median(means))
	r.m.set("job_p50_ms", "ms", median(p50))
	r.m.set("job_p90_ms", "ms", median(p90))
	r.m.set("job_p99_ms", "ms", median(p99))
	r.m.set("jobs_per_s", "1/s", median(rate))
	return jobs
}

// jobUnits makes one unit per job.
func jobUnits(jobs []jobSample) []unit {
	us := make([]unit, len(jobs))
	for i, j := range jobs {
		us[i] = unit{jobs: []jobSample{j}, from: j.done - j.wall, till: j.done}
	}
	return us
}

// windowUnits cuts a timed phase into whole windows of the given width
// by job completion time; a phase shorter than two windows is one unit.
func windowUnits(jobs []jobSample, phase, width float64) []unit {
	n := int(phase / width)
	if n < 2 {
		return []unit{{jobs: jobs, from: 0, till: phase}}
	}
	us := make([]unit, n)
	for i := range us {
		us[i] = unit{from: float64(i) * width, till: float64(i+1) * width}
	}
	for _, j := range jobs {
		if k := int(j.done / width); k < n {
			us[k].jobs = append(us[k].jobs, j)
		}
	}
	return us
}

// medianOf returns the median of one field over jobs.
func medianOf(jobs []jobSample, f func(jobSample) float64) float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return median(xs)
}
