package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestHighestSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 0, Start: 0, End: 100, Parent: -1}
	sp := func(lo, hi int64) span { return span{Start: lo, End: hi, Parent: 0} }
	for _, c := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"none", nil, 100},
		{"back-to-back", []span{sp(10, 20), sp(20, 30)}, 80},
		{"nested", []span{sp(10, 40), sp(15, 25)}, 70},
		{"overlapping", []span{sp(10, 30), sp(20, 50)}, 60},
		{"disjoint", []span{sp(60, 70), sp(0, 10)}, 80},
		{"outside parent", []span{sp(90, 120), sp(-5, 5)}, 85},
		{"whole", []span{sp(0, 100), sp(50, 60)}, 0},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimeFromRecorder(t *testing.T) {
	r := newRecorder()
	t0 := r.t0
	at := func(ns int) time.Time { return t0.Add(time.Duration(ns)) }
	job := r.add("job", -1, 0, at(0), at(1000), 0)
	get := r.add("cachedir.get", job, 0, at(100), at(300), 64)
	r.add("inner", get, 0, at(150), at(200), 0) // a grandchild: already inside get
	r.add("exp.render", job, 0, at(300), at(400), 0)
	r.add("job", -1, 1, at(0), at(50), 0)
	spans := r.snapshot()
	if got := selfTime(spans[job], children(spans, job)); got != 700 {
		t.Errorf("job self time = %v, want 700ns", got)
	}
	if n := len(named(spans, "job")); n != 2 {
		t.Errorf("named(job) = %d spans, want 2", n)
	}
	var nilRec *recorder
	if id := nilRec.open("x", -1, 0); id != -1 {
		t.Errorf("nil recorder open = %d, want -1", id)
	}
	nilRec.close(-1)
}

func TestMetricValidation(t *testing.T) {
	good := metrics{}
	for _, name := range []string{"job_s", "exp.fig4_s", "cachedir.get_p99_us", "bench.trace_overhead_pct", "9lives", "a-b"} {
		good.set(name, "s", 1)
	}
	if err := good.validate(); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	for _, name := range []string{"", "has space", "a/b", ".leading", "_x", "naïve", strings.Repeat("x", 65)} {
		m := metrics{}
		m.set(name, "s", 1)
		if m.validate() == nil {
			t.Errorf("name %q accepted", name)
		}
	}
	nan := metrics{}
	nan.set("job_s", "s", math.NaN())
	if nan.validate() == nil {
		t.Error("NaN value accepted")
	}
}

const fakeExperiments = "# results\n\n```\n" +
	"== fig8: coverage ==\n\n" +
	"benchmark  correct  incorrect\n" +
	"---------  -------  ---------\n" +
	"applu      70.6%    2.1%\n" +
	"gcc        43.9%    10.6%\n" +
	"mcf        49.3%    8.6%\n\n" +
	"note: mean coverage: 54.6%\n\n" +
	"== fig4: table size ==\n\n" +
	"size  average\n" +
	"16KB  24.5%\n" +
	"```\n"

// subsetOutput is what a job over {mcf, applu} prints: the preset rows
// of the reference (with its own column widths) and its own means.
const subsetOutput = "== fig8: coverage ==\n\n" +
	"benchmark  correct  incorrect\n" +
	"---------  -------  ---------\n" +
	"applu  70.6%  2.1%\n" +
	"mcf    49.3%  8.6%\n\n" +
	"note: mean coverage: 59.9%\n\n" +
	"== fig4: table size ==\n\n" +
	"size  average\n" +
	"16KB  31.0%\n\n"

func TestVerifyFlagsTamperedReport(t *testing.T) {
	ref, err := parseReference([]byte(fakeExperiments))
	if err != nil {
		t.Fatal(err)
	}
	presets, ids := []string{"mcf", "applu"}, []string{"fig8", "fig4"}
	tampered := strings.Replace(subsetOutput, "49.3%", "49.4%", 1)

	// Seed 1: the first output is checked row by row against the
	// reference; a tampered row fails, the true one passes, and a
	// tampered later output fails against the run's first.
	v := newVerifier(ref, 1)
	res := newResult()
	res.op(v.check("job", tampered, presets, ids))
	res.op(v.check("job", subsetOutput, presets, ids))
	res.op(v.check("job", subsetOutput, presets, ids))
	res.op(v.check("job", tampered, presets, ids))
	if res.attempted != 4 || res.failed != 2 {
		t.Errorf("seed 1: attempted %d failed %d, want 4 and 2 (%v)", res.attempted, res.failed, res.errs)
	}
	if v.rows != 2 {
		t.Errorf("seed 1: %d reference rows compared, want 2", v.rows)
	}

	// Any other seed: no reference rows, but every output must equal the
	// run's first byte for byte.
	v = newVerifier(ref, 7)
	res = newResult()
	res.op(v.check("job", subsetOutput, presets, ids))
	res.op(v.check("job", tampered, presets, ids))
	res.op(v.check("job", strings.TrimSuffix(subsetOutput, "\n"), presets, ids))
	if res.attempted != 3 || res.failed != 2 {
		t.Errorf("seed 7: attempted %d failed %d, want 3 and 2 (%v)", res.attempted, res.failed, res.errs)
	}

	// Missing or reordered reports fail too.
	v = newVerifier(ref, 7)
	if err := v.check("job", subsetOutput, presets, []string{"fig4", "fig8"}); err == nil {
		t.Error("reordered reports accepted")
	}
	if err := v.check("job2", subsetOutput, presets, []string{"fig8"}); err == nil {
		t.Error("extra report accepted")
	}
}

func TestSplitReports(t *testing.T) {
	reps := splitReports(subsetOutput)
	if len(reps) != 2 || reps[0].ID != "fig8" || reps[1].ID != "fig4" {
		t.Fatalf("splitReports = %+v", reps)
	}
	if reps[0].Text+reps[1].Text != subsetOutput {
		t.Error("reports do not reassemble the output")
	}
	if reps[0].sha() == reps[1].sha() {
		t.Error("distinct reports share a sha")
	}
}

func TestResultOp(t *testing.T) {
	res := newResult()
	res.op(nil)
	for i := 0; i < 10; i++ {
		res.op(errors.New("boom"))
	}
	if res.attempted != 11 || res.failed != 10 || len(res.errs) != 8 {
		t.Errorf("attempted %d failed %d errs %d", res.attempted, res.failed, len(res.errs))
	}
}

func TestWindowMediansIgnoreOneSlowWindow(t *testing.T) {
	// Four one-second windows of one job each; the third job stalled.
	jobs := []jobSample{{wall: 0.010, done: 0.5}, {wall: 0.010, done: 1.5}, {wall: 0.500, done: 2.5}, {wall: 0.010, done: 3.5}}
	res := newResult()
	if used := res.setJobMetrics(windowUnits(jobs, 4, 1), false); len(used) != 4 {
		t.Fatalf("used %d jobs, want 4", len(used))
	}
	if got := res.m["job_p99_ms"].Value; math.Abs(got-10) > 1e-9 {
		t.Errorf("job_p99_ms = %v, want 10 (the median window's)", got)
	}
	if got := res.m["jobs_per_s"].Value; got != 1 {
		t.Errorf("jobs_per_s = %v, want 1", got)
	}
}
func TestSteadySetsAsideStolenUnits(t *testing.T) {
	// Four one-second units of one 10 ms job each; the host takes 1 s of
	// CPU time during the third second, far above stealLimit.
	jobs := []jobSample{{wall: 0.010, done: 0.5}, {wall: 0.010, done: 1.5}, {wall: 0.500, done: 2.5}, {wall: 0.010, done: 3.5}}
	st := &stealSeries{at: []float64{0, 1, 2, 3, 4}, steal: []float64{0, 0, 0, 1, 1}}
	res := newResult()
	used := res.steady(windowUnits(jobs, 4, 1), st, false)
	if len(used) != 3 || res.samples["units_clean"] != 3 {
		t.Fatalf("used %d jobs, %d clean units; want 3 and 3", len(used), res.samples["units_clean"])
	}
	if got := res.m["job_p99_ms"].Value; math.Abs(got-10) > 1e-9 {
		t.Errorf("job_p99_ms = %v, want 10 (the stolen second set aside)", got)
	}

	// Cold jobs are units of their own; the run record keeps the
	// figures over every job beside those over the clean ones.
	cold := []jobSample{{wall: 1, done: 1}, {wall: 2, done: 3}, {wall: 1, done: 4.5}, {wall: 1, done: 5.5}}
	st = &stealSeries{at: []float64{0, 1, 2, 3, 4, 5, 6}, steal: []float64{0, 0, 0, 1, 1, 1, 1}}
	res = newResult()
	if used := res.steady(jobUnits(cold), st, true); len(used) != 3 {
		t.Fatalf("used %d cold jobs, want 3", len(used))
	}
	if got, all := res.m["jobs_per_s"].Value, res.allUnits["jobs_per_s"].Value; got != 1 || all != 0.8 || res.samples["units"] != 4 {
		t.Errorf("jobs_per_s %v over clean jobs, %v over all; units %d", got, all, res.samples["units"])
	}

	// When fewer than minCleanUnits are clean, all are used.
	st = &stealSeries{at: []float64{0, 1, 2, 3, 4}, steal: []float64{0, 1, 2, 3, 3}}
	res = newResult()
	if used := res.steady(windowUnits(jobs, 4, 1), st, false); len(used) != 4 {
		t.Errorf("used %d jobs, want all 4", len(used))
	}
}
