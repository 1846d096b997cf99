// Command perfbench is the repository's end-to-end benchmark. It times
// calls into each layer's public functions from outside — exp.RunJob and
// exp.Run, the runner scheduler with a persistent cachedir store, the
// real ltexpd binary over HTTP, and (in the traced run) a probe of the
// workload, trace, sim, core, dbcp and cpu layers — and verifies every
// output it times. See README.md for the workloads and metrics.
//
// Run it through run.sh, which builds it and ltexpd first:
//
//	bash perfbench/run.sh --workload cold-coverage --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 they are the per-layer ones from a traced
// pass over every workload plus the layer probe.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/buildinfo"
)

// workloadFunc runs one workload's timed phase (setup included) and
// returns its outcome.
type workloadFunc func(ctx context.Context, e *env, ph phase) (*result, error)

// workloads in the order the traced pass runs them.
var workloads = []struct {
	name string
	run  workloadFunc
}{
	{"cold-coverage", coldWorkload},
	{"cold-timing", coldWorkload},
	{"warm-rerun", warmWorkload},
	{"serve", serveWorkload},
}

// env is what every workload shares within one run.
type env struct {
	root      string // repository root
	out, work string // build directory, this run's scratch directory
	seed      uint64
	ver       *verifier
}

// phase says how a workload runs: for how long, how many set-ups, and
// whether its calls are traced.
type phase struct {
	workload string
	seconds  time.Duration
	minJobs  int
	setups   int
	rec      *recorder // nil: tracing off
	// alternate makes a traced run interleave untraced jobs, so the
	// tracing overhead is measured on the same process and data.
	alternate bool
}

// result is a workload's outcome: operations attempted and failed,
// metrics, and the sample counts behind its percentiles.
type result struct {
	attempted, failed int
	m                 metrics
	layer             metrics
	samples           map[string]int
	errs              []string
	untraced, traced  []float64 // job seconds in an alternating traced run
	steal             float64   // seconds the hypervisor took from the benchmark's VM in the timed phase
	allUnits          metrics   // the job metrics over every unit, none set aside (see steady)
}

// alternated files one job's time under traced or untraced when the
// phase alternates them.
func (r *result) alternated(ph phase, rec *recorder, wall time.Duration) {
	if !ph.alternate {
		return
	}
	if rec == nil {
		r.untraced = append(r.untraced, wall.Seconds())
	} else {
		r.traced = append(r.traced, wall.Seconds())
	}
}

// absorb adds o's operations to r, and o's metrics and sample counts
// where r has none of that name.
func (r *result) absorb(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.steal += o.steal
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
	for _, pair := range [][2]metrics{{r.m, o.m}, {r.layer, o.layer}} {
		for k, v := range pair[1] {
			if _, ok := pair[0][k]; !ok {
				pair[0][k] = v
			}
		}
	}
	for k, v := range o.samples {
		if _, ok := r.samples[k]; !ok {
			r.samples[k] = v
		}
	}
}

func newResult() *result {
	return &result{m: metrics{}, layer: metrics{}, samples: map[string]int{}}
}

// op counts one operation and, when err is non-nil, its failure.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 8 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: cold-coverage|cold-timing|warm-rerun|serve")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 30, "seconds the timed phase runs")
		traced  = flag.Int("trace", 0, "1: traced pass with per-layer metrics")
		root    = flag.String("root", ".", "repository root (holds EXPERIMENTS.md)")
		out     = flag.String("out", ".bench_build", "build directory (holds ltexpd, receives scratch files and spans)")
		start   = flag.Bool("start", false, "only start: run a cold workload's start job, verify it and exit (times set-up)")
	)
	flag.Parse()
	var wf workloadFunc
	for _, w := range workloads {
		if w.name == *name {
			wf = w.run
		}
	}
	if wf == nil || *seconds < 1 || (*traced != 0 && *traced != 1) || *seed == 0 ||
		(*start && coldExperiments[*name] == nil) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload cold-coverage|cold-timing|warm-rerun|serve, --seed ≥1, --seconds ≥1, --trace 0|1")
		return 2
	}
	ref, err := loadReference(filepath.Join(*root, "EXPERIMENTS.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*out, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	e := &env{root: *root, out: *out, work: work, seed: *seed, ver: newVerifier(ref, *seed)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *start {
		if err := startRun(ctx, e, *name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ph := phase{workload: *name, seconds: time.Duration(*seconds) * time.Second, minJobs: 3, setups: 5}
	var res *result
	if *traced == 1 {
		res, err = tracedPass(ctx, e, ph)
	} else {
		res, err = wf(ctx, e, ph)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ms := res.m
	if *traced == 1 {
		ms = res.layer
	}
	if err := ms.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	e.ver.printShas(w)
	for _, msg := range res.errs {
		fmt.Fprintln(w, "failure:", msg)
	}
	rec, _ := json.Marshal(runRecord(e, *name, *traced, res))
	fmt.Fprintf(w, "run %s\n", rec)
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, ms})
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// runRecord describes the run: machine, build, inputs, and how many
// samples back each percentile.
func runRecord(e *env, name string, traced int, res *result) any {
	type count struct {
		Samples int     `json:"samples"`
		Highest float64 `json:"highest_supported_percentile"`
	}
	counts := map[string]count{}
	keys := make([]string, 0, len(res.samples))
	for k := range res.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		counts[k] = count{res.samples[k], highestSupported(res.samples[k])}
	}
	return struct {
		Workload     string           `json:"workload"`
		Trace        int              `json:"trace"`
		Seed         uint64           `json:"seed"`
		NProc        int              `json:"nproc"`
		GOMAXPROCS   int              `json:"gomaxprocs"`
		GoVersion    string           `json:"go_version"`
		Commit       string           `json:"commit"`
		CacheVersion string           `json:"cache_version"`
		RefRows      int              `json:"reference_rows_checked"`
		StealS       float64          `json:"host_steal_s"`
		AllUnits     metrics          `json:"all_units_metrics,omitempty"`
		Percentiles  map[string]count `json:"percentile_samples"`
	}{name, traced, e.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		buildinfo.Commit(), buildinfo.CacheVersion, e.ver.rows, res.steal, res.allUnits, counts}
}
