package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// servePool is the job mix the serve clients draw from: single- and
// multi-experiment specs over one or two cheap presets each, so warming
// the whole pool takes about a second. The seed sets every spec's
// workload seed and the order the clients draw them in; the mix itself
// is fixed so that runs at different seeds do the same amount of work.
var servePool = []exp.JobSpec{
	{Experiments: []string{"fig8"}, Benchmarks: []string{"gcc"}},
	{Experiments: []string{"table2"}, Benchmarks: []string{"em3d", "gcc"}},
	{Experiments: []string{"fig2", "table2"}, Benchmarks: []string{"gcc"}},
	{Experiments: []string{"fig12"}, Benchmarks: []string{"em3d"}},
	{Experiments: []string{"fig8", "fig10"}, Benchmarks: []string{"em3d"}},
	{Experiments: []string{"table3"}, Benchmarks: []string{"gcc"}},
}

const (
	serveClients = 2  // closed-loop clients, one connection each
	uploadEvery  = 20 // one operation in this many re-uploads a trace
	uploadPreset = "gcc"
)

// daemon is a running ltexpd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	exited  chan struct{}
	mu      sync.Mutex
	gcs     []gcRecord
	tail    []string // last non-GC stderr lines, for diagnostics
}

// gcRecord is one line of the Go runtime's GC trace (GODEBUG=gctrace=1):
// seconds since process start, and heap MB at GC end and marked live.
type gcRecord struct{ at, end, live float64 }

var gcLine = regexp.MustCompile(`^gc \d+ @([0-9.]+)s .* (\d+)->(\d+)->(\d+) MB`)

// startDaemon runs ltexpd with its default flags on a free loopback port
// over a fresh cache directory and waits until /readyz answers 200. The
// daemon's GC trace goes to its standard error, where the benchmark
// reads its allocation volume. The daemon runs Go code on one processor
// and the clients on another (servePhase), so together they never ask
// for more CPUs than the two the benchmark is given.
func startDaemon(ctx context.Context, bin, cacheDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", cacheDir)
	cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1", "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.scan(stderr)
		cmd.Wait()
		close(d.exited)
	}()
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ltexpd exited during start: %s", d.stderrTail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ltexpd not ready after 30s: %s", d.stderrTail())
		}
	}
}

// scan consumes the daemon's standard error until it closes.
func (d *daemon) scan(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		if m := gcLine.FindStringSubmatch(line); m != nil {
			var g [4]float64
			for i := range g {
				g[i], _ = strconv.ParseFloat(m[i+1], 64)
			}
			d.gcs = append(d.gcs, gcRecord{at: g[0], end: g[2], live: g[3]})
		} else {
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
		}
		d.mu.Unlock()
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// within 10 s, and returns once it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// allocMBPerSec estimates the MB the daemon allocated per second between
// process-relative times from and to: each GC cycle allocated its end
// heap minus the previous cycle's live heap.
func (d *daemon) allocMBPerSec(from, to time.Time) (float64, bool) {
	lo, hi := from.Sub(d.started).Seconds(), to.Sub(d.started).Seconds()
	d.mu.Lock()
	defer d.mu.Unlock()
	var in []gcRecord
	for _, g := range d.gcs {
		if g.at >= lo && g.at <= hi {
			in = append(in, g)
		}
	}
	if len(in) < 3 {
		return 0, false
	}
	var mb float64
	for i := 1; i < len(in); i++ {
		mb += in[i].end - in[i-1].live
	}
	return mb / (in[len(in)-1].at - in[0].at), true
}

// client is one closed-loop serve client with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

// call does one request and returns the body of a 2xx response; any
// other status is an error.
func (c *client) call(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// jobTimes are the client-side phases of one served job.
type jobTimes struct {
	submit, wait, report, total time.Duration
}

// job submits spec, waits for its done event, and fetches its text
// report; the job's latency runs from submit to the last report byte.
// It then fetches the job status (outside the latency) for the cell
// counters and the daemon's own timestamps.
func (c *client) job(ctx context.Context, spec exp.JobSpec, rec *recorder, job int) (string, server.JobStatus, jobTimes, error) {
	var st server.JobStatus
	var tm jobTimes
	root := rec.open("job", -1, job)
	t0 := time.Now()
	body, _ := json.Marshal(spec)
	out, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	t1 := time.Now()
	rec.add("server.submit", root, job, t0, t1, int64(len(out)))
	if err != nil {
		return "", st, tm, err
	}
	if err := json.Unmarshal(out, &st); err != nil {
		return "", st, tm, fmt.Errorf("submit response: %w", err)
	}
	events, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil)
	t2 := time.Now()
	rec.add("server.wait", root, job, t1, t2, int64(len(events)))
	if err != nil {
		return "", st, tm, err
	}
	if !bytes.Contains(events, []byte("event: done\ndata: done\n")) {
		return "", st, tm, fmt.Errorf("job %s did not finish done: %q", st.ID, events)
	}
	text, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/report", nil)
	t3 := time.Now()
	rec.add("server.report", root, job, t2, t3, int64(len(text)))
	rec.close(root)
	tm = jobTimes{submit: t1.Sub(t0), wait: t2.Sub(t1), report: t3.Sub(t2), total: t3.Sub(t0)}
	if err != nil {
		return "", st, tm, err
	}
	out, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID, nil)
	if err != nil {
		return "", st, tm, err
	}
	if err := json.Unmarshal(out, &st); err != nil {
		return "", st, tm, fmt.Errorf("job status: %w", err)
	}
	return string(text), st, tm, nil
}

// upload posts an LTCX trace store and reports whether the daemon
// deduplicated it.
func (c *client) upload(ctx context.Context, body []byte) (bool, error) {
	out, err := c.call(ctx, http.MethodPost, "/v1/traces", body)
	if err != nil {
		return false, err
	}
	var r struct {
		Deduped bool `json:"deduped"`
	}
	if err := json.Unmarshal(out, &r); err != nil {
		return false, fmt.Errorf("upload response: %w", err)
	}
	return r.Deduped, nil
}

// uploadBody is the LTCX store the clients re-upload.
func uploadBody(seed uint64) ([]byte, error) {
	p, ok := workload.ByName(uploadPreset)
	if !ok {
		return nil, fmt.Errorf("no preset %s", uploadPreset)
	}
	var b bytes.Buffer
	if _, err := trace.Materialize(p.Source(workload.Small, seed)).WriteTo(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// clientRun is what one client measured in the timed phase.
type clientRun struct {
	jobs                                     []jobSample
	submit, wait, report, upload, queue, run []float64
	untraced, traced                         []float64
	executed                                 uint64
	ops                                      []error
}

// serveWorkload runs serve: the real ltexpd binary, warmed over the spec
// pool, driven by closed-loop clients over loopback.
func serveWorkload(ctx context.Context, e *env, ph phase) (*result, error) {
	res := newResult()
	pool := make([]exp.JobSpec, len(servePool))
	for i, s := range servePool {
		s.Scale, s.Seed = workload.Small.String(), e.seed
		pool[i] = s
	}
	body, err := uploadBody(e.seed)
	if err != nil {
		return nil, err
	}
	bin := filepath.Join(e.out, "ltexpd")

	var setups []float64
	var dir string
	for i := 0; i < ph.setups; i++ {
		dir = filepath.Join(e.work, fmt.Sprintf("serve-%d", i))
		t := time.Now()
		d, err := warmDaemon(ctx, e, res, bin, dir, pool, body, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		d.stop()
	}
	res.m.set("setup_s", "s", median(setups))

	// The timed daemon restarts over the last set-up's cache directory
	// and loads every pool spec from it once, so its memory is that of
	// serving, not of the set-up's simulations.
	d, err := warmDaemon(ctx, e, res, bin, dir, pool, body, true)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	out, err := servePhase(ctx, e, ph, d, pool, body)
	if err != nil {
		return nil, err
	}
	out.absorb(res)
	return out, nil
}

// servePhase is one timed phase of serve against the warmed daemon d.
func servePhase(ctx context.Context, e *env, ph phase, d *daemon, pool []exp.JobSpec, body []byte) (*result, error) {
	res := newResult()
	// The clients spend most of their time waiting on the daemon; one
	// processor is enough for both, and leaves the other CPU to the
	// daemon.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runs := make([]clientRun, serveClients)
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	steal := startStealSeries(start)
	defer steal.stop()
	var wg sync.WaitGroup
	for ci := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[ci] = serveClientLoop(ctx, e, ph, d.base, pool, body, ci, start)
		}()
	}
	wg.Wait()
	end := time.Now()
	steal.stop()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var all clientRun
	for _, r := range runs {
		all.jobs = append(all.jobs, r.jobs...)
		all.submit = append(all.submit, r.submit...)
		all.wait = append(all.wait, r.wait...)
		all.report = append(all.report, r.report...)
		all.upload = append(all.upload, r.upload...)
		all.queue = append(all.queue, r.queue...)
		all.run = append(all.run, r.run...)
		res.untraced = append(res.untraced, r.untraced...)
		res.traced = append(res.traced, r.traced...)
		all.executed += r.executed
		for _, err := range r.ops {
			res.op(err)
		}
	}
	n := float64(len(all.jobs))
	res.steady(windowUnits(all.jobs, end.Sub(start).Seconds(), 1), steal, false)
	res.m.set("cpu_s", "s", (cpu1-cpu0).Seconds()/n)
	rate, ok := d.allocMBPerSec(start, end)
	if !ok {
		rate = math.NaN()
	}
	res.m.set("alloc_mb", "MB", rate*end.Sub(start).Seconds()/n)
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	res.m.set("peak_rss_mb", "MB", rss)
	res.samples["upload"] = len(all.upload)

	l := res.layer
	l.set("server.submit_ms", "ms", median(all.submit))
	l.set("server.wait_ms", "ms", median(all.wait))
	l.set("server.report_ms", "ms", median(all.report))
	l.set("server.report_p99_ms", "ms", quantile(all.report, 0.99))
	l.set("server.upload_ms", "ms", median(all.upload))
	l.set("server.queue_wait_ms", "ms", median(all.queue))
	l.set("server.run_ms", "ms", median(all.run))
	l.set("server.cells_executed", "count", float64(all.executed))
	return res, nil
}

// warmDaemon starts ltexpd over dir, uploads the trace (deduplicated
// exactly when dir already holds it) and runs every pool spec once,
// verifying each report.
func warmDaemon(ctx context.Context, e *env, res *result, bin, dir string, pool []exp.JobSpec, body []byte, populated bool) (*daemon, error) {
	d, err := startDaemon(ctx, bin, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(d.base)
	defer c.hc.CloseIdleConnections()
	dup, err := c.upload(ctx, body)
	if err == nil && dup != populated {
		err = fmt.Errorf("trace upload deduplicated=%v, want %v", dup, populated)
	}
	res.op(err)
	for j, spec := range pool {
		text, _, _, err := c.job(ctx, spec, nil, -1)
		if err == nil {
			err = e.ver.check(fmt.Sprintf("serve-%d", j), text, spec.Benchmarks, spec.Experiments)
		}
		res.op(err)
	}
	return d, nil
}

// serveClientLoop is one closed-loop client: it sends its next operation
// only when the previous one has completed.
func serveClientLoop(ctx context.Context, e *env, ph phase, base string, pool []exp.JobSpec, body []byte, ci int, start time.Time) clientRun {
	var r clientRun
	c := newClient(base)
	defer c.hc.CloseIdleConnections()
	// The client walks the pool in a seed-shuffled order and re-uploads
	// at a seed-drawn offset in every uploadEvery operations, so every
	// run draws the same mix.
	rng := rand.New(rand.NewPCG(e.seed, uint64(ci)))
	order := rng.Perm(len(pool))
	uploadAt := rng.IntN(uploadEvery)
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	next := 0
	for n := 0; ctx.Err() == nil && (n < ph.minJobs || time.Since(start) < ph.seconds); n++ {
		if n%uploadEvery == uploadAt {
			t := time.Now()
			dup, err := c.upload(ctx, body)
			r.upload = append(r.upload, ms(time.Since(t)))
			if err == nil && !dup {
				err = errors.New("re-upload was not deduplicated")
			}
			r.ops = append(r.ops, err)
			continue
		}
		i := order[next%len(order)]
		next++
		rec := ph.rec
		if ph.alternate && n%2 == 0 {
			rec = nil
		}
		text, st, tm, err := c.job(ctx, pool[i], rec, ci<<24|n)
		r.jobs = append(r.jobs, jobSample{wall: tm.total.Seconds(), done: time.Since(start).Seconds()})
		if ph.alternate {
			if rec == nil {
				r.untraced = append(r.untraced, tm.total.Seconds())
			} else {
				r.traced = append(r.traced, tm.total.Seconds())
			}
		}
		if err == nil {
			r.submit = append(r.submit, ms(tm.submit))
			r.wait = append(r.wait, ms(tm.wait))
			r.report = append(r.report, ms(tm.report))
			if st.Started != nil && st.Finished != nil {
				r.queue = append(r.queue, ms(st.Started.Sub(st.Created)))
				r.run = append(r.run, ms(st.Finished.Sub(*st.Started)))
			}
			switch {
			case st.State != server.JobDone:
				err = fmt.Errorf("job %s ended %s", st.ID, st.State)
			case st.Cells == nil || st.Cells.Executed != 0:
				err = fmt.Errorf("warm job %s executed cells: %+v", st.ID, st.Cells)
			default:
				err = e.ver.check(fmt.Sprintf("serve-%d", i), text, pool[i].Benchmarks, pool[i].Experiments)
			}
			if st.Cells != nil {
				r.executed += st.Cells.Executed
			}
		}
		r.ops = append(r.ops, err)
	}
	return r
}
