package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// shortPhase is how long the traced pass runs the workloads other than
// the named one: long enough for a few traced jobs of each.
const shortPhase = 2 * time.Second

// tracedPass is the --trace 1 run. It runs the layer probe, then every
// workload with spans recorded, so each per-layer metric is measured in
// every traced run whichever workload is named. The named workload runs
// its full phase alternating traced and untraced jobs, which gives
// bench.trace_overhead_pct; the others run a short phase after one
// set-up. Spans are written to the build directory at the end.
func tracedPass(ctx context.Context, e *env, named phase) (*result, error) {
	res := newResult()
	if err := layerProbe(e, res.layer); err != nil {
		return nil, err
	}
	spanDir := filepath.Join(e.out, "spans")
	if err := os.MkdirAll(spanDir, 0o777); err != nil {
		return nil, err
	}
	for _, w := range workloads {
		ph := phase{workload: w.name, seconds: shortPhase, minJobs: 1, setups: 1, rec: newRecorder()}
		if w.name == named.workload {
			ph.seconds, ph.minJobs, ph.setups, ph.alternate = named.seconds, 4, named.setups, true
		}
		r, err := w.run(ctx, e, ph)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// Runner cell counts come from the first workload that reports
		// them, cold-coverage: every metric name means one thing.
		res.absorb(r)
		if ph.alternate {
			res.layer.set("bench.trace_overhead_pct", "%", 100*(median(r.traced)/median(r.untraced)-1))
			res.samples["traced_job"] = len(r.traced)
			res.samples["untraced_job"] = len(r.untraced)
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-%s.jsonl", named.workload, e.seed, w.name))
		if err := writeSpans(path, ph.rec.snapshot()); err != nil {
			return nil, err
		}
	}
	return res, nil
}
