package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	root    string  // repository checkout the benchmark measures
	outDir  string  // benchmark/out: results and traces
	seed    uint64  // drives every access sequence and op mix
	seconds float64 // how long the untraced repetitions measure for
	reps    int     // fixed repetition count; 0 means as many as fit in seconds
	trace   bool    // add the traced repetitions and the probes
	quick   bool    // self-test scale: tiny sizes, same code paths
}

// rep is what one repetition measured.
type rep struct {
	ops       int64 // ops in the throughput window
	attempted int64 // every op the repetition attempted, checks included
	failed    int64
	wallNs    int64 // throughput window
	// vals are this repetition's values of the metrics that are reported
	// as a median over repetitions.
	vals map[string]float64
	// latUs are host-clock per-op latency samples, pooled over repetitions
	// into wall_lat_p50_us and wall_lat_p99_us.
	latUs []float64
	// pooled are further latency samples by metric name (wire_mixed's
	// per-class round trips); each metric is the median of its samples
	// pooled over the repetitions.
	pooled map[string][]float64
	// setupS is the repetition's own untimed prologue when it has one (a
	// sim repetition boots a fresh system); NaN otherwise.
	setupS float64
	// digest folds everything deterministic about the repetition; it must
	// be the same on every repetition of a run. Empty when nothing is.
	digest string
}

// fillHost derives the host-side count metrics of an in-process window.
func (r *rep) fillHost(d delta, ops int64) {
	n := float64(ops)
	r.ops, r.wallNs = ops, d.WallNs
	r.vals["host_ops_per_s"] = n / (float64(d.WallNs) / 1e9)
	r.vals["cpu_ns_per_op"] = float64(d.CPUNs) / n
	r.vals["runtime.nvcsw_per_op"] = float64(d.Nvcsw) / n
	r.vals["runtime.nivcsw_per_op"] = float64(d.Nivcsw) / n
	r.vals["allocs_per_op"] = float64(d.Mallocs) / n
	r.vals["runtime.gc_cycles"] = float64(d.GCCycles)
	r.vals["runtime.heap_bytes_per_op"] = float64(d.HeapBytes) / n
}

// workload is one of the five things the benchmark runs.
type workload interface {
	// plan says whether a discarded warm-up repetition precedes the timed
	// ones, the fewest timed repetitions a run reports medians over, and how
	// many repetitions the traced phase runs.
	plan() (warmup bool, minReps, traced int)
	// setup prepares whatever the repetitions share and returns how long
	// each of its set-ups took; it sets up several times so that setup_s is
	// a median, and leaves the last one standing. Workloads whose
	// repetitions each set themselves up return nothing here.
	setup(c *config) ([]float64, error)
	// rep runs one repetition; tr is non-nil for a traced one.
	rep(c *config, tr *tracer) (*rep, error)
	// finish makes the checks that need the whole run (the read-back of
	// every write) and returns how many ops it attempted and how many
	// failed.
	finish() (attempted, failed int64, err error)
	// probes times calls into single layers; they run after the traced
	// repetitions, only in a traced run.
	probes(c *config, tr *tracer, ms metricSet) error
	// close stops whatever setup started.
	close()
}

func newWorkload(name string, c *config) (workload, error) {
	switch name {
	case wFaultStorm:
		return newFaultStorm(c), nil
	case wScanRW:
		return newScanRW(c), nil
	case wWireRead4K:
		return newWireRead4K(c), nil
	case wWireMixed:
		return newWireMixed(c), nil
	case wPaperSuite:
		return newPaperSuite(c), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
}

// result is one workload's run, as written to the results file.
type result struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Reps      int       `json:"reps"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Digest    string    `json:"digest,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Warnings  []string  `json:"warnings,omitempty"`
	WallS     float64   `json:"wall_s"`
}

// runWorkload runs one workload in this process: set-up, one discarded
// warm-up repetition, timed repetitions with tracing off, then — in a
// traced run — the traced repetitions and the layer probes — and the final
// checks.
func runWorkload(c *config, name string) (*result, error) {
	started := time.Now()
	w, err := newWorkload(name, c)
	if err != nil {
		return nil, err
	}
	defer w.close()

	res := &result{Workload: name, Seed: c.seed, Seconds: c.seconds, Traced: c.trace, Metrics: metricSet{}}
	ms := res.Metrics

	var tr *tracer
	if c.trace {
		tr = &tracer{spans: newSpanRec()}
	}
	// Spans of the untraced part (set-up, warm-up) are recorded too when the
	// run will be traced: they cost two clock reads each, far from any op.
	id := tr.begin("setup")
	setups, err := w.setup(c)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}

	warmup, minReps, nTraced := w.plan()
	if warmup {
		id = tr.begin("warm-up")
		if _, err := w.rep(c, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", name, err)
		}
		tr.end(id)
	}

	var reps []*rep
	for i, t0 := 0, time.Now(); ; i++ {
		if c.reps > 0 && i >= c.reps {
			break
		}
		if c.reps == 0 && i >= minReps && time.Since(t0).Seconds() >= c.seconds {
			break
		}
		runtime.GC() // outside every timed window
		id := tr.begin(fmt.Sprintf("rep %d", i+1))
		r, err := w.rep(c, nil)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", name, i+1, err)
		}
		reps = append(reps, r)
	}
	res.Reps = len(reps)
	// Taken before the traced repetitions, whose recorder and profile
	// buffers are not the workload's. paper_suite's repetitions report their
	// child's instead, which replaces this.
	ms.set("peak_rss_mb", peakRSSMiB(), 1)

	var traced []*rep
	if tr != nil {
		if c.quick {
			nTraced = 1
		}
		for i := 0; i < nTraced; i++ {
			runtime.GC()
			tr.root = tr.spans.begin(fmt.Sprintf("traced rep %d", i+1), 0, 0)
			r, err := w.rep(c, tr)
			tr.spans.end(tr.root)
			if err != nil {
				return nil, fmt.Errorf("%s: traced repetition: %w", name, err)
			}
			traced = append(traced, r)
		}
	}
	aggregate(res, reps, traced, setups)

	if tr != nil {
		tr.root = tr.spans.begin("probes", 0, 0)
		err = w.probes(c, tr, ms)
		tr.spans.end(tr.root)
		tr.root = 0
		if err != nil {
			return nil, fmt.Errorf("%s: probes: %w", name, err)
		}
	}

	id = tr.begin("finish")
	finAttempted, finFailed, err := w.finish()
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", name, err)
	}
	res.Attempted += finAttempted
	res.Failed += finFailed
	ms.set("failed_ops_pct", 100*float64(res.Failed)/float64(res.Attempted), int(res.Attempted))
	res.Correct = res.Failed == 0

	if tr != nil {
		shares, n := layerShares(tr.samples)
		for metric, v := range shares {
			ms.set(metric, v, int(n))
		}
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.spans.writeTrace(filepath.Join(c.outDir, name+".trace.json"), name); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", name, err)
		}
	}
	res.WallS = time.Since(started).Seconds()
	return res, nil
}

// aggregate turns the repetitions into metrics: medians and quartiles over
// the untraced repetitions, latency percentiles over their pooled samples,
// and the determinism guard — every repetition's digest, the traced one's
// included, must equal the first's; all ops of one that differs count as
// failed.
func aggregate(res *result, reps, traced []*rep, setups []float64) {
	ms := res.Metrics
	var lat []float64
	pooled := map[string][]float64{}
	for _, r := range reps {
		lat = append(lat, r.latUs...)
		for k, xs := range r.pooled {
			pooled[k] = append(pooled[k], xs...)
		}
		if !math.IsNaN(r.setupS) {
			setups = append(setups, r.setupS)
		}
	}
	for k, vs := range valsByName(reps) {
		ms.setReps(k, vs)
	}
	ms.setReps("setup_s", setups)
	sort.Float64s(lat)
	ms.set("wall_lat_p50_us", percentileSorted(lat, 50), len(lat))
	ms.set("wall_lat_p99_us", percentileSorted(lat, 99), len(lat))
	for k, xs := range pooled {
		sort.Float64s(xs)
		ms.set(k, percentileSorted(xs, 50), len(xs))
	}
	h := ms["host_ops_per_s"]
	ms.set("bench.noise_pct", 100*h.iqr()/h.Value, h.N)

	if len(traced) > 0 {
		perOp := func(rs []*rep) float64 {
			var xs []float64
			for _, r := range rs {
				xs = append(xs, float64(r.wallNs)/float64(r.ops))
			}
			return median(xs)
		}
		ms.set("bench.trace_overhead_pct", 100*(perOp(traced)/perOp(reps)-1), len(traced))
		// Metrics only a traced repetition can measure.
		for k, vs := range valsByName(traced) {
			if _, ok := ms[k]; !ok {
				ms.setReps(k, vs)
			}
		}
	}
	all := append(reps[:len(reps):len(reps)], traced...)
	res.Digest = all[0].digest
	for i, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.digest != res.Digest {
			res.Failed += r.attempted - r.failed
			which := fmt.Sprintf("repetition %d", i+1)
			if i >= len(reps) {
				which = fmt.Sprintf("traced repetition %d", i-len(reps)+1)
			}
			res.Warnings = append(res.Warnings, fmt.Sprintf("%s: %s is not deterministic: digest %s, repetition 1 has %s", res.Workload, which, r.digest, res.Digest))
		}
	}
}

// valsByName transposes the repetitions' values: metric name → one value
// per repetition that measured it.
func valsByName(reps []*rep) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range reps {
		for k, v := range r.vals {
			out[k] = append(out[k], v)
		}
	}
	return out
}
