package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names exactly 6", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesMetricTable holds BENCHMARK.json to the metric table:
// the same names, units, directions and bounds, nothing missing or extra.
func TestManifestMatchesMetricTable(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(workloadOrder))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric) {
		var want []metricDef
		for _, d := range metricTable {
			if (d.Kind == kindE2E) == (kind == kindE2E) {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: manifest has %+v, table has %s %s %s", kind, i, g, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(g.Name) || seen[g.Name] {
				t.Errorf("%s: bad or repeated name", g.Name)
			}
			seen[g.Name] = true
			if kind == kindE2E {
				if g.Bound == nil || *g.Bound != d.Rel || d.Rel <= 0 || d.Rel > 0.25 {
					t.Errorf("%s: bound %v against the table's %v", g.Name, g.Bound, d.Rel)
				}
				if d.On != nil {
					t.Errorf("%s: an end-to-end metric must apply to every workload", g.Name)
				}
			} else if g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check(kindE2E, m.EndToEnd)
	check(kindLayer, m.PerLayer)
	if !seen["setup_s"] {
		t.Error("no setup_s")
	}
}

// quickRun runs one workload at the self-test scale, traced, in this
// process, writing under a directory of the test's own.
func quickRun(t *testing.T, name string) *result {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	c := &config{root: root, outDir: t.TempDir(), seed: 42, reps: 2, trace: true, quick: true}
	res, err := runWorkload(c, name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(c.outDir, name+".trace.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	return res
}

// checkResult asserts what every workload's result must satisfy: each
// metric that applies is there once with its declared unit and a finite
// value, none that does not apply is, the shares partition the profile,
// and both of the driver's lines carry exactly the manifest's names.
func checkResult(t *testing.T, res *result, m manifest) {
	t.Helper()
	isShare := map[string]bool{}
	for _, metric := range shareMetric {
		isShare[metric] = true
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d warnings=%v", res.Correct, res.Attempted, res.Failed, res.Warnings)
	}
	for _, d := range metricTable {
		s, ok := res.Metrics[d.Name]
		if ok != d.appliesTo(res.Workload) {
			t.Errorf("%s: present=%v, applies=%v", d.Name, ok, d.appliesTo(res.Workload))
			continue
		}
		if !ok {
			continue
		}
		if s.Unit != d.Unit {
			t.Errorf("%s: unit %q, declared %q", d.Name, s.Unit, d.Unit)
		}
		for _, v := range []float64{s.Value, s.Q1, s.Q3} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %+v is not finite", d.Name, s)
			}
		}
		// A quick window can end before the profiler's first tick: shares
		// may rest on no sample at all, everything else rests on one or more.
		if s.N < 1 && !isShare[d.Name] {
			t.Errorf("%s: %d samples", d.Name, s.N)
		}
		if d.Kind == kindE2E && s.Value <= 0 {
			t.Errorf("%s = %v: an end-to-end metric is never 0", d.Name, s.Value)
		}
	}
	for name := range res.Metrics {
		if _, ok := metricByName(name); !ok {
			t.Errorf("%s is reported but not in the metric table", name)
		}
	}
	var shares float64
	for _, metric := range shareMetric {
		shares += res.Metrics[metric].Value
	}
	if res.Metrics["bench.unattributed_pct"].N > 0 && math.Abs(shares-100) > 0.1 {
		t.Errorf("shares sum to %.3f", shares)
	}

	for traced, want := range map[bool][]manifestMetric{false: m.EndToEnd, true: m.PerLayer} {
		one := *res
		one.Traced = traced
		var line struct {
			Correct   *bool
			Attempted *int64
			Failed    *int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		raw, err := driverLine(&one)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(raw), &line); err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		json.Unmarshal([]byte(raw), &keys)
		if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
			t.Errorf("the driver's line has keys %v", sortedKeys(keys))
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics on the line, %d in BENCHMARK.json", traced, len(line.Metrics), len(want))
		}
		for _, w := range want {
			if g, ok := line.Metrics[w.Name]; !ok || g.Value == nil || g.Unit != w.Unit {
				t.Errorf("traced=%v: %s missing from the line or with the wrong unit", traced, w.Name)
			}
		}
	}
}

// TestQuickWorkloads runs all five workloads at the quick scale. No
// assertion is on a timing, so it holds under -race and on a loaded
// machine. paper_suite spends its time in child processes and runs beside
// the four that share this process's profiler and counters.
func TestQuickWorkloads(t *testing.T) {
	m := readManifest(t)
	t.Run("suite", func(t *testing.T) {
		t.Parallel()
		checkResult(t, quickRun(t, wPaperSuite), m)
	})
	t.Run("in-process", func(t *testing.T) {
		t.Parallel()
		for _, name := range []string{wFaultStorm, wScanRW, wWireRead4K, wWireMixed} {
			res := quickRun(t, name)
			checkResult(t, res, m)
			switch name {
			case wFaultStorm:
				for _, zero := range []string{"prefetch.issued_per_op", "pagemgr.cleaned_per_op", "transport.client_share_pct", "transport.server_share_pct"} {
					if v := res.Metrics[zero].Value; v != 0 {
						t.Errorf("fault_storm: %s = %v, predicted 0", zero, v)
					}
				}
			case wWireRead4K, wWireMixed:
				for _, zero := range []string{"sim.host_share_pct", "core.host_share_pct"} {
					if v := res.Metrics[zero].Value; v != 0 {
						t.Errorf("%s: %s = %v, predicted 0", name, zero, v)
					}
				}
			}
		}
	})
}

// TestWireCheckerSeesFlippedByte: one byte changed inside the memory node
// between the pattern write and the reads must come out as failed ops,
// from the read-back at the latest.
func TestWireCheckerSeesFlippedByte(t *testing.T) {
	c := &config{seed: 7, quick: true}
	w := newWireRead4K(c)
	if _, err := w.setup(c); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, failed, err := w.finish(); err != nil || failed != 0 {
		t.Fatalf("clean read-back: failed=%d err=%v", failed, err)
	}
	off := w.base + 17*pageSize + 123
	var b [1]byte
	if err := w.node.ReadAt(off, b[:]); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if err := w.node.WriteAt(off, b[:]); err != nil {
		t.Fatal(err)
	}
	r, err := w.rep(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	attempted, failed, err := w.finish()
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 {
		t.Errorf("read-back of %d pages failed %d, want exactly the flipped page", attempted, failed)
	}
	res := &result{Workload: wWireRead4K, Metrics: metricSet{}}
	aggregate(res, []*rep{r}, nil, []float64{0.1})
	if res.Failed+failed == 0 {
		t.Error("failed_ops_pct would not rise")
	}
}

// TestSimCheckerCountsWrongStamp hands the sim checker a wrong stamp for
// one page in eight; every load of those pages must count as failed, and
// the digest must not care (the virtual run is the same).
func TestSimCheckerCountsWrongStamp(t *testing.T) {
	if check(stamp(1, 5), stamp(2, 5)) != 1 || check(stamp(1, 5), stamp(1, 5)) != 0 {
		t.Fatal("check")
	}
	c := &config{seed: 42, quick: true}
	for _, mk := range []func(*config) *simWorkload{newFaultStorm, newScanRW} {
		good := mk(c)
		rGood, err := good.rep(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rGood.failed != 0 {
			t.Fatalf("%s: %d failed ops on a clean run", good.name, rGood.failed)
		}
		bad := mk(c)
		bad.want = func(pg uint64) uint64 {
			if pg%8 == 0 {
				return stamp(bad.seed+1, pg)
			}
			return stamp(bad.seed, pg)
		}
		rBad, err := bad.rep(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rBad.failed == 0 {
			t.Errorf("%s: the checker counted nothing", bad.name)
		}
		if rBad.digest != rGood.digest {
			t.Errorf("%s: digest %s differs from %s", bad.name, rBad.digest, rGood.digest)
		}
	}
}

// TestDigestGuardFailsARepetition: a repetition whose digest differs from
// the first's has all of its ops counted as failed.
func TestDigestGuardFailsARepetition(t *testing.T) {
	mk := func(digest string) *rep {
		return &rep{ops: 100, attempted: 110, wallNs: 1e6, digest: digest, setupS: 0.01, latUs: []float64{1},
			vals: map[string]float64{"host_ops_per_s": 1e5}}
	}
	res := &result{Workload: wScanRW, Metrics: metricSet{}}
	aggregate(res, []*rep{mk("aa"), mk("aa"), mk("bb")}, []*rep{mk("aa")}, nil)
	if res.Attempted != 440 || res.Failed != 110 || len(res.Warnings) != 1 {
		t.Errorf("attempted=%d failed=%d warnings=%v", res.Attempted, res.Failed, res.Warnings)
	}
	res = &result{Workload: wScanRW, Metrics: metricSet{}}
	aggregate(res, []*rep{mk("aa"), mk("aa")}, []*rep{mk("cc")}, nil)
	if res.Failed != 110 {
		t.Errorf("a traced repetition with another digest failed %d ops", res.Failed)
	}
}
