package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// paperSuite is the workload a researcher actually waits for: it builds
// cmd/dilosbench (the set-up) and regenerates nine paper and extension
// artifacts through the CLI, `dilosbench -json -exp fig2,...`, as a child
// process. It is the only place the paper-fidelity numbers and the
// Redis/guide/KV-cache application results are gated, and going through
// the CLI means a later change that runs entries across host cores lands
// on it without touching the benchmark. Its inputs are the artifact ids,
// so the seed changes nothing here.
type paperSuite struct {
	root    string
	bin     string
	profDir string
	ids     []string
	builds  int
	quick   []string // extra CLI flags of the self-test's quick runs
	first   []byte   // the first run's standard output
}

// suiteBuilds is how many times set-up links the CLI so that setup_s is a
// median; the compile cache is warm from the second on.
const suiteBuilds = 3

func newPaperSuite(c *config) *paperSuite {
	build := filepath.Join(c.root, ".bench_build")
	w := &paperSuite{root: c.root, bin: filepath.Join(build, "dilosbench"), profDir: filepath.Join(build, "prof"), ids: suiteIDs, builds: suiteBuilds}
	if c.quick {
		// A twentieth of the working sets and a toy KV-cache model: the same
		// nine ids in about a second.
		w.builds = 1
		w.quick = []string{"-scale", "0.05", "-kv-layers", "2", "-kv-seqs", "2", "-kv-decode", "4"}
	}
	return w
}

// plan: no warm-up, every run is a fresh process. Four runs of about 7.5 s
// outlast -seconds; three left the median CPU time and peak RSS of a
// 400 MiB garbage-collected process too unsteady for their bounds.
func (w *paperSuite) plan() (bool, int, int) { return false, 4, 1 }
func (w *paperSuite) close()                 {}

func (w *paperSuite) setup(*config) ([]float64, error) {
	if err := os.MkdirAll(w.profDir, 0o755); err != nil {
		return nil, err
	}
	var took []float64
	for i := 0; i < w.builds; i++ {
		// Without the old binary the go command has to link again.
		if err := os.Remove(w.bin); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", w.bin, "./cmd/dilosbench")
		cmd.Dir = w.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("go build ./cmd/dilosbench: %w\n%s", err, out)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return took, nil
}

// cli runs the CLI on the given ids and returns its standard output, how
// long it took and what the kernel charged it.
func (w *paperSuite) cli(ids []string, extra ...string) (stdout []byte, wall time.Duration, ru *syscall.Rusage, err error) {
	args := append([]string{"-json", "-exp", strings.Join(ids, ",")}, w.quick...)
	cmd := exec.Command(w.bin, append(args, extra...)...)
	cmd.Dir = w.root
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	t0 := time.Now()
	err = cmd.Run()
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, nil, fmt.Errorf("dilosbench %s: %w\n%s", strings.Join(args, " "), err, errOut.Bytes())
	}
	ru, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if ru == nil {
		return nil, wall, nil, errors.New("no rusage for the child process")
	}
	return out.Bytes(), wall, ru, nil
}

// canon parses one CLI output into its per-id documents, compacted so that
// an all-ids run and the per-id runs of the traced pass compare equal.
func canon(stdout []byte, into map[string][]byte) error {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(stdout, &doc); err != nil {
		return fmt.Errorf("CLI output does not parse: %w", err)
	}
	for id, raw := range doc {
		var b bytes.Buffer
		if err := json.Compact(&b, raw); err != nil {
			return err
		}
		into[id] = b.Bytes()
	}
	return nil
}

// suiteDigest folds the per-id documents, in id order, into the digest
// every run of the suite must share. A missing id hashes as missing.
func (w *paperSuite) suiteDigest(docs map[string][]byte) (digest string, missing int64) {
	sum := sha256.New()
	for _, id := range w.ids {
		doc, ok := docs[id]
		if !ok {
			missing++
		}
		fmt.Fprintf(sum, "%s=%d\n", id, len(doc))
		sum.Write(doc)
	}
	return fmt.Sprintf("%x", sum.Sum(nil)[:8]), missing
}

func (w *paperSuite) rep(c *config, tr *tracer) (*rep, error) {
	n := int64(len(w.ids))
	out := &rep{vals: map[string]float64{}, setupS: math.NaN(), ops: n, attempted: n}
	docs := map[string][]byte{}
	// The traced run is the same run with the CLI's own -cpuprofile on.
	var extra []string
	prof := filepath.Join(w.profDir, "suite.prof")
	if tr != nil {
		extra = []string{"-cpuprofile", prof}
	}
	span := tr.begin("dilosbench " + strings.Join(w.ids, ","))
	stdout, wall, ru, err := w.cli(w.ids, extra...)
	tr.end(span)
	if err != nil {
		return nil, err
	}
	if err := canon(stdout, docs); err != nil {
		return nil, err
	}
	// Same inputs, same bytes: the CLI's output is the suite's result.
	if w.first == nil {
		w.first = stdout
	} else if !bytes.Equal(stdout, w.first) {
		out.failed = n
	}
	if tr != nil {
		raw, err := os.ReadFile(prof)
		if err != nil {
			return nil, err
		}
		if err := tr.addProfile(raw); err != nil {
			return nil, fmt.Errorf("%s: %w", prof, err)
		}
		// Then one id per child with a span around each, unprofiled, for
		// the per-id wall times. Regenerated alone, an id must come out as
		// it did among the others.
		for _, id := range w.ids {
			span := tr.begin("exp " + id)
			stdout, d, _, err := w.cli([]string{id})
			tr.end(span)
			if err != nil {
				return nil, err
			}
			out.vals["experiments.wall_s."+id] = d.Seconds()
			alone := map[string][]byte{}
			if err := canon(stdout, alone); err != nil {
				return nil, err
			}
			if !bytes.Equal(alone[id], docs[id]) {
				out.failed = n
			}
		}
	}
	var missing int64
	out.digest, missing = w.suiteDigest(docs)
	out.failed = max(out.failed, missing)

	out.wallNs = wall.Nanoseconds()
	v := out.vals
	v["host_ops_per_s"] = float64(n) / wall.Seconds()
	v["cpu_ns_per_op"] = float64(cpuNs(ru)) / float64(n)
	v["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // the child's; replaces the benchmark's own
	v["runtime.nvcsw_per_op"] = float64(ru.Nvcsw) / float64(n)
	v["runtime.nivcsw_per_op"] = float64(ru.Nivcsw) / float64(n)
	v["experiments.cpu_per_wall"] = float64(cpuNs(ru)) / float64(wall.Nanoseconds())
	out.latUs = []float64{float64(wall.Microseconds()) / float64(n)}
	if missing == 0 {
		if err := fidelity(docs, v); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *paperSuite) finish() (int64, int64, error) { return 0, 0, nil }

func (w *paperSuite) probes(c *config, tr *tracer, ms metricSet) error {
	runProbes(c, tr, ms, simLayerProbes(c, ms))
	return nil
}

// The paper's values for the ten cells the calibration never saw
// (EXPERIMENTS.md, "Table 2" and "Figure 6"): Table 2's sequential read and
// write GB/s at 12.5 % cache for the four systems, and Figure 6's mean
// fault latency in us for Fastswap and DiLOS. Figure 2, which the fabric
// model was fitted to, is reported separately as fabric.calib_err_pct.
var (
	paperTab2 = map[string][2]float64{
		"Fastswap":          {0.98, 0.49},
		"DiLOS no-prefetch": {1.24, 1.14},
		"DiLOS readahead":   {3.74, 3.49},
		"DiLOS trend-based": {3.73, 3.49},
	}
	paperFig6Us = map[string]float64{"Fastswap": 6.2, "DiLOS": 3.2}
)

// fidelity derives model_err_pct and virt_speedup_x from the suite's
// output. Both are on the virtual clock and repeat exactly.
func fidelity(docs map[string][]byte, v map[string]float64) error {
	var tab2 []struct {
		System            string
		ReadGBs, WriteGBs float64
	}
	var fig6 []struct {
		Label string
		Total float64 // ns
	}
	type redisRow struct {
		System   string
		Fraction float64
		OpsPerS  float64
	}
	var fig10a, fig10d []redisRow
	for id, dst := range map[string]any{"tab2": &tab2, "fig6": &fig6, "fig10a": &fig10a, "fig10d": &fig10d} {
		if err := json.Unmarshal(docs[id], dst); err != nil {
			return fmt.Errorf("%s rows: %w", id, err)
		}
	}

	var errSum float64
	var cells int
	against := func(got, paper float64) {
		errSum += 100 * math.Abs(got-paper) / paper
		cells++
	}
	gbs := map[string][2]float64{}
	for _, r := range tab2 {
		gbs[r.System] = [2]float64{r.ReadGBs, r.WriteGBs}
		if p, ok := paperTab2[r.System]; ok {
			against(r.ReadGBs, p[0])
			against(r.WriteGBs, p[1])
		}
	}
	for _, r := range fig6 {
		if p, ok := paperFig6Us[r.Label]; ok {
			against(r.Total/1e3, p)
		}
	}
	if want := 2*len(paperTab2) + len(paperFig6Us); cells != want {
		return fmt.Errorf("tab2 and fig6 hold %d of the %d cells the paper values are for", cells, want)
	}
	v["model_err_pct"] = errSum / float64(cells)

	// The paper's headline, as four DiLOS ÷ Fastswap throughput ratios.
	redis := func(rows []redisRow, system string) float64 {
		for _, r := range rows {
			if r.System == system && r.Fraction == 0.125 {
				return r.OpsPerS
			}
		}
		return math.NaN()
	}
	ratios := []float64{
		gbs["DiLOS readahead"][0] / gbs["Fastswap"][0],
		gbs["DiLOS readahead"][1] / gbs["Fastswap"][1],
		redis(fig10a, "DiLOS app-aware") / redis(fig10a, "Fastswap"),
		redis(fig10d, "DiLOS app-aware") / redis(fig10d, "Fastswap"),
	}
	logSum := 0.0
	for _, r := range ratios {
		if math.IsNaN(r) || r <= 0 {
			return fmt.Errorf("a headline cell is missing from tab2/fig10a/fig10d (ratios %v)", ratios)
		}
		logSum += math.Log(r)
	}
	v["virt_speedup_x"] = math.Exp(logSum / float64(len(ratios)))
	return nil
}
