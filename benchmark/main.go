// Command benchmark is the repository's benchmark: five workloads on two
// clocks (virtual time, what the modelled design costs; host time, what the
// simulator and internal/transport cost on real CPUs), end-to-end metrics
// with regression bounds, per-layer probes, counters and CPU-profile
// shares, and a traced repetition. README.md in this directory says why
// each workload and metric is here and how to read the results.
//
// Usage, from the repository root:
//
//	go run -C benchmark .                         # every workload, each in its own child process
//	go run -C benchmark . -workload wire_read4k   # one workload, in this process
//	go run -C benchmark . -compare a.json b.json  # two result files, metric by metric
//	bash benchmark/run.sh --workload scan_rw --seed 7 --seconds 10 --trace 0   # the driver's form
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	var c config
	workload := flag.String("workload", "all", "workload to run: all, or one of fault_storm, scan_rw, wire_read4k, wire_mixed, paper_suite")
	flag.Uint64Var(&c.seed, "seed", 42, "seed of every access sequence and op mix")
	flag.Float64Var(&c.seconds, "seconds", 10, "how long the untraced repetitions measure for, per workload")
	flag.IntVar(&c.reps, "reps", 0, "fixed number of timed repetitions (0: as many as fit in -seconds, at least 3, 4 on paper_suite)")
	trace := flag.Int("trace", -1, "1 adds the traced repetitions and the probes and reports per-layer metrics on the last line; 0 reports the end-to-end metrics (default: 1 for all workloads, 0 for one)")
	out := flag.String("out", "", "results file (default benchmark/out/results.json)")
	flag.BoolVar(&c.quick, "quick", false, "self-test scale: tiny sizes through the same code paths")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exits non-zero on any metric that got worse")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse > 0 {
			os.Exit(1)
		}
		return
	}

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	c.root = root
	c.outDir = filepath.Join(root, "benchmark", "out")
	if *out == "" {
		*out = filepath.Join(c.outDir, "results.json")
	}

	if *workload == "all" {
		c.trace = *trace != 0
		if err := runAll(&c, *out); err != nil {
			fatal(err)
		}
		return
	}
	c.trace = *trace == 1
	env := stampEnv(root)
	res, err := runWorkload(&c, *workload)
	if err != nil {
		fatal(err)
	}
	env.LoadEnd = load1()
	res.Warnings = append(res.Warnings, noiseWarnings(res, env)...)
	printResult(os.Stdout, res)
	if err := writeResults(*out, &resultsFile{Env: env, Workloads: map[string]*result{res.Workload: res}}); err != nil {
		fatal(err)
	}
	line, err := driverLine(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot locates the repository checkout: the nearest directory, from
// the working directory upwards, that holds this benchmark and the program
// it measures. The driver starts the benchmark at the root; `go run -C
// benchmark .` starts it one level down.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "benchmark", "go.mod")) && isFile(filepath.Join(dir, "go.mod")) &&
			isFile(filepath.Join(dir, "cmd", "dilosbench", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout of the repository (no benchmark/go.mod beside go.mod and cmd/dilosbench above the working directory)")
		}
		dir = parent
	}
}

func isFile(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.Mode().IsRegular()
}

// resultsFile is benchmark/out/results.json.
type resultsFile struct {
	Env       envStamp           `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func writeResults(path string, rf *resultsFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// runAll runs every workload, each in a child process of its own so that
// heap growth and peak RSS never leak from one workload into the next,
// and merges their results into one file.
func runAll(c *config, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	env := stampEnv(c.root)
	rf := &resultsFile{Workloads: map[string]*result{}}
	failed := false
	for _, name := range workloadOrder {
		part := filepath.Join(c.outDir, name+".result.json")
		trace := "0"
		if c.trace {
			trace = "1"
		}
		args := []string{"-workload", name, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
			"-reps", fmt.Sprint(c.reps), "-trace", trace, "-out", part}
		if c.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = c.root
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		one, err := readResults(part)
		if err != nil {
			return err
		}
		res := one.Workloads[name]
		if res == nil {
			return fmt.Errorf("%s: child wrote no result", name)
		}
		rf.Workloads[name] = res
		failed = failed || !res.Correct
	}
	env.LoadEnd = load1()
	rf.Env = env
	if err := writeResults(out, rf); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and one trace per workload under %s\n", out, c.outDir)
	if failed {
		return errors.New("at least one workload reported failed ops")
	}
	return nil
}

// noiseWarnings flags a run whose numbers should not be trusted: a loaded
// machine, or a repetition spread wider than a metric's own bound.
func noiseWarnings(res *result, env envStamp) []string {
	var ws []string
	if l := max(env.LoadStart, env.LoadEnd); l > float64(env.NProc) {
		ws = append(ws, fmt.Sprintf("%s: load average %.2f exceeds %d CPUs; host-clock numbers are suspect", res.Workload, l, env.NProc))
	}
	for _, m := range metricTable {
		s, ok := res.Metrics[m.Name]
		if !ok || m.Rel == 0 || s.Value == 0 {
			continue
		}
		if spread := s.iqr() / math.Abs(s.Value); spread > m.Rel && s.iqr() > m.Abs {
			ws = append(ws, fmt.Sprintf("%s: %s spread %.1f %% over %d repetitions exceeds its %.0f %% bound", res.Workload, m.Name, 100*spread, s.N, 100*m.Rel))
		}
	}
	return ws
}

// printResult prints every metric the run measured, by name with its unit,
// quartiles and sample count, in the metric table's order.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d  reps=%d  traced=%v  attempted=%d  failed=%d  digest=%s  (%.1f s)\n",
		res.Workload, res.Seed, res.Reps, res.Traced, res.Attempted, res.Failed, res.Digest, res.WallS)
	for _, m := range metricTable {
		s, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		spread := ""
		if s.Q1 != s.Q3 {
			spread = fmt.Sprintf("[q1 %.6g  q3 %.6g]", s.Q1, s.Q3)
		}
		fmt.Fprintf(w, "  %-12s %-34s %14.6g %-7s n=%-8d %s\n", m.Kind, m.Name, s.Value, s.Unit, s.N, spread)
	}
	for _, warn := range res.Warnings {
		fmt.Fprintln(w, "  WARNING:", warn)
	}
}

// driverLine is the last line of standard output the driver reads: every
// end_to_end metric for an untraced run, every per_layer metric of
// BENCHMARK.json for a traced one. The driver's contract wants each of
// them on every workload, so a per-layer metric this workload does not
// exercise reads 0 here; the results file and the printed table omit it.
func driverLine(res *result) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, m := range metricTable {
		if (m.Kind == kindE2E) == res.Traced {
			continue
		}
		metrics[m.Name] = val{Value: res.Metrics[m.Name].Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil { // a NaN or infinity among the values: the run is unusable
		return "", fmt.Errorf("%s: result line: %w", res.Workload, err)
	}
	return string(b), nil
}
