// Command dilosbench regenerates the paper's tables and figures (§6) from
// the reproduction and prints them in the paper's format, with the
// published values alongside for comparison.
//
// The command itself is a thin driver: every experiment lives in
// internal/experiments and self-registers via experiments.Register, so
// -list, dispatch, and -json all run off the registry. The flags fill one
// experiments.Options value, and every entry of the invocation runs on
// one experiments.Run built from it (plus one per -cores setting).
//
// Usage:
//
//	dilosbench -exp all          # everything (several minutes)
//	dilosbench -exp tab2         # one artifact
//	dilosbench -list             # what's available
//	dilosbench -exp fig7a -scale 2   # larger working sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -debug-addr; no handlers registered unless it serves
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"time"

	"dilos/internal/experiments"
	"dilos/internal/obs"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// writeMemProfile dumps a heap profile for -memprofile (after a GC, so the
// profile reflects live simulator state rather than garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

// parseCores parses a -cores comma list like "1,2,4,8".
func parseCores(spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-cores wants a comma list of positive core counts, got %q", spec)
		}
		out = append(out, n)
	}
	return out, nil
}

// printExp prints one experiment, once per -cores setting when a sweep is
// active (coreRuns holds one run per setting). CoresAware experiments
// (ext10) sweep core counts internally, so they run once on run.
func printExp(e experiments.Entry, run *experiments.Run, coreRuns []*experiments.Run) {
	if len(coreRuns) == 0 || e.CoresAware {
		e.Print(e.Rows(run))
		return
	}
	for i, cr := range coreRuns {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== cores=%d ===\n", cr.Cores)
		e.Print(e.Rows(cr))
	}
}

type labeledSnapshot struct {
	Label string         `json:"label"`
	Stats stats.Snapshot `json:"stats"`
}

func main() {
	opts := experiments.DefaultOptions()
	exp := flag.String("exp", "", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	scale := flag.Float64("scale", 1, "working-set scale multiplier")
	asJSON := flag.Bool("json", false, "emit structured JSON instead of tables")
	withStats := flag.Bool("stats", false,
		"capture a full stats snapshot per system run and dump them as JSON")
	flag.Uint64Var(&opts.ChaosSeed, "chaos-seed", opts.ChaosSeed,
		"seed for the seeded experiments' deterministic fault injection and determinism legs (same seed ⇒ identical run)")
	batch := flag.String("batch", "off",
		"doorbell-batched submission (on|off) for every DiLOS system the experiments build; ext5 measures both regardless")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	traceOut := flag.String("trace-out", "",
		"record a flight-recorder trace and write it as Perfetto/Chrome JSON to this file (the last simulation actually executed wins; a sweep an entry reuses from an earlier entry is not simulated or recorded again)")
	sampleInterval := flag.Duration("sample-interval", 50*time.Microsecond,
		"virtual-time gauge sampling interval for -trace-out counter tracks (0 disables them)")
	flag.IntVar(&opts.MigrateDrainNode, "migrate-drain", opts.MigrateDrainNode,
		"memory node ext7 drains out of its 3-node pool (0-2)")
	flag.Float64Var(&opts.MigrateWatermark, "migrate-watermark", opts.MigrateWatermark,
		"occupancy-imbalance fraction that arms continuous auto-rebalancing on ext7's migration engine (0 = drain/join only)")
	flag.IntVar(&opts.KVLayers, "kv-layers", opts.KVLayers,
		"ext12: transformer layers per sequence")
	flag.IntVar(&opts.KVSeqs, "kv-seqs", opts.KVSeqs,
		"ext12: concurrent sequences in the KV-cache batch")
	flag.IntVar(&opts.KVDecode, "kv-decode", opts.KVDecode,
		"ext12: decode steps per sequence after prefill")
	metricsAddr := flag.String("metrics-addr", "",
		"serve /metrics, /statusz, /journalz, /healthz on this address for the duration of the invocation (pages refresh after every system run)")
	debugAddr := flag.String("debug-addr", "",
		"serve net/http/pprof on this address (off by default; see DESIGN.md §14 for the profiling workflow)")
	coresSpec := flag.String("cores", "",
		"comma list of core counts (e.g. 1,2,4,8): run each experiment once per setting with the sharded manager at that core count (one stats block per setting); ext10 sweeps exactly this list")
	flag.Parse()
	cores, err := parseCores(*coresSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(cores) > 0 {
		opts.ScalingCores = cores
	}
	if opts.MigrateDrainNode < 0 || opts.MigrateDrainNode > 2 {
		fmt.Fprintf(os.Stderr, "-migrate-drain must be 0-2, got %d\n", opts.MigrateDrainNode)
		os.Exit(2)
	}
	switch *batch {
	case "on":
		opts.Batch = true
	case "off":
	default:
		fmt.Fprintf(os.Stderr, "-batch must be on or off, got %q\n", *batch)
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)
	if *traceOut != "" {
		opts.SampleEvery = sim.Time((*sampleInterval).Nanoseconds())
		opts.TelemetrySink = func(label string, rec *telemetry.Recorder, sam *telemetry.Sampler) {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			if err := telemetry.WritePerfetto(f, rec, sam); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "trace: wrote %s (%s)\n", *traceOut, label)
		}
	}
	// statsDump accumulates whatever the Collect hook hands back (-stats).
	var statsDump []labeledSnapshot
	if *withStats {
		opts.Collect = func(label string, snap stats.Snapshot) {
			statsDump = append(statsDump, labeledSnapshot{Label: label, Stats: snap})
		}
	}
	if *debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/\n", *debugAddr)
	}
	if *metricsAddr != "" {
		srv := obs.NewServer()
		addr, err := srv.ListenAndServe(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics on http://%s/\n", addr)
		// Each finished system run re-publishes the exporter pages; the
		// scrape target stays live across the whole batch.
		prev := opts.Collect
		opts.Collect = func(label string, snap stats.Snapshot) {
			if prev != nil {
				prev(label, snap)
			}
			srv.PublishMetrics(obs.AppendMetrics(nil, snap, nil))
			srv.PublishStatus([]byte("dilosbench last run: " + label + "\n"))
		}
	}

	if *list || *exp == "" {
		fmt.Println("experiments (pass -exp <id> or -exp all):")
		for _, e := range experiments.Entries() {
			fmt.Printf("  %-7s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			os.Exit(2)
		}
		return
	}

	entries := experiments.Entries()
	if *exp != "all" {
		entries = nil
		for _, id := range strings.Split(*exp, ",") {
			e, ok := experiments.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			entries = append(entries, e)
		}
	}
	opts.Scale = scaled(*scale)
	run := experiments.NewRun(opts)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if *asJSON {
		out := map[string]any{}
		for _, e := range entries {
			out[e.ID] = e.Rows(run)
		}
		var doc any = out
		if *withStats {
			doc = map[string]any{"results": out, "stats": statsDump}
		}
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	var coreRuns []*experiments.Run
	for _, n := range cores {
		o := opts
		o.Cores = n
		coreRuns = append(coreRuns, experiments.NewRun(o))
	}
	for _, e := range entries {
		printExp(e, run, coreRuns)
		fmt.Println()
	}
	if *withStats {
		fmt.Println("stats snapshots (one object per system run):")
		if err := enc.Encode(statsDump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func scaled(mult float64) experiments.Scale {
	sc := experiments.DefaultScale()
	m := func(v uint64) uint64 { return uint64(float64(v) * mult) }
	sc.SeqPages = m(sc.SeqPages)
	sc.QuicksortN = m(sc.QuicksortN)
	sc.KMeansPoints = m(sc.KMeansPoints)
	sc.SnappyBytes = m(sc.SnappyBytes)
	sc.DataframeRows = m(sc.DataframeRows)
	sc.RedisKeys4K = int(float64(sc.RedisKeys4K) * mult)
	sc.RedisKeys64K = int(float64(sc.RedisKeys64K) * mult)
	sc.RedisKeysMix = int(float64(sc.RedisKeysMix) * mult)
	sc.RedisListElem = int(float64(sc.RedisListElem) * mult)
	return sc
}
