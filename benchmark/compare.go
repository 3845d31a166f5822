package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of -compare, per (workload, metric).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // a side's own spread exceeds the bound: no claim either way
	verdictInfo       = ""           // per-layer metric: no bound, the delta is information
)

// judge compares a baseline sample a with a candidate b under the metric's
// bound. The tolerance is the bound's share of the baseline median, or its
// absolute floor if that is larger; a metric with neither tolerates
// nothing.
func judge(m metricDef, a, b sample) (verdict string, tol float64) {
	if m.Kind == kindLayer {
		return verdictInfo, 0
	}
	tol = max(m.Rel*math.Abs(a.Value), m.Abs)
	if a.iqr() > tol || b.iqr() > tol {
		return verdictUnresolved, tol
	}
	d := b.Value - a.Value
	if m.Better == "higher" {
		d = -d
	}
	switch {
	case d > tol:
		return verdictWorse, tol
	case d < -tol:
		return verdictBetter, tol
	}
	return verdictSame, tol
}

// compareFiles prints, for every workload and metric two result files
// share, both medians, the delta, the bound and the verdict, and returns
// how many came out worse. Deterministic metrics that differ at all are
// marked, whatever their bound says: a host-only change must leave them
// bit-identical.
func compareFiles(w io.Writer, pathA, pathB string) (worse int, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A: %s  (%s, %d CPUs, GOMAXPROCS %d, %s, commit %s)\n", pathA, a.Env.CPUModel, a.Env.NProc, a.Env.GOMAXPROCS, a.Env.GoVersion, a.Env.GitCommit)
	fmt.Fprintf(w, "B: %s  (%s, %d CPUs, GOMAXPROCS %d, %s, commit %s)\n", pathB, b.Env.CPUModel, b.Env.NProc, b.Env.GOMAXPROCS, b.Env.GoVersion, b.Env.GitCommit)
	if a.Env.CPUModel != b.Env.CPUModel || a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintln(w, "WARNING: the two files were measured on different machines; only virtual-clock metrics compare")
	}
	counts := map[string]int{}
	for _, name := range workloadOrder {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s  (A: seed %d, %d reps, failed %d;  B: seed %d, %d reps, failed %d)\n",
			name, ra.Seed, ra.Reps, ra.Failed, rb.Seed, rb.Reps, rb.Failed)
		fmt.Fprintf(w, "  %-34s %14s %14s %9s %9s  %s\n", "metric", "A", "B", "delta", "bound", "verdict")
		for _, m := range metricTable {
			sa, oka := ra.Metrics[m.Name]
			sb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			verdict, tol := judge(m, sa, sb)
			delta := "0"
			if sa.Value != 0 {
				delta = fmt.Sprintf("%+.2f%%", 100*(sb.Value-sa.Value)/math.Abs(sa.Value))
			} else if sb.Value != 0 {
				delta = fmt.Sprintf("%+.4g", sb.Value)
			}
			bound := ""
			if m.Kind != kindLayer {
				bound = fmt.Sprintf("%.4g", tol)
			}
			note := ""
			if m.Exact && sa.Value != sb.Value {
				note = "  (deterministic metric changed)"
			}
			fmt.Fprintf(w, "  %-34s %14.6g %14.6g %9s %9s  %s%s\n", m.Name, sa.Value, sb.Value, delta, bound, verdict, note)
			counts[verdict]++
		}
	}
	fmt.Fprintf(w, "\n%d same, %d better, %d worse, %d unresolved\n",
		counts[verdictSame], counts[verdictBetter], counts[verdictWorse], counts[verdictUnresolved])
	return counts[verdictWorse], nil
}
