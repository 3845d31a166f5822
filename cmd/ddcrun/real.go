package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"dilos/internal/experiments"
)

// realChaosFlags carries the -real-* flag values into runRealChaos.
type realChaosFlags struct {
	nodes, replicas, pages, workers int
	deadline                        time.Duration
	baseline, outage, recovery      time.Duration
	memnoded                        string
	dumpStats                       bool
}

// runRealChaos is the ext9 entry point: instead of driving the simulator it
// spawns real memnoded processes over loopback TCP, kill -9's one mid-run,
// and verifies every acknowledged byte against a host-side shadow. Returns
// the process exit code (non-zero on corruption or harness failure).
func runRealChaos(f realChaosFlags) int {
	bin := f.memnoded
	if bin == "" {
		dir, err := os.MkdirTemp("", "ddcrun-memnoded-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		fmt.Fprintf(os.Stderr, "ext9: building memnoded into %s\n", dir)
		if bin, err = experiments.BuildMemnoded(dir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	res, err := experiments.ExtRealChaos(experiments.RealChaosConfig{
		MemnodedPath: bin,
		Nodes:        f.nodes,
		Replicas:     f.replicas,
		Pages:        f.pages,
		Workers:      f.workers,
		Deadline:     f.deadline,
		Baseline:     f.baseline,
		Outage:       f.outage,
		Recovery:     f.recovery,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ext9: %v\n", err)
		return 1
	}

	fmt.Printf("ext9: %d memnoded replicas=%d pages=%d, killed node %d (pid %d) at %v, restarted at %v\n",
		res.Nodes, res.Replicas, res.Pages, res.KilledNode, res.KilledPid, res.KillAt, res.RecoverAt)
	fmt.Printf("ext9: %d ops (%d reads, %d writes), %d bounded failures, %d verified, re-replicated %d pages in %v\n",
		res.Ops, res.Reads, res.Writes, res.FailedOps, res.Verified, res.ReReplicated, res.RecoverTook)
	fmt.Printf("ext9: throughput baseline %.1f MB/s, outage %.1f MB/s, recovered %.1f MB/s\n",
		res.BaselineMBs, res.OutageMBs, res.RecoveredMBs)
	fmt.Printf("ext9: stall (budget %v): p50=%v p99=%v max=%v\n",
		res.DeadlineBudget, res.StallP50, res.StallP99, res.StallMax)
	keys := make([]string, 0, len(res.Transport))
	for k := range res.Transport {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-26s %d\n", k, res.Transport[k])
	}
	fmt.Printf("ext9: corruptions: %d\n", res.Corruptions)

	if f.dumpStats {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if res.Corruptions != 0 {
		fmt.Fprintf(os.Stderr, "ext9: FAIL: %d corruptions against the host-side shadow\n", res.Corruptions)
		return 1
	}
	return 0
}
