package experiments

import (
	"testing"
	"time"
)

// TestRealChaosSmoke is the in-repo ext9 gate: real memnoded processes, a
// kill -9 mid-run, and the three acceptance criteria — zero corruption
// against the shadow, p99 stall inside the deadline budget, and throughput
// back after the restart. CI runs the same harness via ddcrun -real-nodes
// with longer phases.
func TestRealChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin, err := BuildMemnoded(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const budget = 500 * time.Millisecond
	res, err := ExtRealChaos(RealChaosConfig{
		MemnodedPath: bin,
		Nodes:        3,
		Replicas:     2,
		Pages:        256,
		Workers:      4,
		Deadline:     budget,
		Baseline:     600 * time.Millisecond,
		Outage:       800 * time.Millisecond,
		Recovery:     600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ext9: %d ops (%d reads, %d writes), %d failed, %d verified, re-replicated %d in %v",
		res.Ops, res.Reads, res.Writes, res.FailedOps, res.Verified, res.ReReplicated, res.RecoverTook)
	t.Logf("ext9: baseline %.1f MB/s, outage %.1f MB/s, recovered %.1f MB/s; stall p50=%v p99=%v max=%v",
		res.BaselineMBs, res.OutageMBs, res.RecoveredMBs, res.StallP50, res.StallP99, res.StallMax)

	if res.Corruptions != 0 {
		t.Fatalf("ext9: %d corruptions against the host-side shadow", res.Corruptions)
	}
	if res.Verified == 0 || res.Ops == 0 {
		t.Fatal("ext9: harness did no work")
	}
	// The kill must actually have been felt and survived.
	if res.ReReplicated == 0 {
		t.Fatal("ext9: nothing re-replicated onto the restarted node")
	}
	// Bounded stall: p99 inside the budget plus the expiry-sweep slack, and
	// even the worst op (one full budget on the killed replica, then the
	// failover) inside two budgets.
	if limit := budget + 250*time.Millisecond; res.StallP99 > limit {
		t.Fatalf("ext9: p99 stall %v exceeds the %v budget (+slack)", res.StallP99, limit)
	}
	if limit := 2*budget + 250*time.Millisecond; res.StallMax > limit {
		t.Fatalf("ext9: max stall %v exceeds %v", res.StallMax, limit)
	}
	// Throughput must come back after the restart.
	if res.RecoveredMBs < res.BaselineMBs/4 {
		t.Fatalf("ext9: throughput did not recover: baseline %.1f MB/s, recovered %.1f MB/s",
			res.BaselineMBs, res.RecoveredMBs)
	}
	for _, key := range []string{"transport.sent", "transport.retries", "transport.redials"} {
		if _, ok := res.Transport[key]; !ok {
			t.Fatalf("ext9: merged transport counters missing %q", key)
		}
	}
}
