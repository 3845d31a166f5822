package experiments

import "testing"

// TestExtScalingGates runs the full ext10 sweep at the smoke scale and
// asserts the headline acceptance gates: the sharded fault path scales
// near-linearly from 1 to 4 cores while the wide-lock baseline plateaus,
// and the sharded tail latency stays flat while the shared tail balloons.
func TestExtScalingGates(t *testing.T) {
	res := ExtScaling(runAt(tiny()))
	if want := len(DefaultOptions().ScalingCores); len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	var at4 ScalingRow
	for _, r := range res.Rows {
		if r.SharedFaults == 0 || r.ShardedFaults == 0 {
			t.Fatalf("degenerate row at %d cores: shared=%d sharded=%d faults",
				r.Cores, r.SharedFaults, r.ShardedFaults)
		}
		if r.SharedP99 == 0 || r.ShardedP99 == 0 {
			t.Fatalf("no fault latency samples at %d cores", r.Cores)
		}
		if r.Cores == 4 {
			at4 = r
		}
	}
	if res.ShardedSpeedup < 2.5 {
		t.Errorf("sharded 1->4 core speedup = %.2fx, want >= 2.5x", res.ShardedSpeedup)
	}
	if res.SharedSpeedup >= 1.5 {
		t.Errorf("shared 1->4 core speedup = %.2fx, want < 1.5x (the wide lock must plateau)", res.SharedSpeedup)
	}
	// The per-core shards keep the tail flat; the wide lock queues fault
	// handlers behind whole daemon sweeps.
	if at4.ShardedP99*2 > at4.SharedP99 {
		t.Errorf("4-core p99: sharded %v vs shared %v, want sharded at most half", at4.ShardedP99, at4.SharedP99)
	}
}

// TestExtScalingDeterministic reruns one sharded leg and demands identical
// fault counts, elapsed time, and tail latency: the sharded daemons and
// work stealing must not introduce schedule nondeterminism.
func TestExtScalingDeterministic(t *testing.T) {
	n1, e1, p1 := runAt(tiny()).runScalingLeg(4, true)
	n2, e2, p2 := runAt(tiny()).runScalingLeg(4, true)
	if n1 != n2 || e1 != e2 || p1 != p2 {
		t.Fatalf("sharded leg not deterministic: (%d,%v,%v) vs (%d,%v,%v)", n1, e1, p1, n2, e2, p2)
	}
}
