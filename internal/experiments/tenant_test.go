package experiments

import "testing"

func TestExtTenantIsolationAndDeterminism(t *testing.T) {
	// ext8's acceptance bar, at the tiny scale: quotas hold the victim's
	// p99 within the gate while the unpartitioned control exceeds it, the
	// bucket visibly throttles the aggressor, the floor survives a run full
	// of rebalancer ticks, and the isolated leg repeats byte-identically.
	res := ExtTenant(runAt(tiny()))
	if res.SoloFaults == 0 || res.IsoFaults == 0 || res.CtrlFaults == 0 {
		t.Fatalf("degenerate legs: faults solo=%d iso=%d ctrl=%d",
			res.SoloFaults, res.IsoFaults, res.CtrlFaults)
	}
	if !res.IsoPass {
		t.Fatalf("isolated p99 %v is %.2fx solo %v (gate %.1fx)",
			res.IsoP99, res.IsoRatio, res.SoloP99, res.Gate)
	}
	if !res.CtrlExceeds {
		t.Fatalf("control p99 %v only %.2fx solo %v — the aggressor is not adversarial enough to prove isolation matters",
			res.CtrlP99, res.CtrlRatio, res.SoloP99)
	}
	if res.AggrFaultsIso >= res.AggrFaultsCtrl {
		t.Fatalf("bucket did not throttle the aggressor: %d majors capped vs %d uncapped",
			res.AggrFaultsIso, res.AggrFaultsCtrl)
	}
	if res.VictimReservedEnd < res.VictimFloor {
		t.Fatalf("rebalancer pushed the victim below its floor: reserved %d < floor %d",
			res.VictimReservedEnd, res.VictimFloor)
	}
	if !res.Deterministic {
		t.Fatal("same-seed isolated legs gave different registry snapshots")
	}
}
