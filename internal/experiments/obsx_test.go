package experiments

import (
	"testing"
)

// obsScale keeps ext11 fast under `go test` while preserving the shapes
// the gates check: enough pages that the seq legs fault for millions of
// virtual ns and the detect legs sweep a multi-ms window.
func obsScale() Scale {
	sc := DefaultScale()
	sc.SeqPages = 2048
	return sc
}

// The ext11 gates, pinned: the plane is free in virtual time, its output
// is deterministic, the burn-rate alert fires within budget on the storm
// leg and never on a clean one.
func TestExtObsGates(t *testing.T) {
	if testing.Short() {
		t.Skip("ext11 runs several full systems")
	}
	run := runAt(obsScale())
	run.ChaosSeed = 7
	r := ExtObs(run)

	// Gate 1: always-on overhead. The plane runs in host time only; the
	// virtual-time throughput plane-on must equal plane-off exactly —
	// stronger than the issue's <1 % bound.
	if r.OnElapsed != r.OffElapsed {
		t.Errorf("plane-on elapsed %v != plane-off %v (plane perturbed virtual time)",
			r.OnElapsed, r.OffElapsed)
	}

	// Gate 2: same-seed determinism of the full rendered output
	// (metrics + statusz + journal).
	if !r.Deterministic {
		t.Error("same-seed plane-on runs rendered different observability pages")
	}
	if r.PageBytes == 0 {
		t.Error("rendered observability page is empty")
	}
	if r.SampledOut == 0 {
		t.Error("tail sampling never rejected a span — policy not applied")
	}

	// Gate 3: detection. The storm leg must alert within the budget…
	if !r.Detected {
		t.Fatal("tail storm never raised the burn-rate alert")
	}
	if r.DetectedAt < r.TailAt {
		t.Errorf("alert at %v predates the storm at %v", r.DetectedAt, r.TailAt)
	}
	if r.DetectLatency > Ext11DetectBudget() {
		t.Errorf("detection latency %v exceeds budget %v", r.DetectLatency, Ext11DetectBudget())
	}
	if r.TailsInjected == 0 {
		t.Error("storm leg injected no tails")
	}

	// …and no storm-free leg may ever alert.
	if r.CleanAlerts != 0 {
		t.Errorf("clean legs raised %d alerts, want 0", r.CleanAlerts)
	}
}
