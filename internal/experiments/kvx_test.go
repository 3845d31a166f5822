package experiments

import "testing"

// The ext12 gates, pinned: the layerwise guide holds ≥1.5× the unguided
// decode throughput at the smallest cache ratio, the lifecycle legs
// (en-masse free, region recycling, early-layer spill) all run, content
// integrity holds on every arm, and a same-seed rerun is byte-identical.
func TestExtKVGates(t *testing.T) {
	if testing.Short() {
		t.Skip("ext12 runs ten full systems")
	}
	r := ExtKV(NewRun(DefaultOptions()))

	if want := len(KVFractions) * 3; len(r.Rows) != want {
		t.Fatalf("got %d rows, want %d (3 arms × %d ratios)", len(r.Rows), want, len(KVFractions))
	}
	if r.SpeedupSmallest < 1.5 {
		t.Errorf("guided/none decode throughput at %s is %.2fx, gate requires ≥1.5x",
			FracLabel(KVFractions[0]), r.SpeedupSmallest)
	}
	if !r.Deterministic {
		t.Error("same-seed guided rerun was not byte-identical")
	}
	if !r.MetricsHasKV {
		t.Error("kvcache stat families missing from the rendered /metrics page")
	}

	byArm := map[string]map[float64]KVRow{}
	for _, row := range r.Rows {
		if row.BadReads != 0 {
			t.Errorf("%s@%v: %d bad decode reads — KV content corrupted", row.Arm, row.Fraction, row.BadReads)
		}
		if row.FreedPages == 0 {
			t.Errorf("%s@%v: mid-run Finish freed no frames", row.Arm, row.Fraction)
		}
		if row.SpilledPages == 0 {
			t.Errorf("%s@%v: SpillEarlyLayers evicted nothing", row.Arm, row.Fraction)
		}
		if row.DecodeToks == 0 || row.TPOTMean == 0 || row.TTFT == 0 {
			t.Errorf("%s@%v: empty measurement %+v", row.Arm, row.Fraction, row)
		}
		if byArm[row.Arm] == nil {
			byArm[row.Arm] = map[float64]KVRow{}
		}
		byArm[row.Arm][row.Fraction] = row
	}

	for _, f := range KVFractions {
		none, guided := byArm["none"][f], byArm["guided"][f]
		if guided.TTFT >= none.TTFT {
			t.Errorf("at %v guided TTFT %v is not below unguided %v", f, guided.TTFT, none.TTFT)
		}
		if guided.TPOTMean >= none.TPOTMean {
			t.Errorf("at %v guided TPOT %v is not below unguided %v", f, guided.TPOTMean, none.TPOTMean)
		}
		if guided.GuidePages == 0 {
			t.Errorf("at %v the guided arm issued no prefetches", f)
		}
		if none.GuidePages != 0 {
			t.Errorf("at %v the unguided arm somehow prefetched %d pages", f, none.GuidePages)
		}
	}
}
