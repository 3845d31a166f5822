package experiments

import "testing"

// Ext6's headline shapes, guarded at a small scale: Fastswap pays a real
// reclaim stage under paging pressure while DiLOS's is structurally zero,
// and DiLOS's total fault latency beats Fastswap's.
func TestExtAnatomySmoke(t *testing.T) {
	sc := DefaultScale()
	sc.SeqPages = 4096 // runAnatomy sweeps SeqPages/4 = 1024 pages
	rows := ExtAnatomy(runAt(sc))
	if len(rows) != len(ext6Fractions)*3 {
		t.Fatalf("got %d rows, want %d", len(rows), len(ext6Fractions)*3)
	}
	byKey := map[SystemKind]map[float64]Ext6Row{}
	for _, r := range rows {
		if r.Anatomy.Faults == 0 {
			t.Fatalf("%s@%v recorded no faults", r.System, r.Fraction)
		}
		if r.Anatomy.Dropped != 0 {
			t.Fatalf("%s@%v dropped %d fault spans", r.System, r.Fraction, r.Anatomy.Dropped)
		}
		if byKey[r.System] == nil {
			byKey[r.System] = map[float64]Ext6Row{}
		}
		byKey[r.System][r.Fraction] = r
	}
	fs := byKey[SysFastswap][0.125].Anatomy
	dl := byKey[SysDiLOSNone][0.125].Anatomy
	if fs.Stage("reclaim").MeanNs == 0 {
		t.Error("Fastswap at 12.5% cache shows no direct-reclaim stage")
	}
	for _, kind := range []SystemKind{SysDiLOSNone, SysDiLOSRA} {
		for frac, r := range byKey[kind] {
			if got := r.Anatomy.Stage("reclaim").MeanNs; got != 0 {
				t.Errorf("%s@%v has reclaim stage %dns; DiLOS never reclaims on the fault path", kind, frac, got)
			}
		}
	}
	if dl.MeanNs >= fs.MeanNs {
		t.Errorf("DiLOS mean fault %dns not below Fastswap %dns", dl.MeanNs, fs.MeanNs)
	}
}
