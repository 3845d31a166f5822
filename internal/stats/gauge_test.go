package stats

import (
	"testing"

	"dilos/internal/sim"
)

func TestGaugeSetAddEnvelope(t *testing.T) {
	g := &Gauge{Name: "g"}
	if g.Last() != 0 || g.Min() != 0 || g.Max() != 0 || g.n != 0 {
		t.Fatalf("fresh gauge not zero: %v", g)
	}
	g.Set(5)
	if g.Last() != 5 || g.Min() != 5 || g.Max() != 5 {
		t.Fatalf("after Set(5): %v", g)
	}
	g.Set(3)
	g.Set(g.Last() + 10) // 13
	g.Set(g.Last() - 14)
	if g.Last() != -1 || g.Min() != -1 || g.Max() != 13 {
		t.Fatalf("envelope wrong: %v", g)
	}
	if g.n != 4 {
		t.Fatalf("samples = %d, want 4", g.n)
	}
}

// The first Set must seed the envelope: a gauge that only ever holds
// positive values must not report min=0 from the zero value.
func TestGaugeMinSeededByFirstSet(t *testing.T) {
	g := &Gauge{Name: "g"}
	g.Set(100)
	g.Set(200)
	if g.Min() != 100 {
		t.Fatalf("min = %d, want 100", g.Min())
	}
}

func TestRegistryGaugeSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	b := r.RegisterGauge(&Gauge{Name: "b.gauge"})
	a := r.RegisterGauge(&Gauge{Name: "a.gauge"})
	a.Set(1)
	b.Set(2)
	s := r.Snapshot()
	if len(s.Gauges) != 2 || s.Gauges[0].Name != "a.gauge" || s.Gauges[1].Name != "b.gauge" {
		t.Fatalf("gauges not name-sorted: %+v", s.Gauges)
	}
	got, ok := s.Gauge("b.gauge")
	if !ok || got.Last != 2 {
		t.Fatalf("lookup b.gauge = %+v, %v", got, ok)
	}
	// The snapshot is detached from the live gauge.
	b.Set(99)
	if got, _ := s.Gauge("b.gauge"); got.Last != 2 {
		t.Fatalf("snapshot mutated by later Set: %+v", got)
	}
}

func TestRegistryGaugeDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate gauge name did not panic")
		}
	}()
	r := NewRegistry()
	r.RegisterGauge(&Gauge{Name: "dup"})
	r.RegisterGauge(&Gauge{Name: "dup"})
}

// Regression: the final bucket of a Bandwidth series is partial — a run
// that moved 1 MB in its first 100 µs must report ≈10 GB/s, not the
// 1 GB/s that averaging over the full 1 ms bucket width reported.
func TestBandwidthFinalPartialBucket(t *testing.T) {
	b := NewBandwidth("bw", sim.Millisecond)
	const bytes = 1 << 20
	b.Add(100*sim.Microsecond, bytes)
	pts := b.Series()
	if len(pts) != 1 {
		t.Fatalf("series length = %d, want 1", len(pts))
	}
	want := float64(bytes) / (100 * sim.Microsecond).Seconds()
	got := pts[0].BytesPerSec
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("partial bucket rate = %.3g B/s, want ≈%.3g B/s", got, want)
	}
}

// Only the final bucket is elapsed-scaled: interior buckets keep the full
// width, and a sample landing exactly on the last tick of a bucket keeps
// the rate finite.
func TestBandwidthInteriorBucketsFullWidth(t *testing.T) {
	b := NewBandwidth("bw", sim.Millisecond)
	b.Add(0, 1000)
	b.Add(sim.Millisecond+sim.Millisecond/2, 500) // mid second bucket
	pts := b.Series()
	if len(pts) != 2 {
		t.Fatalf("series length = %d, want 2", len(pts))
	}
	wantFirst := 1000 / sim.Millisecond.Seconds()
	if pts[0].BytesPerSec != wantFirst {
		t.Fatalf("interior bucket rate = %v, want %v", pts[0].BytesPerSec, wantFirst)
	}
	wantLast := 500 / (sim.Millisecond / 2).Seconds()
	if got := pts[1].BytesPerSec; got < wantLast*0.99 || got > wantLast*1.01 {
		t.Fatalf("final bucket rate = %v, want ≈%v", got, wantLast)
	}
}
