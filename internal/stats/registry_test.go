package stats

import (
	"encoding/json"
	"testing"

	"dilos/internal/sim"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	c := r.RegisterCounter(&Counter{Name: "sys.events"})
	h := r.RegisterHistogram(NewHistogram("sys.latency"))

	c.Add(7)
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}

	s := r.Snapshot()
	if n, ok := s.Counter("sys.events"); !ok || n != 7 {
		t.Fatalf("counter snapshot = %d,%v want 7,true", n, ok)
	}
	hs, ok := s.Histogram("sys.latency")
	if !ok || hs.Count != 100 {
		t.Fatalf("histogram snapshot count = %d,%v want 100,true", hs.Count, ok)
	}
	if hs.P99Ns != int64(99*sim.Microsecond) || hs.MaxNs != int64(100*sim.Microsecond) {
		t.Fatalf("histogram percentiles wrong: p99=%d max=%d", hs.P99Ns, hs.MaxNs)
	}

	// Snapshots are detached: later mutation must not bleed in.
	c.Add(100)
	if n, _ := s.Counter("sys.events"); n != 7 {
		t.Fatalf("snapshot mutated after the fact: %d", n)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter(&Counter{Name: "z.last"})
	r.RegisterCounter(&Counter{Name: "a.first"})
	r.RegisterCounter(&Counter{Name: "m.mid"})
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name > s.Counters[i].Name {
			t.Fatalf("counters not sorted: %q > %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter(&Counter{Name: "dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	r.RegisterHistogram(NewHistogram("dup"))
}

func TestRegistryUnnamedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unnamed counter did not panic")
		}
	}()
	NewRegistry().RegisterCounter(&Counter{})
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter(&Counter{Name: "c", N: 42})
	h := r.RegisterHistogram(NewHistogram("h"))
	h.Record(5 * sim.Microsecond)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if n, ok := back.Counter("c"); !ok || n != 42 {
		t.Fatalf("round-trip counter = %d,%v", n, ok)
	}
	hs, ok := back.Histogram("h")
	if !ok || hs.Count != 1 || hs.MaxNs != int64(5*sim.Microsecond) {
		t.Fatalf("round-trip histogram = %+v,%v", hs, ok)
	}
}
