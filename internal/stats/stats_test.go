package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dilos/internal/sim"
)

func TestCounter(t *testing.T) {
	c := Counter{Name: "faults"}
	c.Inc()
	c.Add(4)
	if c.N != 5 {
		t.Fatalf("N = %d, want 5", c.N)
	}
	if c.String() != "faults=5" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 50 { // (1+..+100)/100 = 50.5 truncated
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.P50() != 50 {
		t.Fatalf("p50 = %v", h.P50())
	}
	if h.P99() != 99 {
		t.Fatalf("p99 = %v", h.P99())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %v", h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram("empty")
	if h.Mean() != 0 || h.P99() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramRecordAfterPercentile(t *testing.T) {
	h := NewHistogram("lat")
	h.Record(10)
	_ = h.P50()
	h.Record(1) // must re-sort
	if h.P50() != 1 {
		t.Fatalf("p50 = %v, want 1", h.P50())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram("lat")
	h.Record(10)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear state")
	}
}

// Property: percentile matches a reference nearest-rank implementation.
func TestQuickPercentile(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		p := 1 + float64(pRaw%100)
		h := NewHistogram("q")
		ref := make([]sim.Time, len(raw))
		for i, r := range raw {
			h.Record(sim.Time(r))
			ref[i] = sim.Time(r)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		rank := int(float64(len(ref)) * p / 100)
		if float64(rank) < float64(len(ref))*p/100 {
			rank++
		}
		if rank < 1 {
			rank = 1
		}
		if rank > len(ref) {
			rank = len(ref)
		}
		return h.Percentile(p) == ref[rank-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram("q")
	for i := 0; i < 1000; i++ {
		h.Record(sim.Time(rng.Intn(1 << 20)))
	}
	prev := sim.Time(0)
	for p := 1.0; p <= 100; p += 0.5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestBandwidthBuckets(t *testing.T) {
	b := NewBandwidth("net", 1000)
	b.Add(0, 100)
	b.Add(999, 50)
	b.Add(1000, 25)
	b.Add(5500, 10)
	bk := b.buckets
	if len(bk) != 6 {
		t.Fatalf("len(buckets) = %d, want 6", len(bk))
	}
	if bk[0] != 150 || bk[1] != 25 || bk[5] != 10 {
		t.Fatalf("buckets = %v", bk)
	}
	if b.Total() != 185 {
		t.Fatalf("total = %d", b.Total())
	}
}

func TestBandwidthSeries(t *testing.T) {
	b := NewBandwidth("net", sim.Second)
	b.Add(0, 2e9)
	pts := b.Series()
	if len(pts) != 1 || GBps(pts[0].BytesPerSec) != 2.0 {
		t.Fatalf("series = %v", pts)
	}
}

// Property: total equals the sum of buckets for arbitrary adds.
func TestQuickBandwidthConservation(t *testing.T) {
	f := func(samples []struct {
		At    uint16
		Bytes uint16
	}) bool {
		b := NewBandwidth("q", 64)
		for _, s := range samples {
			b.Add(sim.Time(s.At), int64(s.Bytes))
		}
		var sum int64
		for _, v := range b.buckets {
			sum += v
		}
		return sum == b.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
