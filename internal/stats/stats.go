// Package stats provides the measurement primitives the evaluation harness
// is built on: counters, latency histograms with tail percentiles, and
// time-bucketed bandwidth series (for the Figure 12 style plots).
package stats

import (
	"fmt"
	"math"
	"sort"

	"dilos/internal/sim"
)

// Counter is a simple named event counter.
type Counter struct {
	Name string
	N    int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.N += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.N++ }

func (c *Counter) String() string { return fmt.Sprintf("%s=%d", c.Name, c.N) }

// Gauge tracks an instantaneous level (cache occupancy, queue depth,
// free-list size). Unlike a Counter it can move both ways; the snapshot
// keeps the last value plus the min/max envelope seen across the run, so
// watermark breathing survives into aggregate output even without the
// telemetry sampler attached.
type Gauge struct {
	Name     string
	last     int64
	min, max int64
	n        int64
}

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.last = v
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.n++
}

// Last returns the most recently set value.
func (g *Gauge) Last() int64 { return g.last }

// Min returns the smallest value ever set (0 before the first Set).
func (g *Gauge) Min() int64 { return g.min }

// Max returns the largest value ever set (0 before the first Set).
func (g *Gauge) Max() int64 { return g.max }

func (g *Gauge) String() string {
	return fmt.Sprintf("%s=%d [%d..%d]", g.Name, g.last, g.min, g.max)
}

// Histogram records latency samples and reports percentiles. Samples are
// stored exactly (the simulations here record at most a few million), so
// percentiles are exact rather than bucket-approximated.
type Histogram struct {
	Name    string
	samples []sim.Time
	sorted  bool
	sum     sim.Time
	max     sim.Time
}

// NewHistogram creates an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name}
}

// Record adds one sample.
func (h *Histogram) Record(v sim.Time) {
	h.samples = append(h.samples, v)
	h.sorted = false
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int { return len(h.samples) }

// Max returns the largest sample.
func (h *Histogram) Max() sim.Time { return h.max }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	return h.sum / sim.Time(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples.
func (h *Histogram) Percentile(p float64) sim.Time {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	// Multiply before dividing: p/100 is inexact in binary floating
	// point, and ceil amplifies the dust into an off-by-one rank
	// (e.g. ceil(0.28*25) = 8, but ceil(28*25/100) = 7).
	rank := int(math.Ceil(float64(len(h.samples)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// P50, P99, P999 are shorthands for the usual tail percentiles.
func (h *Histogram) P50() sim.Time  { return h.Percentile(50) }
func (h *Histogram) P99() sim.Time  { return h.Percentile(99) }
func (h *Histogram) P999() sim.Time { return h.Percentile(99.9) }

// Reset drops all samples.
func (h *Histogram) Reset() {
	h.samples = h.samples[:0]
	h.sorted = false
	h.sum = 0
	h.max = 0
}

func (h *Histogram) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		h.Name, h.Count(), h.Mean(), h.P50(), h.P99(), h.P999(), h.Max())
}

// Bandwidth accumulates transferred bytes into fixed-width virtual-time
// buckets, producing the bandwidth-over-time series of Figure 12.
type Bandwidth struct {
	Name    string
	Bucket  sim.Time // bucket width
	buckets []int64  // bytes per bucket
	total   int64
	lastAt  sim.Time // latest sample time, bounds the final partial bucket
}

// NewBandwidth creates a bandwidth series with the given bucket width.
func NewBandwidth(name string, bucket sim.Time) *Bandwidth {
	if bucket <= 0 {
		panic("stats: bandwidth bucket must be positive")
	}
	return &Bandwidth{Name: name, Bucket: bucket}
}

// Add records `bytes` transferred at virtual time `at`.
func (b *Bandwidth) Add(at sim.Time, bytes int64) {
	if bytes < 0 {
		panic("stats: negative bandwidth sample")
	}
	idx := int(at / b.Bucket)
	for len(b.buckets) <= idx {
		b.buckets = append(b.buckets, 0)
	}
	b.buckets[idx] += bytes
	b.total += bytes
	if at > b.lastAt {
		b.lastAt = at
	}
}

// Total returns the total bytes recorded.
func (b *Bandwidth) Total() int64 { return b.total }

// Series returns (bucket start time, bytes/sec) pairs for plotting.
// The final bucket is almost always partial — the run ended at the last
// sample, not at the bucket's right edge — so its rate is computed over
// the elapsed portion only. Averaging it over the full width dilutes
// short runs toward zero (a 100 µs run in a 1 ms bucket reported a tenth
// of its real bandwidth). When every sample landed at a single instant
// there is no elapsed span to rate over, so the full width stands.
func (b *Bandwidth) Series() []BandwidthPoint {
	pts := make([]BandwidthPoint, len(b.buckets))
	for i, v := range b.buckets {
		width := b.Bucket
		if i == len(b.buckets)-1 {
			if elapsed := b.lastAt - sim.Time(i)*b.Bucket; elapsed > 0 && elapsed < width {
				width = elapsed
			}
		}
		pts[i] = BandwidthPoint{
			At:          sim.Time(i) * b.Bucket,
			BytesPerSec: float64(v) / width.Seconds(),
		}
	}
	return pts
}

// BandwidthPoint is one point of a bandwidth series.
type BandwidthPoint struct {
	At          sim.Time
	BytesPerSec float64
}

// GBps formats a bytes/sec value as GB/s (decimal GB, as the paper does).
func GBps(bytesPerSec float64) float64 { return bytesPerSec / 1e9 }
