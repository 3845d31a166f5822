package stats

import (
	"fmt"
	"sort"
)

// Registry is the single observability surface of a System: every
// counter, histogram, and bandwidth series registers here at
// construction under its stable name (e.g. "dilos.major_faults"), and
// Snapshot() serialises all of them at once — so new experiments never
// hand-plumb stats again. Names must be unique; Register* panics on a
// duplicate, which catches wiring mistakes at boot rather than as
// silently shadowed metrics.
type Registry struct {
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
	bandwidths []*Bandwidth
	names      map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

func (r *Registry) claim(kind, name string) {
	if name == "" {
		panic(fmt.Sprintf("stats: registering unnamed %s", kind))
	}
	if r.names[name] {
		panic(fmt.Sprintf("stats: duplicate metric name %q", name))
	}
	r.names[name] = true
}

// RegisterCounter adds a counter to the registry and returns it.
func (r *Registry) RegisterCounter(c *Counter) *Counter {
	r.claim("counter", c.Name)
	r.counters = append(r.counters, c)
	return c
}

// RegisterGauge adds a gauge to the registry and returns it.
func (r *Registry) RegisterGauge(g *Gauge) *Gauge {
	r.claim("gauge", g.Name)
	r.gauges = append(r.gauges, g)
	return g
}

// RegisterHistogram adds a histogram to the registry and returns it.
func (r *Registry) RegisterHistogram(h *Histogram) *Histogram {
	r.claim("histogram", h.Name)
	r.histograms = append(r.histograms, h)
	return h
}

// RegisterBandwidth adds a bandwidth series to the registry and returns it.
func (r *Registry) RegisterBandwidth(b *Bandwidth) *Bandwidth {
	r.claim("bandwidth", b.Name)
	r.bandwidths = append(r.bandwidths, b)
	return b
}

// Snapshot captures the current value of every registered metric, sorted
// by name within each kind. The result is JSON-serialisable and
// detached from the live metrics.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.Name, N: c.N})
	}
	s.Gauges = r.GaugeSnaps()
	for _, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistogramSnap{
			Name:   h.Name,
			Count:  h.Count(),
			MeanNs: int64(h.Mean()),
			P50Ns:  int64(h.P50()),
			P99Ns:  int64(h.P99()),
			P999Ns: int64(h.P999()),
			MaxNs:  int64(h.Max()),
		})
	}
	for _, b := range r.bandwidths {
		bs := BandwidthSnap{Name: b.Name, Total: b.Total(), BucketNs: int64(b.Bucket)}
		for _, p := range b.Series() {
			bs.Series = append(bs.Series, BandwidthPointSnap{AtNs: int64(p.At), BytesPerSec: p.BytesPerSec})
		}
		s.Bandwidths = append(s.Bandwidths, bs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	sort.Slice(s.Bandwidths, func(i, j int) bool { return s.Bandwidths[i].Name < s.Bandwidths[j].Name })
	return s
}

// GaugeSnaps captures just the gauges, sorted by name. The telemetry
// sampler calls this once per tick: unlike a full Snapshot it never
// touches histograms, whose percentile computation sorts samples and is
// far too costly to run at sampling frequency.
func (r *Registry) GaugeSnaps() []GaugeSnap {
	if len(r.gauges) == 0 {
		return nil
	}
	gs := make([]GaugeSnap, len(r.gauges))
	for i, g := range r.gauges {
		gs[i] = GaugeSnap{Name: g.Name, Last: g.Last(), Min: g.Min(), Max: g.Max()}
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	return gs
}

// Snapshot is a point-in-time copy of every metric in a Registry,
// shaped for JSON output (all durations in virtual nanoseconds).
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters,omitempty"`
	Gauges     []GaugeSnap     `json:"gauges,omitempty"`
	Histograms []HistogramSnap `json:"histograms,omitempty"`
	Bandwidths []BandwidthSnap `json:"bandwidths,omitempty"`
}

// CounterSnap is one counter's snapshot.
type CounterSnap struct {
	Name string `json:"name"`
	N    int64  `json:"n"`
}

// GaugeSnap is one gauge's snapshot.
type GaugeSnap struct {
	Name string `json:"name"`
	Last int64  `json:"last"`
	Min  int64  `json:"min"`
	Max  int64  `json:"max"`
}

// HistogramSnap is one histogram's snapshot.
type HistogramSnap struct {
	Name   string `json:"name"`
	Count  int    `json:"count"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
	P999Ns int64  `json:"p999_ns"`
	MaxNs  int64  `json:"max_ns"`
}

// BandwidthSnap is one bandwidth series' snapshot.
type BandwidthSnap struct {
	Name     string               `json:"name"`
	Total    int64                `json:"total_bytes"`
	BucketNs int64                `json:"bucket_ns"`
	Series   []BandwidthPointSnap `json:"series,omitempty"`
}

// BandwidthPointSnap is one point of a bandwidth series snapshot.
type BandwidthPointSnap struct {
	AtNs        int64   `json:"at_ns"`
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Counter looks up a snapshotted counter by name (0, false if absent).
func (s Snapshot) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.N, true
		}
	}
	return 0, false
}

// Gauge looks up a snapshotted gauge by name.
func (s Snapshot) Gauge(name string) (GaugeSnap, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeSnap{}, false
}

// Histogram looks up a snapshotted histogram by name.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramSnap{}, false
}
