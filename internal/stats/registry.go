package stats

import (
	"fmt"
	"sort"
)

// Registry is the single observability surface of a System: every
// counter, gauge and histogram registers here at construction under its
// stable name (e.g. "dilos.major_faults"), and
// Snapshot() serialises all of them at once — so new experiments never
// hand-plumb stats again. Names must be unique; Register* panics on a
// duplicate, which catches wiring mistakes at boot rather than as
// silently shadowed metrics.
type Registry struct {
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
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
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
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

// Counter looks up a snapshotted counter by name (0, false if absent).
func (s Snapshot) Counter(name string) (int64, bool) {
	c, ok := lookup(s.Counters, func(c CounterSnap) bool { return c.Name == name })
	return c.N, ok
}

// Gauge looks up a snapshotted gauge by name.
func (s Snapshot) Gauge(name string) (GaugeSnap, bool) {
	return lookup(s.Gauges, func(g GaugeSnap) bool { return g.Name == name })
}

// Histogram looks up a snapshotted histogram by name.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	return lookup(s.Histograms, func(h HistogramSnap) bool { return h.Name == name })
}

func lookup[T any](xs []T, match func(T) bool) (T, bool) {
	for _, x := range xs {
		if match(x) {
			return x, true
		}
	}
	var zero T
	return zero, false
}
