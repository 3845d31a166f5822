package obs

import (
	"sort"
	"strconv"

	"dilos/internal/sim"
	"dilos/internal/stats"
)

// BurnRule is one multi-window burn-rate alerting rule (the Google SRE
// shape): the alert for an objective fires when the error-budget burn
// rate exceeds MaxBurn over BOTH the long and the short window — the long
// window proves the burn is sustained, the short window makes the alert
// reset quickly once the burn stops.
type BurnRule struct {
	Long, Short sim.Time
	// MaxBurn is the burn-rate threshold: 1.0 means "spending exactly the
	// error budget", 14.4 means "the whole 30-day budget in 2 days".
	MaxBurn float64
}

// DefaultRules are the canonical fast + slow pages: 14.4x over 1h/5m and
// 6x over 6h/30m. The windows are interpreted against whatever clock the
// caller feeds Observe/Evaluate — virtual time in the simulator, wall
// time in memnoded.
func DefaultRules() []BurnRule {
	const minute = 60 * sim.Second
	return []BurnRule{
		{Long: 60 * minute, Short: 5 * minute, MaxBurn: 14.4},
		{Long: 360 * minute, Short: 30 * minute, MaxBurn: 6},
	}
}

// Objective is one latency SLO: at least Target of observations must
// complete within Budget.
type Objective struct {
	Name string
	// Budget is the per-event latency budget; an observation slower than
	// Budget consumes error budget. Zero selects 10µs.
	Budget sim.Time
	// Target is the good fraction the objective promises (e.g. 0.999).
	// Zero selects 0.999.
	Target float64
	// Rules are the burn-rate alert rules; nil selects DefaultRules.
	Rules []BurnRule
}

// sloBuckets is the ring resolution: every objective keeps one ring of
// good/bad counts whose width is maxWindow/sloBuckets, and every window
// sum is computed over the trailing ceil(window/width) buckets. One ring
// serves all four windows, so Observe touches exactly one bucket — the
// whole fault-path cost of the SLO engine is an index computation and an
// increment.
const sloBuckets = 256

// objState is one objective's live accounting.
type objState struct {
	obj    Objective
	width  sim.Time // bucket width
	good   []int64
	bad    []int64
	cur    int64 // absolute index (now/width) of the newest bucket
	goodN  int64 // cumulative
	badN   int64
	firing []bool // per rule
}

// Alert is one alert-state transition, first-class and inspectable.
type Alert struct {
	At        sim.Time
	Objective string
	Rule      int
	Firing    bool
	BurnLong  float64
	BurnShort float64
}

// Monitor evaluates latency objectives with multi-window burn-rate rules.
// It is unsynchronised (see the package comment); Observe is fault-path
// cheap and allocation-free, Evaluate is meant for a periodic daemon.
type Monitor struct {
	objs    []*objState
	journal *Journal
	alerts  []Alert

	Raised  stats.Counter // slo.alerts_raised
	Cleared stats.Counter // slo.alerts_cleared
	Bad     stats.Counter // slo.bad_events
	Firing  stats.Gauge   // slo.firing (objective-rules currently firing)
}

// NewMonitor creates a monitor. Alert transitions are appended to j as
// slo_alert events when j is non-nil.
func NewMonitor(j *Journal) *Monitor {
	return &Monitor{
		journal: j,
		Raised:  stats.Counter{Name: "slo.alerts_raised"},
		Cleared: stats.Counter{Name: "slo.alerts_cleared"},
		Bad:     stats.Counter{Name: "slo.bad_events"},
		Firing:  stats.Gauge{Name: "slo.firing"},
	}
}

// RegisterStats folds the monitor's metrics into a registry.
func (m *Monitor) RegisterStats(r *stats.Registry) {
	r.RegisterCounter(&m.Raised)
	r.RegisterCounter(&m.Cleared)
	r.RegisterCounter(&m.Bad)
	r.RegisterGauge(&m.Firing)
}

// Register adds an objective (filling zero fields with defaults) and
// returns its id for Observe.
func (m *Monitor) Register(o Objective) int {
	if o.Budget <= 0 {
		o.Budget = 10 * sim.Microsecond
	}
	if o.Target <= 0 || o.Target >= 1 {
		o.Target = 0.999
	}
	if len(o.Rules) == 0 {
		o.Rules = DefaultRules()
	}
	var maxWin sim.Time
	for _, r := range o.Rules {
		if r.Long > maxWin {
			maxWin = r.Long
		}
		if r.Short > maxWin {
			maxWin = r.Short
		}
	}
	width := (maxWin + sloBuckets - 1) / sloBuckets
	if width <= 0 {
		width = 1
	}
	st := &objState{
		obj:    o,
		width:  width,
		good:   make([]int64, sloBuckets),
		bad:    make([]int64, sloBuckets),
		firing: make([]bool, len(o.Rules)),
	}
	m.objs = append(m.objs, st)
	return len(m.objs) - 1
}

// advance rotates the ring to the bucket containing now, zeroing buckets
// the clock skipped over.
func (st *objState) advance(now sim.Time) {
	idx := int64(now) / int64(st.width)
	if idx <= st.cur {
		return
	}
	if idx-st.cur >= sloBuckets {
		for i := range st.good {
			st.good[i], st.bad[i] = 0, 0
		}
		st.cur = idx
		return
	}
	for st.cur < idx {
		st.cur++
		slot := st.cur % sloBuckets
		st.good[slot], st.bad[slot] = 0, 0
	}
}

// Observe records one event latency against objective id. Zero
// allocation, one bucket touched.
func (m *Monitor) Observe(id int, now, lat sim.Time) {
	st := m.objs[id]
	st.advance(now)
	slot := st.cur % sloBuckets
	if lat > st.obj.Budget {
		st.bad[slot]++
		st.badN++
		m.Bad.Inc()
	} else {
		st.good[slot]++
		st.goodN++
	}
}

// burn computes the burn rate over the trailing window: the bad fraction
// divided by the error budget (1 - target). An empty window burns 0.
func (st *objState) burn(window sim.Time) float64 {
	k := int64((window + st.width - 1) / st.width)
	if k < 1 {
		k = 1
	}
	if k > sloBuckets {
		k = sloBuckets
	}
	var good, bad int64
	for i := int64(0); i < k; i++ {
		slot := (st.cur - i + sloBuckets) % sloBuckets
		good += st.good[slot]
		bad += st.bad[slot]
	}
	if good+bad == 0 {
		return 0
	}
	frac := float64(bad) / float64(good+bad)
	return frac / (1 - st.obj.Target)
}

// Evaluate re-checks every rule of every objective at time now and
// records alert transitions (journal, counters, the alert log). Call it
// periodically; detection latency is bounded by the evaluation period
// plus the short window's bucket resolution.
func (m *Monitor) Evaluate(now sim.Time) {
	firing := int64(0)
	for _, st := range m.objs {
		st.advance(now)
		for ri, rule := range st.obj.Rules {
			bl, bs := st.burn(rule.Long), st.burn(rule.Short)
			f := bl > rule.MaxBurn && bs > rule.MaxBurn
			if f {
				firing++
			}
			if f == st.firing[ri] {
				continue
			}
			st.firing[ri] = f
			if f {
				m.Raised.Inc()
			} else {
				m.Cleared.Inc()
			}
			if len(m.alerts) < 1<<14 {
				m.alerts = append(m.alerts, Alert{
					At: now, Objective: st.obj.Name, Rule: ri, Firing: f,
					BurnLong: bl, BurnShort: bs,
				})
			}
			if m.journal != nil {
				edge := "clear"
				if f {
					edge = "raise"
				}
				m.journal.Emit(now, "slo_alert",
					S("objective", st.obj.Name), S("edge", edge), I("rule", int64(ri)),
					I("burn_long_x1000", int64(bl*1000)), I("burn_short_x1000", int64(bs*1000)))
			}
		}
	}
	m.Firing.Set(firing)
}

// FirstRaise returns the time of the first raised alert for the named
// objective (any rule), or false if it never fired.
func (m *Monitor) FirstRaise(objective string) (sim.Time, bool) {
	for _, a := range m.alerts {
		if a.Firing && (objective == "" || a.Objective == objective) {
			return a.At, true
		}
	}
	return 0, false
}

// AppendStatus renders the SLO block of /statusz: one line per
// objective-rule with its windows, burn rates, and alert state, in
// objective order.
func (m *Monitor) AppendStatus(dst []byte, now sim.Time) []byte {
	names := make([]int, len(m.objs))
	for i := range names {
		names[i] = i
	}
	sort.Slice(names, func(i, j int) bool { return m.objs[names[i]].obj.Name < m.objs[names[j]].obj.Name })
	for _, i := range names {
		st := m.objs[i]
		st.advance(now)
		dst = append(dst, "slo "...)
		dst = append(dst, st.obj.Name...)
		dst = append(dst, " budget="...)
		dst = append(dst, st.obj.Budget.String()...)
		dst = append(dst, " good="...)
		dst = strconv.AppendInt(dst, st.goodN, 10)
		dst = append(dst, " bad="...)
		dst = strconv.AppendInt(dst, st.badN, 10)
		dst = append(dst, '\n')
		for ri, rule := range st.obj.Rules {
			dst = append(dst, "  rule "...)
			dst = strconv.AppendInt(dst, int64(ri), 10)
			dst = append(dst, " long="...)
			dst = append(dst, rule.Long.String()...)
			dst = append(dst, " short="...)
			dst = append(dst, rule.Short.String()...)
			dst = append(dst, " burn_long="...)
			dst = strconv.AppendFloat(dst, st.burn(rule.Long), 'f', 2, 64)
			dst = append(dst, " burn_short="...)
			dst = strconv.AppendFloat(dst, st.burn(rule.Short), 'f', 2, 64)
			if st.firing[ri] {
				dst = append(dst, " FIRING"...)
			} else {
				dst = append(dst, " ok"...)
			}
			dst = append(dst, '\n')
		}
	}
	return dst
}
