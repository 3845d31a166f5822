package obs

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"

	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

func TestSplitName(t *testing.T) {
	cases := []struct {
		in, family, labels string
	}{
		{"dilos.major_faults", "dilos_major_faults", ""},
		{"link.node3.rx.bytes", "link_rx_bytes", `node="3"`},
		{"memnode.node0.reads", "memnode_reads", `node="0"`},
		{"pool.shard1.evictions", "pool_evictions", `shard="1"`},
		{"pool.shard7", "pool", `shard="7"`},
		{"link.node2.rx.shard1.ops", "link_rx_ops", `node="2",shard="1"`},
		{"slo.firing", "slo_firing", ""},
	}
	for _, c := range cases {
		fam, lb := splitName(c.in)
		if fam != c.family || lb != c.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", c.in, fam, lb, c.family, c.labels)
		}
	}
}

// buildSnapshot assembles a small registry exercising every metric kind
// and every label-lifting path.
func buildSnapshot() stats.Snapshot {
	r := stats.NewRegistry()
	c1 := &stats.Counter{Name: "dilos.major_faults"}
	c2 := &stats.Counter{Name: "pagemgr.shard0.cleaned"}
	c3 := &stats.Counter{Name: "pagemgr.shard1.cleaned"}
	c4 := &stats.Counter{Name: "link.node0.rx.ops"}
	g := &stats.Gauge{Name: "pagemgr.free_frames"}
	h := stats.NewHistogram("dilos.fault_latency")
	r.RegisterCounter(c1)
	r.RegisterCounter(c2)
	r.RegisterCounter(c3)
	r.RegisterCounter(c4)
	r.RegisterGauge(g)
	r.RegisterHistogram(h)
	for i := 0; i < 3; i++ {
		c1.Inc()
	}
	c2.Add(7)
	c3.Add(9)
	c4.Add(41)
	g.Set(128)
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i) * sim.Microsecond)
	}
	return r.Snapshot()
}

func TestAppendMetricsDeterministic(t *testing.T) {
	a := AppendMetrics(nil, buildSnapshot(), nil)
	b := AppendMetrics(nil, buildSnapshot(), nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("identical snapshots rendered differently:\n%s\n---\n%s", a, b)
	}
	page := string(a)
	for _, want := range []string{
		"# TYPE dilos_major_faults_total counter\n",
		"dilos_major_faults_total 3\n",
		"# TYPE pagemgr_cleaned_total counter\n",
		"pagemgr_cleaned_total{shard=\"0\"} 7\n",
		"pagemgr_cleaned_total{shard=\"1\"} 9\n",
		"link_rx_ops_total{node=\"0\"} 41\n",
		"# TYPE pagemgr_free_frames gauge\n",
		"pagemgr_free_frames 128\n",
		"# TYPE dilos_fault_latency_ns summary\n",
		"dilos_fault_latency_ns{quantile=\"0.5\"}",
		"dilos_fault_latency_ns_count 100\n",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	// One TYPE line per family, even with several label sets.
	if n := strings.Count(page, "# TYPE pagemgr_cleaned_total"); n != 1 {
		t.Errorf("pagemgr_cleaned_total has %d TYPE lines, want 1", n)
	}
	// The shard label sets render in sorted order.
	if strings.Index(page, `shard="0"`) > strings.Index(page, `shard="1"`) {
		t.Error("shard label sets not sorted")
	}
}

func TestAppendMetricsTelemetry(t *testing.T) {
	rec := telemetry.NewRecorder(4)
	tr := rec.Track("fault/core0")
	rec.SetPolicy(telemetry.SamplePolicy{Threshold: 10 * sim.Microsecond, KeepEvery: 4})
	for i := 0; i < 8; i++ {
		rec.Emit(tr, telemetry.Span{Start: sim.Time(i) * 100, End: sim.Time(i)*100 + 50})
	}
	rec.Emit(tr, telemetry.Span{Start: 0, End: 20 * sim.Microsecond}) // over threshold
	page := string(AppendMetrics(nil, stats.Snapshot{}, rec))
	for _, want := range []string{
		`dilos_telemetry_track_spans{track="fault/core0"} 3`,
		`dilos_telemetry_track_sampled_out_total{track="fault/core0"} 6`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
}

func TestJournalJSONL(t *testing.T) {
	j := NewJournal(0)
	j.Emit(1500, "breaker_trip", I("node", 2), I("consecutive_fails", 3))
	j.Emit(2500, "slo_alert", S("objective", "pool"), S("edge", "raise"))
	j.Emit(3000, "note", S("msg", "line\nbreak \"quoted\""))
	got := string(j.AppendJSONL(nil))
	want := `{"at_ns":1500,"type":"breaker_trip","node":2,"consecutive_fails":3}
{"at_ns":2500,"type":"slo_alert","objective":"pool","edge":"raise"}
{"at_ns":3000,"type":"note","msg":"line\nbreak \"quoted\""}
`
	if got != want {
		t.Fatalf("journal JSONL:\n%s\nwant:\n%s", got, want)
	}
	// Same emissions → identical bytes.
	j2 := NewJournal(0)
	j2.Emit(1500, "breaker_trip", I("node", 2), I("consecutive_fails", 3))
	j2.Emit(2500, "slo_alert", S("objective", "pool"), S("edge", "raise"))
	j2.Emit(3000, "note", S("msg", "line\nbreak \"quoted\""))
	if !bytes.Equal(j.AppendJSONL(nil), j2.AppendJSONL(nil)) {
		t.Fatal("same-emission journals rendered differently")
	}
}

func TestJournalDropOldest(t *testing.T) {
	j := NewJournal(2)
	j.Emit(1, "a")
	j.Emit(2, "b")
	j.Emit(3, "c")
	ev := j.Events()
	if len(ev) != 2 || ev[0].Type != "b" || ev[1].Type != "c" {
		t.Fatalf("events = %v, want [b c]", ev)
	}
	if j.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", j.dropped)
	}
}

func TestSLOBurnAlertLifecycle(t *testing.T) {
	rule := BurnRule{Long: 100 * sim.Microsecond, Short: 20 * sim.Microsecond, MaxBurn: 10}
	j := NewJournal(0)
	m := NewMonitor(j)
	id := m.Register(Objective{
		Name:   "pool",
		Budget: 10 * sim.Microsecond,
		Target: 0.999,
		Rules:  []BurnRule{rule},
	})

	// Healthy phase: everything within budget. No alert may fire.
	now := sim.Time(0)
	for ; now < 200*sim.Microsecond; now += sim.Microsecond {
		m.Observe(id, now, 2*sim.Microsecond)
		m.Evaluate(now)
	}
	if _, fired := m.FirstRaise("pool"); fired {
		t.Fatal("alert fired on a clean run")
	}

	// Storm: every event blows the budget. Burn = 1/(1-0.999) = 1000x.
	stormAt := now
	for ; now < 400*sim.Microsecond; now += sim.Microsecond {
		m.Observe(id, now, 50*sim.Microsecond)
		m.Evaluate(now)
	}
	raisedAt, fired := m.FirstRaise("pool")
	if !fired {
		t.Fatal("alert never fired during the storm")
	}
	if raisedAt < stormAt {
		t.Fatalf("alert at %v predates the storm at %v", raisedAt, stormAt)
	}
	// Detection latency is bounded by the long window: the long-window burn
	// must clear MaxBurn too, which takes MaxBurn/1000 of the 100µs window.
	if lat := raisedAt - stormAt; lat > rule.Long {
		t.Fatalf("detection latency %v exceeds the long window %v", lat, rule.Long)
	}

	// Recovery: good events long enough to flush both windows.
	for ; now < 700*sim.Microsecond; now += sim.Microsecond {
		m.Observe(id, now, 2*sim.Microsecond)
		m.Evaluate(now)
	}
	alerts := m.alerts
	last := alerts[len(alerts)-1]
	if last.Firing {
		t.Fatalf("alert still firing after recovery: %+v", last)
	}
	if m.Raised.N < 1 || m.Cleared.N < 1 {
		t.Fatalf("raised=%d cleared=%d, want >=1 each", m.Raised.N, m.Cleared.N)
	}
	// Alert edges landed in the journal.
	found := 0
	for _, e := range j.Events() {
		if e.Type == "slo_alert" {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("journal has %d slo_alert events, want >=2 (raise + clear)", found)
	}
}

func TestSLOObserveZeroAlloc(t *testing.T) {
	m := NewMonitor(nil)
	id := m.Register(Objective{Name: "pool"})
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100
		m.Observe(id, now, 2*sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", allocs)
	}
}

func TestServerEndpoints(t *testing.T) {
	s := NewServer()
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.PublishMetrics([]byte("dilos_major_faults_total 3\n"))
	s.PublishStatus([]byte("node 0 state=live\n"))
	s.PublishJournal([]byte(`{"at_ns":1,"type":"a"}` + "\n"))

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, ctype := get("/metrics"); code != 200 ||
		body != "dilos_major_faults_total 3\n" || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics = %d %q %q", code, body, ctype)
	}
	if code, body, _ := get("/statusz"); code != 200 || body != "node 0 state=live\n" {
		t.Fatalf("/statusz = %d %q", code, body)
	}
	if code, body, _ := get("/journalz"); code != 200 || !strings.Contains(body, `"type":"a"`) {
		t.Fatalf("/journalz = %d %q", code, body)
	}
	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	s.SetHealth(false, "node 1 failed")
	if code, body, _ := get("/healthz"); code != 503 || body != "node 1 failed\n" {
		t.Fatalf("unhealthy /healthz = %d %q", code, body)
	}
}
