package telemetry

import (
	"bytes"
	"strings"
	"testing"

	"dilos/internal/sim"
	"dilos/internal/stats"
)

func sampleRecording() (*Recorder, *Sampler) {
	rec := NewRecorder(32)
	core := rec.Track("core0")
	cleaner := rec.Track("cleaner")
	sp := Span{Kind: KindMajorFault, Start: 1000, End: 6000, Arg: 42}
	sp.Stages[StageException] = 570
	sp.Stages[StageLookup] = 430
	sp.Stages[StageWait] = 3800
	sp.Stages[StageMap] = 200
	rec.Emit(core, sp)
	rec.Emit(core, Span{Kind: KindMinorFault, Start: 7000, End: 7500, Arg: 43})
	rec.Emit(cleaner, Span{Kind: KindClean, Start: 2000, End: 9000, Arg: 16})

	reg := stats.NewRegistry()
	g := reg.RegisterGauge(&stats.Gauge{Name: "pagemgr.free_frames"})
	sam := &Sampler{Interval: 50 * sim.Microsecond, Registry: reg}
	g.Set(128)
	sam.points = append(sam.points, Point{At: 5000, Gauges: reg.GaugeSnaps()})
	g.Set(96)
	sam.points = append(sam.points, Point{At: 10000, Gauges: reg.GaugeSnaps()})
	return rec, sam
}

func TestPerfettoWriteValidates(t *testing.T) {
	rec, sam := sampleRecording()
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rec, sam); err != nil {
		t.Fatal(err)
	}
	sum, err := Validate(&buf)
	if err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	if sum.Tracks != 2 {
		t.Fatalf("tracks = %d, want 2", sum.Tracks)
	}
	// 3 spans + 4 stage slices of the major fault.
	if sum.Spans != 7 {
		t.Fatalf("spans = %d, want 7", sum.Spans)
	}
	if sum.Counters != 2 {
		t.Fatalf("counters = %d, want 2", sum.Counters)
	}
	if sum.MaxTsNs != 9000 {
		t.Fatalf("max ts = %d ns, want 9000", sum.MaxTsNs)
	}
}

// A track whose ring wrapped says so in its thread_name metadata, and the
// file still validates.
func TestPerfettoRecordsDropped(t *testing.T) {
	rec := NewRecorder(4)
	tr := rec.Track("fault/core0")
	rec.Track("cleaner")
	for i := 0; i < 10; i++ {
		rec.Emit(tr, Span{Kind: KindMajorFault, Start: sim.Time(i), End: sim.Time(i) + 1, Arg: uint64(i)})
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rec, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"args":{"name":"fault/core0","dropped":6}`,
		`"args":{"name":"cleaner","dropped":0}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline lacks %s", want)
		}
	}
	if _, err := Validate(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
}

func TestPerfettoDeterministicBytes(t *testing.T) {
	write := func() string {
		rec, sam := sampleRecording()
		var buf bytes.Buffer
		if err := WritePerfetto(&buf, rec, sam); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := write(), write()
	if a != b {
		t.Fatal("identical recordings serialised to different bytes")
	}
	// Fixed-point microsecond formatting, not floating point.
	if !strings.Contains(a, `"ts":1.000`) {
		t.Fatalf("expected deterministic fixed-point timestamps, got:\n%s", a)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":[`,
		"no array":      `{}`,
		"bad phase":     `{"traceEvents":[{"ph":"B","name":"x","ts":1,"tid":1}]}`,
		"missing dur":   `{"traceEvents":[{"ph":"X","name":"x","ts":1,"tid":1}]}`,
		"unnamed event": `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"tid":1}]}`,
		"counter w/o value": `{"traceEvents":[` +
			`{"ph":"C","name":"g","ts":1,"args":{}}]}`,
		"negative dropped": `{"traceEvents":[` +
			`{"ph":"M","name":"thread_name","tid":1,"args":{"name":"t","dropped":-1}}]}`,
		"fractional dropped": `{"traceEvents":[` +
			`{"ph":"M","name":"thread_name","tid":1,"args":{"name":"t","dropped":1.5}}]}`,
		"string dropped": `{"traceEvents":[` +
			`{"ph":"M","name":"thread_name","tid":1,"args":{"name":"t","dropped":"0"}}]}`,
	}
	for label, doc := range cases {
		if _, err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: validation passed, want error", label)
		}
	}
}
