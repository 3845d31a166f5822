package telemetry

import (
	"testing"

	"dilos/internal/sim"
)

func TestRingWraparound(t *testing.T) {
	rec := NewRecorder(8)
	tr := rec.Track("core0")
	for i := 0; i < 20; i++ {
		rec.Emit(tr, Span{Kind: KindMajorFault, Start: sim.Time(i), End: sim.Time(i) + 1, Arg: uint64(i)})
	}
	spans := rec.Spans(tr)
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	if got := rec.Dropped(tr); got != 12 {
		t.Fatalf("dropped = %d, want 12", got)
	}
	// Drop-oldest: the survivors are 12..19, in arrival order.
	for i, sp := range spans {
		if want := uint64(12 + i); sp.Arg != want {
			t.Fatalf("span %d arg = %d, want %d (order broken after wrap)", i, sp.Arg, want)
		}
	}
}

func TestTrackRegistrationIdempotent(t *testing.T) {
	rec := NewRecorder(4)
	a := rec.Track("core0")
	b := rec.Track("core1")
	if a == b {
		t.Fatal("distinct names share a track id")
	}
	if rec.Track("core0") != a {
		t.Fatal("re-registering a name returned a new id")
	}
	if names := rec.Tracks(); len(names) != 2 || names[0] != "core0" || names[1] != "core1" {
		t.Fatalf("tracks = %v", names)
	}
}

// The hot-path guarantee: once a track exists, Emit allocates nothing —
// neither while the ring fills (append within capacity) nor after it
// wraps (overwrite in place).
func TestEmitNoAlloc(t *testing.T) {
	rec := NewRecorder(64)
	tr := rec.Track("core0")
	var i sim.Time
	filling := testing.AllocsPerRun(32, func() {
		rec.Emit(tr, Span{Kind: KindRead, Start: i, End: i + 10})
		i += 10
	})
	if filling != 0 {
		t.Fatalf("Emit allocates %.1f while filling, want 0", filling)
	}
	for j := 0; j < 200; j++ { // force wrap
		rec.Emit(tr, Span{Kind: KindRead, Start: i, End: i + 10})
		i += 10
	}
	wrapped := testing.AllocsPerRun(32, func() {
		rec.Emit(tr, Span{Kind: KindRead, Start: i, End: i + 10})
		i += 10
	})
	if wrapped != 0 {
		t.Fatalf("Emit allocates %.1f after wrap, want 0", wrapped)
	}
}

// Tail-based sampling: every over-threshold span survives, 1 in KeepEvery
// of the rest, decided by a per-track counter — deterministic and cheap.
func TestTailSamplingPolicy(t *testing.T) {
	rec := NewRecorder(256)
	tr := rec.Track("core0")
	rec.SetPolicy(SamplePolicy{Threshold: 10 * sim.Microsecond, KeepEvery: 10})
	var start sim.Time
	for i := 0; i < 100; i++ { // below threshold: 1µs spans
		rec.Emit(tr, Span{Kind: KindMajorFault, Start: start, End: start + sim.Microsecond, Arg: uint64(i)})
		start += 2 * sim.Microsecond
	}
	for i := 0; i < 5; i++ { // the tail: always retained
		rec.Emit(tr, Span{Kind: KindMajorFault, Start: start, End: start + 50*sim.Microsecond, Arg: 1000 + uint64(i)})
		start += 100 * sim.Microsecond
	}
	if got := len(rec.Spans(tr)); got != 15 {
		t.Fatalf("retained %d spans, want 15 (100/10 + 5 tail)", got)
	}
	if got := rec.SampledOut(tr); got != 90 {
		t.Fatalf("sampled out %d, want 90", got)
	}
	if got := rec.SampledOutTotal(); got != 90 {
		t.Fatalf("SampledOutTotal = %d, want 90", got)
	}
	// Every tail span survived.
	tail := 0
	for _, sp := range rec.Spans(tr) {
		if sp.Arg >= 1000 {
			tail++
		}
	}
	if tail != 5 {
		t.Fatalf("tail spans retained = %d, want 5", tail)
	}
	// The zero policy keeps everything.
	all := NewRecorder(64)
	at := all.Track("core0")
	all.SetPolicy(SamplePolicy{})
	for i := sim.Time(0); i < 10; i++ {
		all.Emit(at, Span{Kind: KindMajorFault, Start: i * 10, End: i*10 + 1})
	}
	if n := len(all.Spans(at)); n != 10 {
		t.Fatalf("zero policy kept %d of 10 spans", n)
	}
}

// The sampled-out reject path must be as allocation-free as the ring
// append — it IS the fault-path cost of always-on mode.
func TestSampledEmitNoAlloc(t *testing.T) {
	rec := NewRecorder(64)
	tr := rec.Track("core0")
	rec.SetPolicy(SamplePolicy{Threshold: 10 * sim.Microsecond, KeepEvery: 1 << 30})
	var i sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		rec.Emit(tr, Span{Kind: KindMajorFault, Start: i, End: i + 10})
		i += 20
	})
	if allocs != 0 {
		t.Fatalf("sampled Emit allocates %.1f per call, want 0", allocs)
	}
}

func TestFaultAnatomy(t *testing.T) {
	rec := NewRecorder(16)
	tr := rec.Track("core0")
	// Two faults: 1000 ns and 3000 ns, stages split lookup/wait.
	mk := func(start, lookup, wait sim.Time) Span {
		sp := Span{Kind: KindMajorFault, Start: start, End: start + lookup + wait}
		sp.Stages[StageLookup] = lookup
		sp.Stages[StageWait] = wait
		return sp
	}
	rec.Emit(tr, mk(0, 400, 600))
	rec.Emit(tr, mk(5000, 1000, 2000))
	rec.Emit(tr, Span{Kind: KindMinorFault, Start: 100, End: 200}) // ignored
	a := FaultAnatomy(rec)
	if a.Faults != 2 {
		t.Fatalf("faults = %d, want 2", a.Faults)
	}
	if a.MeanNs != 2000 {
		t.Fatalf("total mean = %d, want 2000", a.MeanNs)
	}
	if got := a.Stage("lookup").MeanNs; got != 700 {
		t.Fatalf("lookup mean = %d, want 700", got)
	}
	if got := a.Stage("wait").P99Ns; got != 2000 {
		t.Fatalf("wait p99 = %d, want 2000", got)
	}
	// Stage means sum to the total mean (zero stages contribute zero).
	var sum int64
	for _, st := range a.Stages {
		sum += st.MeanNs
	}
	if sum != a.MeanNs {
		t.Fatalf("stage means sum to %d, total mean %d", sum, a.MeanNs)
	}
}

// Totals count every emitted span, whatever the ring and the sampling
// policy keep — the exactness Figure 1/6 rely on.
func TestTotalsSurviveRingWrapAndSampling(t *testing.T) {
	rec := NewRecorder(2)
	tr := rec.Track("core0")
	rec.SetPolicy(SamplePolicy{Threshold: 10 * sim.Microsecond, KeepEvery: 4})
	var want Totals
	for i := 0; i < 50; i++ {
		sp := Span{Kind: KindMajorFault, Start: sim.Time(i) * 100, End: sim.Time(i)*100 + sim.Time(i)}
		sp.Stages[StageWait] = sim.Time(i)
		rec.Emit(tr, sp)
		want.N++
		want.Dur += sim.Time(i)
		want.Stages[StageWait] += sim.Time(i)
	}
	if rec.Dropped(tr) == 0 || rec.SampledOut(tr) == 0 {
		t.Fatalf("dropped %d, sampled out %d; the test needs both", rec.Dropped(tr), rec.SampledOut(tr))
	}
	if got := rec.Totals(KindMajorFault); got != want {
		t.Fatalf("totals = %+v, want %+v", got, want)
	}
	if got := rec.Totals(KindMajorFault).Mean(StageWait); got != want.Stages[StageWait]/50 {
		t.Fatalf("wait mean = %v, want %v", got, want.Stages[StageWait]/50)
	}
	if got := FaultAnatomy(rec).Faults; got != 50 {
		t.Fatalf("anatomy faults = %d, want 50", got)
	}
}
