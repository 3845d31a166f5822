package core

import (
	"bytes"
	"testing"

	"dilos/internal/chaos"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// telSys builds the memory-constrained readahead system the telemetry
// tests share, with an optional recorder/sampler and chaos injector.
func telSys(frames int, rec *telemetry.Recorder, sampleEvery sim.Time, inj *chaos.Injector) (*System, *sim.Engine) {
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 64 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(31),
		Chaos:       inj,
		Tel:         rec,
		SampleEvery: sampleEvery,
	})
	sys.Start()
	return sys, eng
}

// The recorder's core guarantee: turning it on (with or without the
// sampler) observes the simulation without perturbing it. The virtual
// elapsed time must be *identical*, not merely close — emission never
// advances a clock, and the sampler only reads.
func TestTelemetryOverheadZeroVirtualTime(t *testing.T) {
	const pages = 2048
	run := func(rec *telemetry.Recorder, sampleEvery sim.Time) sim.Time {
		sys, eng := telSys(pages/8, rec, sampleEvery, nil)
		var d sim.Time
		seqReadApp(sys, pages, &d)
		eng.Run()
		return d
	}
	off := run(nil, 0)
	recOnly := run(telemetry.NewRecorder(0), 0)
	sampled := run(telemetry.NewRecorder(0), 50*sim.Microsecond)
	totalsOnly := run(telemetry.NewTotals(), 0)
	if totalsOnly != off {
		t.Errorf("totals-only run took %v, disabled took %v", totalsOnly, off)
	}
	if recOnly != off {
		t.Errorf("recorder-only run took %v, disabled took %v", recOnly, off)
	}
	if sampled != off {
		t.Errorf("sampled run took %v, disabled took %v", sampled, off)
	}
}

// A totals-only recorder sees exactly what a ring recorder sees: on the
// same seeded run, a full ring, a ring small enough to wrap, and no ring at
// all give identical per-kind totals and identical anatomy means. And with
// no ring to fill, its Emit allocates nothing.
func TestTelemetryTotalsOnlyMatchesRing(t *testing.T) {
	const pages = 2048
	run := func(rec *telemetry.Recorder) *telemetry.Recorder {
		sys, eng := telSys(pages/8, rec, 0, nil)
		var d sim.Time
		seqReadApp(sys, pages, &d)
		eng.Run()
		return rec
	}
	full := run(telemetry.NewRecorder(0))
	wrapped := run(telemetry.NewRecorder(16))
	totals := run(telemetry.NewTotals())
	if full.DroppedTotal() != 0 || wrapped.DroppedTotal() == 0 {
		t.Fatalf("drops: full %d, small ring %d; want 0 and > 0", full.DroppedTotal(), wrapped.DroppedTotal())
	}
	if totals.Len() != 0 {
		t.Fatalf("totals-only recorder holds %d spans", totals.Len())
	}
	kinds := []telemetry.Kind{telemetry.KindMajorFault, telemetry.KindMinorFault,
		telemetry.KindPrefetchHit, telemetry.KindPrefetchMap}
	for _, k := range kinds {
		want := full.Totals(k)
		if got := wrapped.Totals(k); got != want {
			t.Errorf("%v: small-ring totals %+v, full ring %+v", k, got, want)
		}
		if got := totals.Totals(k); got != want {
			t.Errorf("%v: totals-only %+v, full ring %+v", k, got, want)
		}
	}
	if full.Totals(telemetry.KindMajorFault).N == 0 {
		t.Fatal("no major faults recorded")
	}
	a, b := telemetry.FaultAnatomy(full), telemetry.FaultAnatomy(totals)
	if a.Faults != b.Faults || a.MeanNs != b.MeanNs {
		t.Errorf("anatomy: totals-only %d faults mean %d ns, full ring %d faults mean %d ns",
			b.Faults, b.MeanNs, a.Faults, a.MeanNs)
	}
	for i := range a.Stages {
		if a.Stages[i].MeanNs != b.Stages[i].MeanNs {
			t.Errorf("stage %s mean: totals-only %d, full ring %d",
				a.Stages[i].Stage, b.Stages[i].MeanNs, a.Stages[i].MeanNs)
		}
	}

	tr := totals.Track("fault/core0")
	var now sim.Time
	allocs := testing.AllocsPerRun(100, func() {
		sp := telemetry.Span{Kind: telemetry.KindMajorFault, Start: now, End: now + sim.Microsecond}
		sp.Stages[telemetry.StageWait] = sim.Microsecond
		totals.Emit(tr, sp)
		now += sim.Microsecond
	})
	if allocs != 0 {
		t.Fatalf("totals-only Emit allocates %.1f per call, want 0", allocs)
	}
}

// Every fault must be attributed: one KindMajorFault span per major fault
// and one KindMinorFault span per minor fault, each with stage sub-timings
// that sum exactly to the span — so per-stage means are an attribution of
// the total, not an approximation.
func TestTelemetrySpansCoverFaults(t *testing.T) {
	const pages = 2048
	rec := telemetry.NewRecorder(0)
	sys, eng := telSys(pages/8, rec, 0, nil)
	var d sim.Time
	seqReadApp(sys, pages, &d)
	eng.Run()

	var majors, minors int64
	for id := range rec.Tracks() {
		if rec.Dropped(id) > 0 {
			t.Fatalf("track %s dropped %d spans; size the ring up", rec.TrackName(id), rec.Dropped(id))
		}
		for _, sp := range rec.Spans(id) {
			var sum sim.Time
			for _, st := range sp.Stages {
				sum += st
			}
			switch sp.Kind {
			case telemetry.KindMajorFault:
				majors++
				if sum != sp.Dur() {
					t.Fatalf("major span stages sum to %v, span is %v", sum, sp.Dur())
				}
			case telemetry.KindMinorFault:
				minors++
				if sum != sp.Dur() {
					t.Fatalf("minor span stages sum to %v, span is %v", sum, sp.Dur())
				}
			}
		}
	}
	if majors != sys.MajorFaults.N {
		t.Errorf("recorded %d major-fault spans, counter says %d", majors, sys.MajorFaults.N)
	}
	if minors != sys.MinorFaults.N {
		t.Errorf("recorded %d minor-fault spans, counter says %d", minors, sys.MinorFaults.N)
	}
	a := telemetry.FaultAnatomy(rec)
	if int64(a.Faults) != majors {
		t.Errorf("anatomy saw %d faults, recorder holds %d", a.Faults, majors)
	}
	if a.MeanNs == 0 {
		t.Error("anatomy mean is zero")
	}
}

// Determinism, extended to the exported artifact: two chaos-seeded runs
// under the same seed must produce byte-identical Perfetto trace files —
// spans, stage slices, counter samples, formatting and all.
func TestTelemetryChaosTraceDeterminism(t *testing.T) {
	run := func() []byte {
		inj := chaos.NewInjector(chaos.Config{
			Seed:       99,
			FailProb:   0.002,
			TailProb:   0.05,
			TailFactor: 4,
			StallProb:  0.002,
			StallTime:  20 * sim.Microsecond,
		})
		rec := telemetry.NewRecorder(0)
		sys, eng := telSys(64, rec, 50*sim.Microsecond, inj)
		var d sim.Time
		seqReadApp(sys, 512, &d)
		eng.Run()
		var buf bytes.Buffer
		_, sam := sys.Telemetry()
		if err := telemetry.WritePerfetto(&buf, rec, sam); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	if _, err := telemetry.Validate(bytes.NewReader(a)); err != nil {
		t.Fatalf("deterministic trace does not validate: %v", err)
	}
}

// The instrumented fault path must stay allocation-flat: spans are values
// emitted into preallocated rings, so recording adds zero allocations on
// top of the batched path's own budget.
func TestTelemetryFaultPathAllocs(t *testing.T) {
	const pages = 8192
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 256,
		Cores:       2,
		RemoteBytes: 64 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(31),
		Batch:       true,
		Tel:         telemetry.NewRecorder(1 << 16),
	})
	sys.Start()
	sys.Launch("alloc", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		// Warm up: size the scratch arenas, slot table, and span rings.
		for i := uint64(0); i < 1024; i++ {
			sp.LoadU64(base + i*PageSize)
		}
		cursor := uint64(1024)
		avg := testing.AllocsPerRun(4, func() {
			for end := cursor + 1024; cursor < end; cursor++ {
				sp.LoadU64(base + cursor*PageSize)
			}
		})
		// Same bound as TestBatchedFaultPathAllocs with recording off:
		// telemetry must not add a single allocation per page.
		if perPage := avg / 1024; perPage > 3.5 {
			t.Errorf("instrumented fault path allocates %.2f/page, want ≤ 3.5", perPage)
		}
	})
	eng.Run()
}
