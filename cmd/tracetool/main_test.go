package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// seqreadTimeline runs the seqread workload over `pages` pages with the
// recorder attached and writes its timeline to a temporary file.
func seqreadTimeline(t *testing.T, rec *telemetry.Recorder, pages uint64) (*core.System, string) {
	t.Helper()
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: 256, Cores: 2, RemoteBytes: pages*4096 + (16 << 20),
		Fabric: fabric.DefaultParams(), Prefetcher: prefetch.NewReadahead(0),
		Tel: rec,
	})
	sys.Start()
	launchWorkload(sys, "seqread", pages)
	eng.Run()

	path := filepath.Join(t.TempDir(), "t.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.WritePerfetto(f, rec, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return sys, path
}

// A timeline carries the whole fault stream: stats reads back one event
// per fault the handler counted, and a sequential read under readahead
// shows the stride shape a prefetcher designer expects — stride-1 minors
// behind the window broken by cluster-boundary majors.
func TestStatsReadsTimelineFaults(t *testing.T) {
	sys, path := seqreadTimeline(t, telemetry.NewRecorder(0), 1024)
	events, dropped := loadFaults(path)
	if dropped != 0 || droppedNote(dropped) != "" {
		t.Fatalf("a ring that never wrapped reports %d dropped fault spans", dropped)
	}
	sum := summarize(events)
	if int64(sum.major) != sys.MajorFaults.N || int64(sum.minor) != sys.MinorFaults.N || int64(sum.hit) != sys.LateMapHits.N {
		t.Fatalf("timeline major/minor/hit = %d/%d/%d, counters %d/%d/%d",
			sum.major, sum.minor, sum.hit, sys.MajorFaults.N, sys.MinorFaults.N, sys.LateMapHits.N)
	}
	for _, e := range events {
		if e.core != 0 {
			t.Fatalf("fault on core %d; the workload runs on core 0 only", e.core)
		}
	}
	if sum.seqFraction < 0.3 {
		t.Fatalf("sequential fraction = %.2f, want >= 0.3", sum.seqFraction)
	}
	if sum.topStride < 1 || sum.topStride > 8 {
		t.Fatalf("top stride = %d, want a small forward stride", sum.topStride)
	}
}

// A fault track whose ring wrapped lost its oldest faults: stats must read
// the drop count from the timeline and say its counts are lower bounds.
func TestStatsTimelineRingWrap(t *testing.T) {
	rec := telemetry.NewRecorder(64)
	sys, path := seqreadTimeline(t, rec, 1024)
	events, dropped := loadFaults(path)
	faults := sys.MajorFaults.N + sys.MinorFaults.N + sys.LateMapHits.N
	if dropped == 0 || int64(len(events)) >= faults {
		t.Fatalf("a 64-span ring kept %d of %d faults and dropped %d; the test needs a wrap",
			len(events), faults, dropped)
	}
	if int64(len(events))+dropped != faults {
		t.Fatalf("kept %d + dropped %d != %d faults", len(events), dropped, faults)
	}
	if note := droppedNote(dropped); !strings.Contains(note, "lower bound") {
		t.Fatalf("stats note for %d dropped spans = %q", dropped, note)
	}
}
