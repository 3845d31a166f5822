package main

import (
	"os"
	"path/filepath"
	"testing"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// A timeline carries the whole fault stream: stats reads back one event
// per fault the handler counted, and a sequential read under readahead
// shows the stride shape a prefetcher designer expects — stride-1 minors
// behind the window broken by cluster-boundary majors.
func TestStatsReadsTimelineFaults(t *testing.T) {
	const pages = 1024
	rec := telemetry.NewRecorder(0)
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
	f.Close()

	events := loadFaults(path)
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
