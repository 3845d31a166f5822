package fastswap

import (
	"testing"

	"dilos/internal/fabric"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

func newSys(t testing.TB, frames int) (*System, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
		Tel:         telemetry.NewTotals(),
	})
	sys.Start()
	return sys, eng
}

func TestSequentialReadFaultMix(t *testing.T) {
	sys, eng := newSys(t, 2048)
	const pages = 1024
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	// Table 1 shape: exactly 1/cluster of pages major, all the rest minor
	// (readahead fills the swap cache but never the page table).
	if sys.MajorFaults.N != pages/8 {
		t.Fatalf("major = %d, want %d", sys.MajorFaults.N, pages/8)
	}
	if sys.MinorFaults.N != pages-pages/8 {
		t.Fatalf("minor = %d, want %d (every non-major page minor-faults)",
			sys.MinorFaults.N, pages-pages/8)
	}
}

func TestDataIntegrityUnderPressure(t *testing.T) {
	sys, eng := newSys(t, 64)
	const pages = 256
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i*0x9e3779b9)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i*0x9e3779b9 {
				t.Errorf("page %d: got %#x", i, got)
				return
			}
		}
	})
	eng.Run()
	if sys.DirectRecl.N == 0 && sys.KswapdRecl.N == 0 {
		t.Fatal("no reclamation despite 4x pressure")
	}
}

func TestDirectReclaimShowsInBreakdown(t *testing.T) {
	sys, eng := newSys(t, 64)
	const pages = 512
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i) // dirty pages stress reclaim
		}
	})
	eng.Run()
	tot := sys.Tel.Totals(telemetry.KindMajorFault)
	if tot.Stages[telemetry.StageReclaim] == 0 {
		t.Fatal("direct reclamation never hit the fault path — not Fastswap-like")
	}
	if tot.Mean(telemetry.StageReclaim) == 0 {
		t.Fatal("mean reclaim segment is zero")
	}
}

func TestFaultLatencySlowerThanDiLOS(t *testing.T) {
	sys, eng := newSys(t, 64)
	const pages = 400
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	tot := sys.Tel.Totals(telemetry.KindMajorFault)
	e, m, f := tot.Mean(telemetry.StageException), tot.Mean(telemetry.StageLookup), tot.Mean(telemetry.StageWait)
	// Figure 1's columns: every stage but the readahead issue.
	total := e + m + f + tot.Mean(telemetry.StageMap) + tot.Mean(telemetry.StageReclaim)
	// Figure 1: the average Fastswap major fault is ≈6.3 µs.
	if total < 5*sim.Microsecond || total > 8*sim.Microsecond {
		t.Fatalf("mean major fault = %v, want ≈6.3us", total)
	}
	if e != 570*sim.Nanosecond {
		t.Fatalf("exception = %v", e)
	}
	if f < 2*sim.Microsecond {
		t.Fatalf("fetch = %v", f)
	}
	if m < 800*sim.Nanosecond {
		t.Fatalf("swap mgmt segment = %v, want >= 0.8us (the cost DiLOS removes)", m)
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	sys, eng := newSys(t, 64)
	const pages = 256
	var bad bool
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		// Write everything, then re-read: dirty evictions must persist.
		for i := uint64(0); i < pages; i++ {
			sp.Store(base+i*PageSize+128, []byte{byte(i), byte(i >> 8)})
		}
		for i := uint64(0); i < pages; i++ {
			b := make([]byte, 2)
			sp.Load(base+i*PageSize+128, b)
			if b[0] != byte(i) || b[1] != byte(i>>8) {
				bad = true
				return
			}
		}
	})
	eng.Run()
	if bad {
		t.Fatal("dirty data lost across eviction")
	}
	if sys.Link.TxBytes.N == 0 {
		t.Fatal("no write-back traffic")
	}
}

func TestReadaheadRespectsRegionBounds(t *testing.T) {
	sys, eng := newSys(t, 64)
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(4)
		// Fault on the last page: readahead must not run off the region.
		sp.LoadU8(base + 3*PageSize)
	})
	eng.Run()
	if sys.MajorFaults.N != 1 {
		t.Fatalf("major = %d", sys.MajorFaults.N)
	}
}

func TestMallocCompat(t *testing.T) {
	sys, eng := newSys(t, 64)
	sys.Launch("app", 0, func(sp *FSProc) {
		a := sp.Malloc(64)
		sp.StoreU64(a, 7)
		if sp.LoadU64(a) != 7 {
			t.Error("malloc'd memory broken")
		}
	})
	eng.Run()
}

func TestDirtyPressureGatesReadahead(t *testing.T) {
	// Read-only pressure: dirtyPressure stays off, cluster readahead keeps
	// majors at ~1/cluster. Write pressure: dirtyPressure turns on and
	// majors balloon (the Table 2 write collapse).
	readRun, readEng := newSys(t, 256)
	var writeRun *System
	{
		sys := readRun
		eng := readEng
		const pages = 2048
		sys.Launch("r", 0, func(sp *FSProc) {
			base, _ := sys.MmapDDC(pages)
			for i := uint64(0); i < pages; i++ {
				sp.LoadU8(base + i*PageSize)
			}
		})
		eng.Run()
		if sys.dirtyPressure {
			t.Fatal("read-only run left dirtyPressure set")
		}
		if sys.MajorFaults.N > pages/4 {
			t.Fatalf("read majors = %d — readahead was curtailed without dirty pressure", sys.MajorFaults.N)
		}
	}
	{
		sys, eng := newSys(t, 256)
		writeRun = sys
		const pages = 2048
		sys.Launch("w", 0, func(sp *FSProc) {
			base, _ := sys.MmapDDC(pages)
			for i := uint64(0); i < pages; i++ {
				sp.StoreU64(base+i*PageSize, i)
			}
		})
		eng.Run()
		if !sys.dirtyPressure {
			t.Fatal("write run never signalled dirty pressure")
		}
	}
	if writeRun.MajorFaults.N <= readRun.MajorFaults.N {
		t.Fatalf("write majors (%d) should exceed read majors (%d) via readahead starvation",
			writeRun.MajorFaults.N, readRun.MajorFaults.N)
	}
}

func TestFreshReadaheadPageGetsSecondChance(t *testing.T) {
	sys, eng := newSys(t, 96)
	// Sequential read under heavy pressure: if fresh cluster pages were
	// evicted before their first touch, majors would run far above 1/8.
	const pages = 1024
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if sys.MajorFaults.N > pages/4 {
		t.Fatalf("major = %d of %d — fresh readahead pages being evicted before use",
			sys.MajorFaults.N, pages)
	}
}

func TestMinorFaultLatencyRecorded(t *testing.T) {
	// Regression: only major faults used to land in a histogram; the
	// swap-cache-hit (minor) path — the dominant path on sequential reads
	// per Table 1 — went unmeasured.
	sys, eng := newSys(t, 2048)
	const pages = 512
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if sys.MinorFaults.N == 0 {
		t.Fatal("no minor faults on a sequential read")
	}
	if got := int64(sys.MinorFaultLat.Count()); got != sys.MinorFaults.N {
		t.Fatalf("MinorFaultLat has %d samples for %d minor faults", got, sys.MinorFaults.N)
	}
	if sys.MinorFaultLat.Max() <= 0 {
		t.Fatal("minor-fault latency samples are empty")
	}
}

func TestRegistrySnapshotCoversSystem(t *testing.T) {
	sys, eng := newSys(t, 256)
	sys.Launch("app", 0, func(sp *FSProc) {
		base, _ := sys.MmapDDC(128)
		for i := uint64(0); i < 128; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
	})
	eng.Run()
	snap := sys.Registry().Snapshot()
	if n, ok := snap.Counter("fastswap.major_faults"); !ok || n != sys.MajorFaults.N {
		t.Fatalf("snapshot major_faults = %d,%v want %d", n, ok, sys.MajorFaults.N)
	}
	if n, ok := snap.Counter("link.node0.rx.bytes"); !ok || n == 0 {
		t.Fatalf("snapshot link counter = %d,%v", n, ok)
	}
	if _, ok := snap.Histogram("fastswap.minor_fault_latency"); !ok {
		t.Fatal("snapshot missing minor_fault_latency")
	}
}
