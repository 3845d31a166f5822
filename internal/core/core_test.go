package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// aliases keep the Fastswap stress test readable inside this package.
type fastswapProcAlias = fastswap.FSProc

func fastswapSysForStress(eng *sim.Engine, frames, cores int) *fastswap.System {
	sys := fastswap.New(eng, fastswap.Config{
		CacheFrames: frames, Cores: cores, RemoteBytes: 64 << 20,
		Fabric: fabric.DefaultParams(),
	})
	sys.Start()
	return sys
}

// overlapStress is the input table of the overlapping-fault stress tests:
// cache sizes × worker counts. Each cell opens a different interleaving of
// two cores faulting, mapping and evicting the same page, so a race shows
// in some cells and not in others.
var overlapStress = func() (cells []struct{ frames, workers int }) {
	for _, frames := range []int{24, 32, 40, 48, 56, 64, 80, 96, 128, 160, 192, 256} {
		for workers := 2; workers <= 4; workers++ {
			cells = append(cells, struct{ frames, workers int }{frames, workers})
		}
	}
	return cells
}()

func newSys(t testing.TB, frames int, pf prefetch.Prefetcher) (*System, *sim.Engine) {
	t.Helper()
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  pf,
	})
	sys.Start()
	return sys, eng
}

// newTotalsSys is newSys (no prefetcher) with a totals-only flight
// recorder attached, for tests that read the per-stage fault totals.
func newTotalsSys(t testing.TB, frames int) (*System, *sim.Engine) {
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

func TestColdReadFetchesZeros(t *testing.T) {
	sys, eng := newSys(t, 64, nil)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(4)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		sp.Load(base, buf)
		for _, b := range buf {
			if b != 0 {
				t.Error("fresh DDC memory not zero")
				return
			}
		}
	})
	eng.Run()
	if sys.MajorFaults.N != 1 {
		t.Fatalf("major faults = %d, want 1", sys.MajorFaults.N)
	}
}

func TestWriteSurvivesEviction(t *testing.T) {
	// Working set 4× the cache: every page gets evicted and refetched.
	const frames = 32
	sys, eng := newSys(t, frames, nil)
	var failed bool
	sys.Launch("app", 0, func(sp *DDCProc) {
		pages := uint64(frames * 4)
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i*2654435761)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i*2654435761 {
				t.Errorf("page %d: got %d", i, got)
				failed = true
				return
			}
		}
	})
	eng.Run()
	if failed {
		return
	}
	if sys.Mgr.Evicted.N == 0 {
		t.Fatal("no evictions despite 4x memory pressure")
	}
	if sys.Mgr.Cleaned.N == 0 {
		t.Fatal("cleaner never wrote back dirty pages")
	}
	if sys.MajorFaults.N < int64(frames*4) {
		t.Fatalf("major faults = %d, want >= %d (refetch after eviction)", sys.MajorFaults.N, frames*4)
	}
}

func TestNoPrefetchMajorFaultPerPage(t *testing.T) {
	sys, eng := newSys(t, 64, nil)
	const pages = 256
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if sys.MajorFaults.N != pages {
		t.Fatalf("major = %d, want %d", sys.MajorFaults.N, pages)
	}
	if sys.MinorFaults.N != 0 {
		t.Fatalf("minor = %d, want 0 without prefetch", sys.MinorFaults.N)
	}
}

func TestReadaheadReducesMajorFaults(t *testing.T) {
	sys, eng := newSys(t, 256, prefetch.NewReadahead(8))
	const pages = 1024
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	// Table 3 shape: majors collapse to ~1/window of pages; the rest are
	// minor faults (in-flight) or clean hits.
	if sys.MajorFaults.N > pages/4 {
		t.Fatalf("major = %d, want <= %d with readahead", sys.MajorFaults.N, pages/4)
	}
	if sys.MinorFaults.N == 0 {
		t.Fatal("expected some minor faults on in-flight prefetches")
	}
	if sys.MajorFaults.N+sys.MinorFaults.N >= pages {
		t.Fatalf("no full prefetch hits: major+minor = %d of %d pages",
			sys.MajorFaults.N+sys.MinorFaults.N, pages)
	}
}

func TestPrefetchedDataIsCorrect(t *testing.T) {
	sys, eng := newSys(t, 512, prefetch.NewReadahead(8))
	const pages = 512
	var failed bool
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize+8, i^0xabcdef)
		}
		// Force everything remote by thrashing through a second region.
		spill, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU8(spill+i*PageSize, 1)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize + 8); got != i^0xabcdef {
				t.Errorf("page %d corrupted: %d", i, got)
				failed = true
				return
			}
		}
	})
	eng.Run()
	_ = failed
}

func TestFetchingStateServesConcurrentFaulters(t *testing.T) {
	sys, eng := newSys(t, 64, nil)
	base, err := sys.MmapDDC(1)
	if err != nil {
		t.Fatal(err)
	}
	var done int
	for c := 0; c < 2; c++ {
		c := c
		sys.Launch("app", c, func(sp *DDCProc) {
			sp.LoadU8(base)
			done++
		})
	}
	eng.Run()
	if done != 2 {
		t.Fatal("threads did not finish")
	}
	// One major (the fetch), one minor (waited on the same op): no
	// duplicate fetch.
	if sys.MajorFaults.N != 1 || sys.MinorFaults.N != 1 {
		t.Fatalf("major=%d minor=%d, want 1/1", sys.MajorFaults.N, sys.MinorFaults.N)
	}
	if sys.Link.RxOps.N != 1 {
		t.Fatalf("rx ops = %d, want 1 (no duplicated fetch)", sys.Link.RxOps.N)
	}
}

func TestFaultLatencyShape(t *testing.T) {
	sys, eng := newTotalsSys(t, 64)
	const pages = 200
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	mean := sys.FaultLat.Mean()
	// Figure 6: DiLOS total fault latency ≈ 3–4 µs (exception 0.57 +
	// handler ~0.15 + fetch ~2.7 + map ~0.1), about half of Fastswap's.
	if mean < 3*sim.Microsecond || mean > 4500*sim.Nanosecond {
		t.Fatalf("mean fault latency = %v, want ≈3.5us", mean)
	}
	tot := sys.Tel.Totals(telemetry.KindMajorFault)
	if tot.N != sys.MajorFaults.N {
		t.Fatalf("recorded %d major faults, counter says %d", tot.N, sys.MajorFaults.N)
	}
	e, h := tot.Mean(telemetry.StageException), tot.Mean(telemetry.StageLookup)
	f, m, r := tot.Mean(telemetry.StageWait), tot.Mean(telemetry.StageMap), tot.Mean(telemetry.StageReclaim)
	if r != 0 {
		t.Fatalf("DiLOS must have zero reclaim in the fault path, got %v", r)
	}
	if f < 2*sim.Microsecond {
		t.Fatalf("fetch segment = %v, want ≈2.7us", f)
	}
	if e != 570*sim.Nanosecond {
		t.Fatalf("exception segment = %v", e)
	}
	if h > 500*sim.Nanosecond || m > 500*sim.Nanosecond {
		t.Fatalf("software segments too large: handler=%v map=%v", h, m)
	}
}

func TestReclaimStaysOffFaultPath(t *testing.T) {
	sys, eng := newTotalsSys(t, 64)
	const pages = 512
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize) // clean pages: reclaim is pure unmap
		}
	})
	eng.Run()
	if r := sys.Tel.Totals(telemetry.KindMajorFault).Stages[telemetry.StageReclaim]; r != 0 {
		t.Fatalf("reclaim leaked into the fault path: %v", r)
	}
	if sys.Mgr.AllocWaits.N > int64(pages)/20 {
		t.Fatalf("allocator waited %d times — eager eviction not keeping up", sys.Mgr.AllocWaits.N)
	}
}

func TestMallocCompat(t *testing.T) {
	sys, eng := newSys(t, 128, nil)
	sys.Launch("app", 0, func(sp *DDCProc) {
		a := sp.Malloc(100)
		b := sp.Malloc(100)
		if a == 0 || b == 0 || a == b {
			t.Error("bad addresses")
			return
		}
		sp.StoreU64(a, 1)
		sp.StoreU64(b, 2)
		if sp.LoadU64(a) != 1 || sp.LoadU64(b) != 2 {
			t.Error("allocations alias")
		}
		big := sp.Malloc(1 << 20) // page-aligned
		if big%PageSize != 0 {
			t.Errorf("large alloc not page aligned: %#x", big)
		}
	})
	eng.Run()
}

func TestRandomizedIntegrityUnderPressure(t *testing.T) {
	sys, eng := newSys(t, 48, prefetch.NewTrend())
	rng := rand.New(rand.NewSource(42))
	const pages = 192
	ref := make([]byte, pages*PageSize)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := 0; i < 3000; i++ {
			off := rng.Intn(len(ref) - 128)
			n := rng.Intn(128) + 1
			if rng.Intn(2) == 0 {
				b := make([]byte, n)
				rng.Read(b)
				sp.Store(base+uint64(off), b)
				copy(ref[off:], b)
			} else {
				got := make([]byte, n)
				sp.Load(base+uint64(off), got)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Errorf("iteration %d: data corruption at %d", i, off)
					return
				}
			}
		}
	})
	eng.Run()
	if sys.Mgr.Evicted.N == 0 {
		t.Fatal("test exerted no eviction pressure")
	}
}

func TestRemoteOfOutsideRegions(t *testing.T) {
	sys, _ := newSys(t, 16, nil)
	if _, _, ok := sys.remoteOf(pagetable.VPNOf(1 << 40)); ok {
		t.Fatal("RemoteOf accepted an unmapped vpn")
	}
}

func TestSegfaultPanics(t *testing.T) {
	sys, eng := newSys(t, 16, nil)
	sys.Launch("app", 0, func(sp *DDCProc) {
		defer func() {
			if recover() == nil {
				t.Error("expected segfault panic")
			}
		}()
		sp.LoadU8(0xdead000)
	})
	eng.Run()
}

func TestMultiMemoryNodeSharding(t *testing.T) {
	// The §5.1 extension: pages stripe across memory nodes; data must
	// survive eviction to, and refetch from, the right shard.
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 64,
		Cores:       2,
		RemoteBytes: 64 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(0),
		MemNodes:    3,
	})
	sys.Start()
	const pages = 384
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i^0xfeed)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i^0xfeed {
				t.Errorf("page %d corrupted across shards: %#x", i, got)
				return
			}
		}
	})
	eng.Run()
	// Traffic must hit every shard.
	for i, link := range sys.Links {
		if link.RxBytes.N == 0 || link.TxBytes.N == 0 {
			t.Fatalf("node %d saw no traffic (rx=%d tx=%d)", i, link.RxBytes.N, link.TxBytes.N)
		}
	}
	// Striping is page-round-robin: consecutive pages hit different nodes.
	base := sys.Space().Regions()[0].BaseVPN
	n0, _, _ := sys.remoteOf(base)
	n1, _, _ := sys.remoteOf(base + 1)
	n3, _, _ := sys.remoteOf(base + 3)
	if n0 == n1 || n0 != n3 {
		t.Fatalf("striping wrong: nodes %d %d %d", n0, n1, n3)
	}
}

func TestMultiNodeAggregatesBandwidth(t *testing.T) {
	// Sequential read with prefetch: two shards should cut the wire-bound
	// portion of the run (each link carries half the fetch traffic).
	run := func(nodes int) sim.Time {
		eng := sim.New()
		sys := New(eng, Config{
			CacheFrames: 2048, Cores: 1, RemoteBytes: 128 << 20,
			Fabric:     fabric.DefaultParams(),
			Prefetcher: prefetch.NewReadahead(0),
			MemNodes:   nodes,
		})
		sys.Start()
		var d sim.Time
		sys.Launch("seq", 0, func(sp *DDCProc) {
			base, _ := sys.MmapDDC(8192)
			t0 := sp.Now()
			for i := uint64(0); i < 8192; i++ {
				sp.LoadU8(base + i*PageSize)
			}
			d = sp.Now() - t0
		})
		eng.Run()
		return d
	}
	one, two := run(1), run(2)
	if two >= one {
		t.Fatalf("2 memory nodes not faster than 1: %v vs %v", two, one)
	}
}

// Every fault the handler counts lands in the flight recorder as a span of
// its kind on the faulting core's track: majors, minors, and late-map
// prefetch hits alike.
func TestFaultTraceRecording(t *testing.T) {
	rec := telemetry.NewRecorder(0)
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 512, Cores: 2, RemoteBytes: 64 << 20,
		Fabric: fabric.DefaultParams(), Prefetcher: prefetch.NewReadahead(0),
		Tel: rec,
	})
	sys.Start()
	const pages = 1024
	base, _ := sys.MmapDDC(pages)
	// Two cores sweep the same pages, core 1 40 µs behind core 0: now and
	// then core 1 finds one of core 0's prefetches arrived but not yet
	// mapped by core 0's mapper — a late-map hit.
	for c := 0; c < 2; c++ {
		c := c
		sys.Launch(fmt.Sprintf("app%d", c), c, func(sp *DDCProc) {
			sp.Proc().Sleep(sim.Time(c) * 40 * sim.Microsecond)
			for i := uint64(0); i < pages; i++ {
				sp.LoadU8(base + i*PageSize)
			}
		})
	}
	eng.Run()
	if sys.LateMapHits.N == 0 {
		t.Fatal("no late-map hits; the prefetch-hit kind went unexercised")
	}
	counts := map[telemetry.Kind]int64{}
	for c := 0; c < 2; c++ {
		for _, sp := range rec.Spans(sys.telCore[c]) {
			counts[sp.Kind]++
			if sp.Kind == telemetry.KindPrefetchHit && sp.Dur() != 0 {
				t.Fatalf("prefetch hit has duration %v, want a zero-length marker", sp.Dur())
			}
		}
	}
	for _, c := range []struct {
		kind telemetry.Kind
		want int64
	}{
		{telemetry.KindMajorFault, sys.MajorFaults.N},
		{telemetry.KindMinorFault, sys.MinorFaults.N},
		{telemetry.KindPrefetchHit, sys.LateMapHits.N},
	} {
		if counts[c.kind] != c.want {
			t.Errorf("%v spans = %d, counter = %d", c.kind, counts[c.kind], c.want)
		}
		if got := rec.Totals(c.kind).N; got != c.want {
			t.Errorf("%v totals = %d, counter = %d", c.kind, got, c.want)
		}
	}
}

func TestReplicationSurvivesNodeFailure(t *testing.T) {
	// §5.1's fault-tolerance direction: 2 replicas over 3 nodes; kill a
	// node mid-run; every page must still read back correctly from the
	// surviving replicas.
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 64,
		Cores:       2,
		RemoteBytes: 64 << 20,
		Fabric:      fabric.DefaultParams(),
		MemNodes:    3,
		Replicas:    2,
	})
	sys.Start()
	const pages = 384
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i*0xdeadbeef)
		}
		// Flush everything to the replicas (cycle the cache with reads).
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
		// A node dies. Reads keep working off the other replicas.
		if err := sys.Space().SetState(1, placement.Failed); err != nil {
			t.Errorf("failing node 1: %v", err)
			return
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i*0xdeadbeef {
				t.Errorf("page %d lost after node failure: %#x", i, got)
				return
			}
		}
		// Writes continue (they just skip the dead node).
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i+7)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i+7 {
				t.Errorf("post-failure write lost on page %d", i)
				return
			}
		}
	})
	eng.Run()
	if sys.ReplicaFetches.N == 0 {
		t.Fatal("no slot resolution ever failed over")
	}
	if sys.Links[1].RxBytes.N == 0 {
		t.Fatal("node 1 never served traffic before failing")
	}
}

func TestReplicasExceedNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.New(), Config{
		CacheFrames: 16, Cores: 1, RemoteBytes: 8 << 20,
		Fabric: fabric.DefaultParams(), MemNodes: 1, Replicas: 2,
	})
}

func TestFailLastNodeRejected(t *testing.T) {
	sys, _ := newSys(t, 16, nil)
	if err := sys.Space().SetState(0, placement.Failed); err == nil {
		t.Fatal("failed the last serving node")
	}
}

func TestReplicatedWriteBackReachesAllNodes(t *testing.T) {
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 32, Cores: 1, RemoteBytes: 64 << 20,
		Fabric: fabric.DefaultParams(), MemNodes: 2, Replicas: 2,
	})
	sys.Start()
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(128)
		for i := uint64(0); i < 128; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		for i := uint64(0); i < 128; i++ { // force write-back + eviction
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	// With full replication, both nodes carry comparable write-back bytes.
	a, b := sys.Links[0].TxBytes.N, sys.Links[1].TxBytes.N
	if a == 0 || b == 0 {
		t.Fatalf("write-back not replicated: %d / %d", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("replica write volumes too skewed: %d vs %d", a, b)
	}
}

func TestMmapExhaustionPropagates(t *testing.T) {
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 16, Cores: 1, RemoteBytes: 4 << 20, // tiny memory node
		Fabric: fabric.DefaultParams(),
	})
	sys.Start()
	if _, err := sys.MmapDDC(1 << 20); err == nil {
		t.Fatal("huge mmap on a tiny memory node succeeded")
	}
	// A reasonable mmap still works afterwards.
	if _, err := sys.MmapDDC(16); err != nil {
		t.Fatalf("small mmap failed: %v", err)
	}
	sys.Launch("noop", 0, func(sp *DDCProc) {})
	eng.Run()
}

func TestMultiCoreOverlappingFaultStress(t *testing.T) {
	// Regression test for the concurrent-major race: the threads hammer the
	// same small region with a tiny cache (AllocFrame yields under
	// pressure, opening the window where two cores could fetch one page).
	for _, c := range overlapStress {
		t.Run(fmt.Sprintf("frames%d/workers%d", c.frames, c.workers), func(t *testing.T) {
			eng := sim.New()
			sys := New(eng, Config{
				CacheFrames: c.frames, Cores: c.workers, RemoteBytes: 64 << 20,
				Fabric: fabric.DefaultParams(), Prefetcher: prefetch.NewTrend(),
			})
			sys.Start()
			const pages = 192
			base, _ := sys.MmapDDC(pages)
			// Thread w owns words at offset w*8 within each page; everyone
			// walks all pages in different orders.
			for w := 0; w < c.workers; w++ {
				w := w
				sys.Launch("stress", w, func(sp *DDCProc) {
					overlapWorker(t, sp, base, pages, w, int64(w+1), 4)
				})
			}
			eng.Run()
			// Frame conservation: nothing leaked to the pool across the chaos.
			if sys.Pool.FreeCount()+sys.Pool.Used() != c.frames {
				t.Fatal("frame conservation violated")
			}
		})
	}
}

// TestFastswapMultiCoreOverlappingFaultStress runs the same pattern over
// Fastswap, whose swap cache lets a second core map a page another core
// has already mapped and dirtied.
func TestFastswapMultiCoreOverlappingFaultStress(t *testing.T) {
	for _, c := range overlapStress {
		t.Run(fmt.Sprintf("frames%d/workers%d", c.frames, c.workers), func(t *testing.T) {
			eng := sim.New()
			fsys := fastswapSysForStress(eng, c.frames, c.workers)
			const pages = 192
			base, _ := fsys.MmapDDC(pages)
			for w := 0; w < c.workers; w++ {
				w := w
				fsys.Launch("stress", w, func(sp *fastswapProcAlias) {
					overlapWorker(t, sp, base, pages, w, int64(w+7), 3)
				})
			}
			eng.Run()
		})
	}
}

// overlapWorker stores worker w's word into every page in a seeded random
// order, then reads each back, for the given number of rounds.
func overlapWorker(t *testing.T, sp interface {
	StoreU64(addr, v uint64)
	LoadU64(addr uint64) uint64
}, base uint64, pages, w int, seed int64, rounds int) {
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		perm := rng.Perm(pages)
		for _, pg := range perm {
			addr := base + uint64(pg)*PageSize + uint64(w)*8
			sp.StoreU64(addr, uint64(w)<<32|uint64(pg))
		}
		for _, pg := range perm {
			addr := base + uint64(pg)*PageSize + uint64(w)*8
			if got := sp.LoadU64(addr); got != uint64(w)<<32|uint64(pg) {
				t.Errorf("worker %d round %d page %d: got %#x", w, round, pg, got)
				return
			}
		}
	}
}

func TestReplicaFetchesCountedAtFetchSiteOnly(t *testing.T) {
	// Regression: replicaSlots used to bump ReplicaFetches on *every*
	// failover-aware resolution — cleaner/reclaimer write-back targets,
	// prefetch filtering, subpage reads — not just faults actually served
	// by a replica. Resolution must be free; only fetches count.
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: 128, Cores: 1, RemoteBytes: 64 << 20,
		Fabric: fabric.DefaultParams(), MemNodes: 2, Replicas: 2,
	})
	sys.Start()
	const pages = 64
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(pages)
		if err := sys.Space().SetState(1, placement.Failed); err != nil {
			t.Errorf("failing node 1: %v", err)
			return
		}

		// Exercise every non-fetch resolution path the way the daemons do.
		baseVPN := pagetable.VPNOf(base)
		for i := uint64(0); i < pages; i++ {
			if _, ok := sys.Mgr.RemoteOf(baseVPN + pagetable.VPN(i)); !ok {
				t.Errorf("page %d did not resolve", i)
				return
			}
			if _, _, ok := sys.remoteOf(baseVPN + pagetable.VPN(i)); !ok {
				t.Errorf("page %d did not resolve via RemoteOf", i)
				return
			}
		}
		if sys.ReplicaFetches.N != 0 {
			t.Errorf("resolution alone counted %d replica fetches", sys.ReplicaFetches.N)
			return
		}

		// Now actually fault every page in: exactly the pages whose
		// primary is the failed node (odd indices under 2-way striping)
		// count.
		for i := uint64(0); i < pages; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if want := int64(pages / 2); sys.ReplicaFetches.N != want {
		t.Fatalf("ReplicaFetches = %d, want %d (one per failed-primary fault)",
			sys.ReplicaFetches.N, want)
	}
}

func TestMinorFaultLatencyRecorded(t *testing.T) {
	// Regression: only major faults used to land in a histogram, so tail
	// latency reports ignored the wait-on-inflight (minor) path entirely.
	sys, eng := newSys(t, 2048, prefetch.NewReadahead(0))
	sys.Launch("seq", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(512)
		for i := uint64(0); i < 512; i++ {
			sp.LoadU8(base + i*PageSize)
		}
	})
	eng.Run()
	if sys.MinorFaults.N == 0 {
		t.Fatal("sequential scan with readahead produced no minor faults")
	}
	if got := int64(sys.MinorFaultLat.Count()); got != sys.MinorFaults.N {
		t.Fatalf("MinorFaultLat has %d samples for %d minor faults", got, sys.MinorFaults.N)
	}
	if sys.MinorFaultLat.Max() <= 0 {
		t.Fatal("minor-fault latency samples are empty")
	}
	// Major-fault samples stay separate.
	if int64(sys.FaultLat.Count()) != sys.MajorFaults.N {
		t.Fatalf("FaultLat has %d samples for %d major faults",
			sys.FaultLat.Count(), sys.MajorFaults.N)
	}
}

func TestRegistrySnapshotCoversSystem(t *testing.T) {
	sys, eng := newSys(t, 64, nil)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, _ := sys.MmapDDC(128)
		for i := uint64(0); i < 128; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
	})
	eng.Run()
	snap := sys.Registry().Snapshot()
	if n, ok := snap.Counter("dilos.major_faults"); !ok || n != sys.MajorFaults.N {
		t.Fatalf("snapshot major_faults = %d,%v want %d", n, ok, sys.MajorFaults.N)
	}
	if n, ok := snap.Counter("link.node0.rx.bytes"); !ok || n == 0 {
		t.Fatalf("snapshot link counter = %d,%v", n, ok)
	}
	if n, ok := snap.Counter("pagemgr.cleaned"); !ok || n != sys.Mgr.Cleaned.N {
		t.Fatalf("snapshot pagemgr.cleaned = %d,%v want %d", n, ok, sys.Mgr.Cleaned.N)
	}
	if h, ok := snap.Histogram("dilos.fault_latency"); !ok || h.Count == 0 {
		t.Fatalf("snapshot fault_latency = %+v,%v", h, ok)
	}
	if _, ok := snap.Histogram("dilos.minor_fault_latency"); !ok {
		t.Fatal("snapshot missing minor_fault_latency")
	}
}

func TestPlacementPolicySelectable(t *testing.T) {
	// The layout policy is part of Config: blocked placement keeps runs
	// whole per node, and data still round-trips through eviction.
	for _, name := range []string{"striped", "blocked", "hashed"} {
		pol, err := placement.ParsePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		sys := New(eng, Config{
			CacheFrames: 64, Cores: 1, RemoteBytes: 64 << 20,
			Fabric: fabric.DefaultParams(), MemNodes: 3, Placement: pol,
		})
		sys.Start()
		const pages = 192
		sys.Launch("app", 0, func(sp *DDCProc) {
			base, _ := sys.MmapDDC(pages)
			for i := uint64(0); i < pages; i++ {
				sp.StoreU64(base+i*PageSize, i^0xabc)
			}
			for i := uint64(0); i < pages; i++ {
				if got := sp.LoadU64(base + i*PageSize); got != i^0xabc {
					t.Errorf("%s: page %d corrupted: %#x", name, i, got)
					return
				}
			}
		})
		eng.Run()
		if sys.Space().Policy().Name() != name {
			t.Fatalf("policy %s not installed", name)
		}
		// Every node must hold data under every policy (the workload spans
		// the whole region).
		for i, link := range sys.Links {
			if link.RxBytes.N == 0 && link.TxBytes.N == 0 {
				t.Fatalf("%s: node %d saw no traffic", name, i)
			}
		}
	}
}
