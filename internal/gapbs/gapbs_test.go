package gapbs

import (
	"testing"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/sim"
	"dilos/internal/space"
)

func localWorkers(n int) ([]space.Space, *sim.Engine, *space.Local) {
	eng := sim.New()
	base := space.NewLocal(512 << 20)
	spaces := make([]space.Space, n)
	// Local spaces share memory; each worker gets its own proc wrapper.
	for i := 0; i < n; i++ {
		l := *base // copy shares Mem
		spaces[i] = &l
	}
	return spaces, eng, base
}

func TestBuildRMATIsValidCSR(t *testing.T) {
	sp := space.NewLocal(256 << 20)
	g := BuildRMAT(sp, 10, 8, 1)
	if g.N != 1024 {
		t.Fatalf("N = %d", g.N)
	}
	// Offsets monotone; neighbour ids in range; M consistent.
	prev := uint64(0)
	for v := uint64(0); v <= g.N; v++ {
		off := sp.LoadU64(g.OffBase + v*8)
		if off < prev {
			t.Fatal("offsets not monotone")
		}
		prev = off
	}
	if prev != g.M {
		t.Fatalf("last offset %d != M %d", prev, g.M)
	}
	var total uint64
	for v := uint64(0); v < g.N; v++ {
		total += g.Degree(sp, v)
		g.Neighbors(sp, v, func(u uint64) {
			if u >= g.N {
				t.Fatalf("neighbour %d out of range", u)
			}
		})
	}
	if total != g.M {
		t.Fatalf("degree sum %d != M %d", total, g.M)
	}
}

func TestRMATIsPowerLawish(t *testing.T) {
	sp := space.NewLocal(256 << 20)
	g := BuildRMAT(sp, 12, 16, 2)
	var max, sum uint64
	for v := uint64(0); v < g.N; v++ {
		d := g.Degree(sp, v)
		sum += d
		if d > max {
			max = d
		}
	}
	avg := sum / g.N
	if max < avg*8 {
		t.Fatalf("degree distribution too flat: max=%d avg=%d", max, avg)
	}
}

func runPR(t *testing.T, workers int) (uint64, uint64) {
	t.Helper()
	spaces, eng, base := localWorkers(workers)
	g := BuildRMAT(base, 10, 8, 3)
	scoreBase := base.Malloc(g.N * 8)
	contribBase := base.Malloc(g.N * 8)
	barrier := sim.NewBarrier(workers)
	var v0, sum uint64
	for w := 0; w < workers; w++ {
		w := w
		eng.Go("pr", func(p *sim.Proc) {
			spaces[w].(*space.Local).P = p
			pv0, psum := PageRank(spaces, barrier, g, 5, scoreBase, contribBase, w)
			if pv0 != 0 {
				v0 = pv0
			}
			sum += psum
		})
	}
	eng.Run()
	return v0, sum
}

func TestPageRankConservesMass(t *testing.T) {
	_, sum := runPR(t, 1)
	// Total PageRank mass stays below 1.0 and above the damping floor:
	// dangling (zero-degree) RMAT vertices leak their damped mass, so the
	// sum lands between (1-d)=0.15 and 1.0 — this graph keeps ~0.72.
	one := uint64(1) << prShift
	if sum < one*50/100 || sum > one*101/100 {
		t.Fatalf("mass = %d / %d", sum, one)
	}
}

func TestPageRankThreadCountInvariant(t *testing.T) {
	v1, s1 := runPR(t, 1)
	v4, s4 := runPR(t, 4)
	if v1 != v4 || s1 != s4 {
		t.Fatalf("parallel PR diverges: v0 %d vs %d, sum %d vs %d", v1, v4, s1, s4)
	}
}

func TestBCProducesCentrality(t *testing.T) {
	const workers = 2
	spaces, eng, base := localWorkers(workers)
	g := BuildRMAT(base, 9, 8, 4)
	centralBase := base.Malloc(uint64(workers) * g.N * 8)
	workBase := base.Malloc(uint64(workers) * 3 * g.N * 8)
	barrier := sim.NewBarrier(workers)
	sources := []uint64{1, 5, 9, 13}
	var sum uint64
	for w := 0; w < workers; w++ {
		w := w
		eng.Go("bc", func(p *sim.Proc) {
			spaces[w].(*space.Local).P = p
			res := BC(spaces, barrier, g, sources, centralBase, workBase, w)
			sum += res.SumCentrality
		})
	}
	eng.Run()
	if sum == 0 {
		t.Fatal("no centrality accumulated")
	}
}

func TestBCWorkerCountInvariant(t *testing.T) {
	run := func(workers int) uint64 {
		spaces, eng, base := localWorkers(workers)
		g := BuildRMAT(base, 8, 8, 5)
		centralBase := base.Malloc(uint64(workers) * g.N * 8)
		workBase := base.Malloc(uint64(workers) * 3 * g.N * 8)
		barrier := sim.NewBarrier(workers)
		sources := []uint64{2, 4, 6, 8}
		var sum uint64
		for w := 0; w < workers; w++ {
			w := w
			eng.Go("bc", func(p *sim.Proc) {
				spaces[w].(*space.Local).P = p
				sum += BC(spaces, barrier, g, sources, centralBase, workBase, w).SumCentrality
			})
		}
		eng.Run()
		return sum
	}
	if a, b := run(1), run(4); a != b {
		t.Fatalf("BC diverges with workers: %d vs %d", a, b)
	}
}

func TestPageRankOnDiLOSFourThreads(t *testing.T) {
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: 256, Cores: 4, RemoteBytes: 256 << 20,
		Fabric: fabric.DefaultParams(),
	})
	sys.Start()
	setup := make(chan struct{})
	_ = setup
	var g *Graph
	var scoreBase, contribBase uint64
	spaces := make([]space.Space, 4)
	barrier := sim.NewBarrier(4)
	ready := sim.NewBarrier(4 + 1)
	// Builder thread prepares the graph, then workers run.
	sys.Launch("builder", 0, func(sp *core.DDCProc) {
		g = BuildRMAT(sp, 9, 8, 6)
		scoreBase = sp.Malloc(g.N * 8)
		contribBase = sp.Malloc(g.N * 8)
		ready.Wait(sp.Proc())
	})
	var sum uint64
	for w := 0; w < 4; w++ {
		w := w
		sys.Launch("pr", w, func(sp *core.DDCProc) {
			spaces[w] = sp
			ready.Wait(sp.Proc())
			_, psum := PageRank(spaces, barrier, g, 3, scoreBase, contribBase, w)
			sum += psum
		})
	}
	eng.Run()
	if sum == 0 {
		t.Fatal("no PageRank mass")
	}
	if sys.MajorFaults.N == 0 {
		t.Fatal("no paging exercised")
	}
}
