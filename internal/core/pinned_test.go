package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"dilos/internal/dalloc"
	"dilos/internal/fabric"
	"dilos/internal/migrate"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
)

// TestModelPinned pins the virtual-time model: three tiny seeded runs whose
// final virtual time and registry-snapshot digest must equal constants
// recorded from the model as it stands. Refactors must leave them
// bit-identical; only a declared model change (one that says which
// virtual-time numbers it moves and why) may update the constants.
//
//	(a) the default configuration: one core sequentially reading with
//	    readahead at a 12.5 % cache, per-op submission, unsharded;
//	(b) two shards, doorbell batching, 2 memory nodes × 2 replicas, two
//	    cores storing to random pages;
//	(c) run (b) with the migration engine armed: mid-run a third node
//	    joins (a drain needs a destination hosting no replica) and node 1
//	    drains onto it;
//	(d) guided paging, per-op, shaped like Figure 12: one core fills a
//	    dalloc heap of small objects at a 25 % cache, frees most of them,
//	    lets the daemons drain, then reads a sample back;
//	(e) application-directed page-out, batched and unguided, shaped like
//	    ext12: a core writes layer-sized ranges, pushes each out with
//	    PageOutRange, and reads them back through readahead.
//
// Together they cover the cleaner/reclaimer daemon start (legacy pair and
// per-shard pairs), guided and plain write-back, PageOutRange, fabric
// scheduling, the frame pool, and migration.
func TestModelPinned(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) (sim.Time, []byte)
		end  sim.Time
		hash uint64
	}{
		{"seqread-default", pinnedSeqRead, 2024254, 0x107b1d80cde22c7c},
		{"sharded-batched-replicated", func(t *testing.T) (sim.Time, []byte) { return pinnedRandStore(t, false) }, 2590671, 0xdd1e8e2f94bd5eb5},
		{"sharded-batched-replicated-drain", func(t *testing.T) (sim.Time, []byte) { return pinnedRandStore(t, true) }, 2588222, 0xc49de736cf683f31},
		{"guided-perop", pinnedGuided, 3530534, 0x4e1fabed9855723b},
		{"pageout-batched", pinnedPageOut, 1661779, 0xbff27d93b40f3494},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			end, snap := c.run(t)
			h := fnv.New64a()
			h.Write(snap)
			if end != c.end || h.Sum64() != c.hash {
				t.Errorf("virtual end %d, snapshot fnv64a %#x; pinned %d, %#x", end, h.Sum64(), c.end, c.hash)
			}
		})
	}
}

func pinnedSnapshot(t *testing.T, sys *System) []byte {
	b, err := json.Marshal(sys.Registry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func pinnedSeqRead(t *testing.T) (sim.Time, []byte) {
	const pages = 1024
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: pages / 8,
		Cores:       1,
		RemoteBytes: 16 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(0),
	})
	sys.Start()
	sys.Launch("seq", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			t.Error(err)
			return
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i*7+1)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != i*7+1 {
				t.Errorf("page %d: got %d", i, got)
				return
			}
		}
	})
	eng.Run()
	return eng.Now(), pinnedSnapshot(t, sys)
}

func pinnedRandStore(t *testing.T, drain bool) (sim.Time, []byte) {
	const cores, partPages = 2, 128
	eng := sim.New()
	cfg := Config{
		CacheFrames: cores * partPages / 4,
		Cores:       cores,
		Shards:      cores,
		RemoteBytes: 16 << 20,
		Fabric:      fabric.DefaultParams(),
		Batch:       true,
		MemNodes:    2,
		Replicas:    2,
	}
	if drain {
		cfg.Migrate = &migrate.Tuning{BatchPages: 8}
	}
	sys := New(eng, cfg)
	sys.Start()
	base, err := sys.MmapDDC(cores * partPages)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cores; c++ {
		c := c
		sys.Launch(fmt.Sprintf("app%d", c), c, func(sp *DDCProc) {
			lcg := uint64(c)*0x9e3779b97f4a7c15 + 1
			pbase := base + uint64(c)*partPages*PageSize
			for i := 0; i < 6*partPages; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				sp.StoreU64(pbase+((lcg>>33)%partPages)*PageSize, lcg)
			}
		})
	}
	if drain {
		eng.Go("driver", func(p *sim.Proc) {
			p.Sleep(100 * sim.Microsecond)
			if _, err := sys.AddMemNode(); err != nil {
				t.Error(err)
				return
			}
			if err := sys.Drain(1); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()
	if drain && (sys.Mig.PagesMoved.N == 0 || sys.Mig.DrainsDone.N != 1) {
		t.Errorf("drain did not complete: moved=%d drains_done=%d", sys.Mig.PagesMoved.N, sys.Mig.DrainsDone.N)
	}
	return eng.Now(), pinnedSnapshot(t, sys)
}

func pinnedGuided(t *testing.T) (sim.Time, []byte) {
	const objs, size = 4000, 128
	fw := &forwardGuide{}
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames:   objs * size / PageSize / 4,
		Cores:         1,
		RemoteBytes:   16 << 20,
		Fabric:        fabric.DefaultParams(),
		EvictionGuide: fw,
	})
	sys.Start()
	sys.Launch("heap", 0, func(sp *DDCProc) {
		alloc := dalloc.New(sp)
		fw.g = alloc
		addrs := make([]uint64, objs)
		for i := range addrs {
			addrs[i] = alloc.Alloc(size)
			sp.StoreU64(addrs[i], uint64(i)*31+7)
		}
		lcg := uint64(29)
		live := make([]bool, objs)
		for i := range addrs {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			if live[i] = (lcg>>33)%10 >= 7; !live[i] {
				alloc.Free(addrs[i])
			}
		}
		sp.Proc().Sleep(2 * sim.Millisecond)
		for i := 0; i < objs; i += 3 {
			if live[i] {
				if got := sp.LoadU64(addrs[i]); got != uint64(i)*31+7 {
					t.Errorf("object %d: got %d", i, got)
					return
				}
			}
		}
	})
	eng.Run()
	if sys.Mgr.VectorSaves.N == 0 {
		t.Error("guide never engaged")
	}
	return eng.Now(), pinnedSnapshot(t, sys)
}

func pinnedPageOut(t *testing.T) (sim.Time, []byte) {
	const layers, layerPages = 8, 32
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: layers * layerPages / 2,
		Cores:       2,
		RemoteBytes: 16 << 20,
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(0),
		Batch:       true,
	})
	sys.Start()
	sys.Launch("kv", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(layers * layerPages)
		if err != nil {
			t.Error(err)
			return
		}
		for round := uint64(0); round < 3; round++ {
			for l := uint64(0); l < layers; l++ {
				lb := base + l*layerPages*PageSize
				for i := uint64(0); i < layerPages; i++ {
					sp.StoreU64(lb+i*PageSize, round<<32|l<<16|i)
				}
				sys.PageOutRange(sp.Proc(), sp.CoreID(), lb, layerPages*PageSize)
			}
			for l := uint64(0); l < layers; l++ {
				lb := base + l*layerPages*PageSize
				for i := uint64(0); i < layerPages; i++ {
					if got := sp.LoadU64(lb + i*PageSize); got != round<<32|l<<16|i {
						t.Errorf("round %d layer %d page %d: got %#x", round, l, i, got)
						return
					}
				}
			}
		}
	})
	eng.Run()
	return eng.Now(), pinnedSnapshot(t, sys)
}
