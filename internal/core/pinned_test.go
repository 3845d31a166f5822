package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

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
//	    drains onto it.
//
// Together they cover the cleaner/reclaimer daemon start (legacy pair and
// per-shard pairs), fabric scheduling, the frame pool, and migration.
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
