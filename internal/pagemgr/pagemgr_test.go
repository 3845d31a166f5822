package pagemgr

import (
	"bytes"
	"testing"

	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

type fixture struct {
	eng  *sim.Engine
	node *memnode.Node
	link *fabric.Link
	pool *dram.Pool
	tbl  *pagetable.Table
	mgr  *Manager
	base uint64 // remote base offset for vpn 0
}

func newFixture(t testing.TB, frames int, pages uint64, cfg Config) *fixture {
	t.Helper()
	f := &fixture{
		eng:  sim.New(),
		pool: dram.NewPool(frames),
		tbl:  pagetable.New(),
	}
	f.node = memnode.New(64<<20, 1)
	f.link = fabric.NewLink(f.node, fabric.DefaultParams())
	base, err := f.node.AllocRange(pages)
	if err != nil {
		t.Fatal(err)
	}
	f.base = base
	f.mgr = New(f.pool, f.tbl, cfg)
	cleanQP := f.link.MustQP("clean", 1)
	reclaimQP := f.link.MustQP("reclaim", 1)
	f.mgr.RemoteOf = func(v pagetable.VPN) (Target, bool) {
		if uint64(v) >= pages {
			return Target{}, false
		}
		return Target{
			Off:       base + uint64(v)*pagetable.PageSize,
			CleanQP:   cleanQP,
			ReclaimQP: reclaimQP,
		}, true
	}
	return f
}

// mapPage simulates a fault handler mapping vpn into a fresh frame.
func (f *fixture) mapPage(vpn pagetable.VPN, dirty bool, fill byte) dram.FrameID {
	id, ok := f.pool.Alloc()
	if !ok {
		panic("fixture pool exhausted")
	}
	buf := f.pool.Bytes(id)
	for i := range buf {
		buf[i] = fill
	}
	pte := pagetable.Local(uint64(id), true) | pagetable.BitAccessed
	if dirty {
		pte |= pagetable.BitDirty
	}
	f.tbl.Set(vpn, pte)
	f.mgr.InsertLRUFor(0, id, vpn)
	return id
}

func (f *fixture) run(fn func(p *sim.Proc)) {
	f.eng.Go("test", fn)
	f.eng.Run()
}

func TestCleanerWritesBackAndClearsDirty(t *testing.T) {
	f := newFixture(t, 8, 8, DefaultConfig(8))
	f.mapPage(3, true, 0xcd)
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0)
	})
	if f.mgr.Cleaned.N != 1 {
		t.Fatalf("cleaned = %d", f.mgr.Cleaned.N)
	}
	if f.tbl.Lookup(3).Dirty() {
		t.Fatal("dirty bit not cleared")
	}
	got := make([]byte, pagetable.PageSize)
	f.node.ReadAt(f.base+3*pagetable.PageSize, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0xcd}, pagetable.PageSize)) {
		t.Fatal("write-back content wrong")
	}
	if f.link.TxBytes.N != pagetable.PageSize {
		t.Fatalf("tx bytes = %d", f.link.TxBytes.N)
	}
}

func TestCleanerSkipsCleanAndPinned(t *testing.T) {
	f := newFixture(t, 8, 8, DefaultConfig(8))
	f.mapPage(0, false, 1)
	id := f.mapPage(1, true, 2)
	f.pool.Meta(id).Pinned = true
	f.run(func(p *sim.Proc) { f.mgr.cleanPass(p, 0) })
	if f.mgr.Cleaned.N != 0 {
		t.Fatalf("cleaned = %d, want 0", f.mgr.Cleaned.N)
	}
}

func TestCleanerBumpsGeneration(t *testing.T) {
	f := newFixture(t, 8, 8, DefaultConfig(8))
	f.mapPage(0, true, 1)
	g := f.tbl.Gen()
	f.run(func(p *sim.Proc) { f.mgr.cleanPass(p, 0) })
	if f.tbl.Gen() == g {
		t.Fatal("no TLB shootdown after clearing dirty bits")
	}
}

func TestReclaimerEvictsColdCleanPage(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.LowWater, cfg.HighWater = 2, 4
	f := newFixture(t, 8, 8, cfg)
	// Fill the pool: 8 clean pages, accessed bits set.
	for v := pagetable.VPN(0); v < 8; v++ {
		f.mapPage(v, false, byte(v))
	}
	f.run(func(p *sim.Proc) {
		// The first pass may only strip accessed bits (second chance);
		// subsequent passes evict.
		for i := 0; f.pool.FreeCount() < cfg.HighWater && i < 100; i++ {
			f.mgr.reclaimStep(p, 0)
		}
	})
	if f.pool.FreeCount() != cfg.HighWater {
		t.Fatalf("free = %d", f.pool.FreeCount())
	}
	// Evicted pages must be Remote now.
	evicted := 0
	for v := pagetable.VPN(0); v < 8; v++ {
		if f.tbl.Lookup(v).Tag() == pagetable.TagRemote {
			evicted++
		}
	}
	if evicted != cfg.HighWater {
		t.Fatalf("evicted = %d", evicted)
	}
}

func TestClockGivesSecondChance(t *testing.T) {
	cfg := DefaultConfig(8)
	f := newFixture(t, 8, 8, cfg)
	f.mapPage(0, false, 1) // accessed (mapPage sets BitAccessed)
	f.mapPage(1, false, 2)
	// Clear page 1's accessed bit so it is the eviction candidate even
	// though it is younger.
	f.tbl.Set(1, f.tbl.Lookup(1)&^pagetable.BitAccessed)
	f.run(func(p *sim.Proc) {
		if !f.mgr.reclaimStep(p, 0) {
			t.Error("no eviction")
		}
	})
	if f.tbl.Lookup(1).Tag() != pagetable.TagRemote {
		t.Fatal("clock did not evict the unaccessed page")
	}
	if f.tbl.Lookup(0).Tag() != pagetable.TagLocal {
		t.Fatal("accessed page evicted without second chance")
	}
	if f.tbl.Lookup(0).Accessed() {
		t.Fatal("second chance must clear the accessed bit")
	}
}

func TestReclaimerSyncWritebackWhenAllDirty(t *testing.T) {
	cfg := DefaultConfig(4)
	f := newFixture(t, 4, 8, cfg)
	for v := pagetable.VPN(0); v < 4; v++ {
		f.mapPage(v, true, byte(0x40+v))
		f.tbl.Set(v, f.tbl.Lookup(v)&^pagetable.BitAccessed)
	}
	f.run(func(p *sim.Proc) {
		if !f.mgr.reclaimStep(p, 0) {
			t.Error("reclaimer failed with all-dirty pool")
		}
	})
	if f.mgr.SyncWrites.N != 1 {
		t.Fatalf("sync writes = %d", f.mgr.SyncWrites.N)
	}
	// Victim content must have reached the memory node before eviction.
	got := make([]byte, 1)
	f.node.ReadAt(f.base+0*pagetable.PageSize, got)
	if got[0] != 0x40 {
		t.Fatalf("evicted dirty data lost: %x", got[0])
	}
}

func TestEvictionPreservesData(t *testing.T) {
	cfg := DefaultConfig(4)
	f := newFixture(t, 4, 8, cfg)
	id := f.mapPage(2, true, 0x77)
	_ = id
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0) // write back
		f.tbl.Set(2, f.tbl.Lookup(2)&^pagetable.BitAccessed)
		if !f.mgr.reclaimStep(p, 0) {
			t.Error("no eviction")
		}
	})
	got := make([]byte, pagetable.PageSize)
	f.node.ReadAt(f.base+2*pagetable.PageSize, got)
	for _, b := range got {
		if b != 0x77 {
			t.Fatal("page content lost across clean+evict")
		}
	}
	if f.pool.FreeCount() != 4 {
		t.Fatal("frame not freed")
	}
}

// staticGuide reports fixed live chunks for every page.
type staticGuide struct{ chunks []Chunk }

func (g staticGuide) LiveChunks(pagetable.VPN) ([]Chunk, bool) { return g.chunks, true }

func TestGuidedCleaningWritesOnlyLiveChunks(t *testing.T) {
	cfg := DefaultConfig(4)
	f := newFixture(t, 4, 8, cfg)
	f.mgr.Guide = staticGuide{chunks: []Chunk{{Off: 0, Len: 128}, {Off: 1024, Len: 256}}}
	f.mapPage(0, true, 0xee)
	f.run(func(p *sim.Proc) { f.mgr.cleanPass(p, 0) })
	if f.link.TxBytes.N != 128+256 {
		t.Fatalf("tx bytes = %d, want 384 (live chunks only)", f.link.TxBytes.N)
	}
	if f.mgr.VectorSaves.N != pagetable.PageSize-384 {
		t.Fatalf("vector saves = %d", f.mgr.VectorSaves.N)
	}
}

func TestGuidedEvictionProducesActionPTE(t *testing.T) {
	cfg := DefaultConfig(4)
	f := newFixture(t, 4, 8, cfg)
	f.mgr.Guide = staticGuide{chunks: []Chunk{{Off: 64, Len: 64}}}
	f.mapPage(5, true, 0xaa)
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0)
		f.tbl.Set(5, f.tbl.Lookup(5)&^pagetable.BitAccessed)
		if !f.mgr.reclaimStep(p, 0) {
			t.Error("no eviction")
		}
	})
	pte := f.tbl.Lookup(5)
	if pte.Tag() != pagetable.TagAction {
		t.Fatalf("PTE = %v, want action", pte)
	}
	chunks := f.mgr.Vector(pte.Payload())
	if len(chunks) != 1 || chunks[0].Off != 64 || chunks[0].Len != 64 {
		t.Fatalf("chunks = %v", chunks)
	}
}

func TestVectorSlotRecycling(t *testing.T) {
	m := New(dram.NewPool(1), pagetable.New(), DefaultConfig(1))
	a := m.storeVector([]Chunk{{0, 1}})
	b := m.storeVector([]Chunk{{1, 1}})
	m.Vector(a)
	c := m.storeVector([]Chunk{{2, 2}})
	if c != a {
		t.Fatalf("slot not recycled: %d vs %d", c, a)
	}
	if got := m.Vector(c); got[0].Off != 2 {
		t.Fatal("recycled slot has stale chunks")
	}
	_ = b
}

func TestVectorDoubleTakePanics(t *testing.T) {
	m := New(dram.NewPool(1), pagetable.New(), DefaultConfig(1))
	idx := m.storeVector([]Chunk{{0, 8}})
	m.Vector(idx)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Vector(idx)
}

func TestUsableVectorRules(t *testing.T) {
	cases := []struct {
		chunks []Chunk
		want   bool
	}{
		{nil, false},
		{[]Chunk{{0, 64}}, true},
		{[]Chunk{{0, 64}, {128, 64}, {512, 64}}, true},
		{[]Chunk{{0, 64}, {128, 64}, {512, 64}, {1024, 64}}, false}, // >3 segs
		{[]Chunk{{0, 4096}}, false},                                 // whole page
		{[]Chunk{{4000, 200}}, false},                               // overflows page
		{[]Chunk{{0, 0}}, false},                                    // empty chunk
	}
	for i, c := range cases {
		if got := usable(c.chunks); got != c.want {
			t.Errorf("case %d: usable = %t, want %t", i, got, c.want)
		}
	}
}

func TestAllocFrameWakesReclaimerAndWaits(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.LowWater, cfg.HighWater = 1, 2
	f := newFixture(t, 4, 16, cfg)
	f.mgr.Start(f.eng)
	var got []dram.FrameID
	f.run(func(p *sim.Proc) {
		// Map 4 pages (exhausts the pool), then allocate more: the
		// reclaimer must evict to satisfy us.
		for v := pagetable.VPN(0); v < 4; v++ {
			f.mapPage(v, false, 0)
			f.tbl.Set(v, f.tbl.Lookup(v)&^pagetable.BitAccessed)
		}
		for i := 0; i < 2; i++ {
			id := f.mgr.AllocFrame(p)
			got = append(got, id)
		}
	})
	if len(got) != 2 {
		t.Fatal("AllocFrame did not complete")
	}
	if f.mgr.Evicted.N == 0 {
		t.Fatal("reclaimer never ran")
	}
}
