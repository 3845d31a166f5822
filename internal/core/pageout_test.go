package core

import (
	"testing"

	"dilos/internal/dalloc"
	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// poSystem boots a small batched node for the page-out tests.
func poSystem(frames int) (*sim.Engine, *System) {
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames: frames,
		Cores:       2,
		RemoteBytes: 64 << 20,
		Fabric:      fabric.DefaultParams(),
		Batch:       true,
	})
	sys.Start()
	return eng, sys
}

// TestPageOutRangeRoundTrip is the write-loss gauntlet: dirty pages pushed
// out by PageOutRange must leave DRAM entirely and still read back exactly
// after the refault.
func TestPageOutRangeRoundTrip(t *testing.T) {
	const pages = 32
	eng, sys := poSystem(256)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, 0xbeef<<16|i)
		}
		n := sys.PageOutRange(sp.Proc(), sp.CoreID(), base, pages*PageSize)
		if n != pages {
			t.Fatalf("PageOutRange evicted %d of %d dirty resident pages", n, pages)
		}
		for i := uint64(0); i < pages; i++ {
			v := pagetable.VPNOf(base + i*PageSize)
			if tag := sys.Table.Lookup(v).Tag(); tag == pagetable.TagLocal {
				t.Fatalf("page %d still Local after PageOutRange", i)
			}
		}
		before := sys.MajorFaults.N
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != 0xbeef<<16|i {
				t.Fatalf("page %d read back %#x after page-out round trip", i, got)
			}
		}
		if sys.MajorFaults.N-before != pages {
			t.Fatalf("refault took %d major faults, want %d", sys.MajorFaults.N-before, pages)
		}

		// The refault left the range resident and clean; a second call
		// evicts it again with no write-back, and a third finds nothing.
		if n := sys.PageOutRange(sp.Proc(), sp.CoreID(), base, pages*PageSize); n != pages {
			t.Fatalf("second PageOutRange evicted %d clean pages, want %d", n, pages)
		}
		if n := sys.PageOutRange(sp.Proc(), sp.CoreID(), base, pages*PageSize); n != 0 {
			t.Fatalf("PageOutRange evicted %d pages from an all-remote range", n)
		}
	})
	eng.Run()
}

// TestPageOutRangeSkipsPinned: a pinned frame must survive the call,
// still mapped with its content intact. (No dirty-bit assertion — the
// background cleaner may legitimately clean the page at any point.)
func TestPageOutRangeSkipsPinned(t *testing.T) {
	const pages = 8
	eng, sys := poSystem(128)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, i)
		}
		v0 := pagetable.VPNOf(base)
		f0 := dram.FrameID(sys.Table.Lookup(v0).Frame())
		sys.Pool.Meta(f0).Pinned = true
		n := sys.PageOutRange(sp.Proc(), sp.CoreID(), base, pages*PageSize)
		sys.Pool.Meta(f0).Pinned = false
		if n != pages-1 {
			t.Fatalf("evicted %d pages, want %d (pinned page skipped)", n, pages-1)
		}
		if pte := sys.Table.Lookup(v0); pte.Tag() != pagetable.TagLocal {
			t.Fatalf("pinned page lost residency: %v", pte)
		}
		if got := sp.LoadU64(base); got != 0 {
			t.Fatalf("pinned page content %#x, want 0", got)
		}
	})
	eng.Run()
}

// TestPageOutRangeAfterGuidedClean: a page the cleaner wrote back guided
// carries that clean's live-chunk vector. An object allocated on the page
// afterwards is outside the vector, so a PageOutRange that writes the
// page back must replace the vector too, or the page leaves as an Action
// PTE that refetches only the old chunks and the new object reads back 0.
func TestPageOutRangeAfterGuidedClean(t *testing.T) {
	fw := &forwardGuide{}
	eng := sim.New()
	sys := New(eng, Config{
		CacheFrames:   256,
		Cores:         1,
		RemoteBytes:   16 << 20,
		Fabric:        fabric.DefaultParams(),
		EvictionGuide: fw,
	})
	sys.Start()
	sys.Launch("app", 0, func(sp *DDCProc) {
		alloc := dalloc.New(sp)
		fw.g = alloc
		a := alloc.Alloc(64)
		sp.StoreU64(a, 0xaaaa)
		sp.Proc().Sleep(200 * sim.Microsecond) // the cleaner writes the page back guided
		if sys.Mgr.VectorSaves.N == 0 {
			t.Fatal("the cleaner wrote no guided vector")
		}
		b := alloc.Alloc(64)
		if pagetable.VPNOf(a) != pagetable.VPNOf(b) {
			t.Fatalf("objects on different pages: %#x, %#x", a, b)
		}
		sp.StoreU64(b, 0xbbbb)
		if n := sys.PageOutRange(sp.Proc(), sp.CoreID(), b, 64); n != 1 {
			t.Fatalf("PageOutRange evicted %d pages, want 1", n)
		}
		if got := sp.LoadU64(a); got != 0xaaaa {
			t.Errorf("a read back %#x, want 0xaaaa", got)
		}
		if got := sp.LoadU64(b); got != 0xbbbb {
			t.Errorf("b read back %#x, want 0xbbbb", got)
		}
	})
	eng.Run()
}

// TestDiscardRange: discarded frames return to the pool without
// write-back, and a rewrite-then-read over the recycled range sees the
// new bytes — the MADV_FREE contract the KV cache's recycling relies on.
func TestDiscardRange(t *testing.T) {
	const pages = 16
	eng, sys := poSystem(128)
	sys.Launch("app", 0, func(sp *DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, 0xdead)
		}
		freeBefore := sys.Pool.FreeCount()
		if n := sys.DiscardRange(sp.Proc(), base, pages*PageSize); n != pages {
			t.Fatalf("DiscardRange freed %d of %d resident pages", n, pages)
		}
		if got := sys.Pool.FreeCount(); got != freeBefore+pages {
			t.Fatalf("pool has %d free frames, want %d", got, freeBefore+pages)
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*PageSize, 0xf00d+i)
		}
		for i := uint64(0); i < pages; i++ {
			if got := sp.LoadU64(base + i*PageSize); got != 0xf00d+i {
				t.Fatalf("page %d read %#x after rewrite of discarded range", i, got)
			}
		}
	})
	eng.Run()
}
