package pagemgr

import (
	"bytes"
	"testing"

	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// The batched cleaner must be behavior-identical to the per-op cleaner —
// same pages cleaned, same bytes landed — while coalescing contiguous
// remote offsets and ringing one doorbell per queue pair.
func TestCleanPassBatchedCoalescesAndCleans(t *testing.T) {
	const n = 8
	f := newFixture(t, 16, 16, DefaultConfig(16))
	f.mgr.Batch = true
	for v := pagetable.VPN(0); v < n; v++ {
		f.mapPage(v, true, byte(0xa0+v))
	}
	f.run(func(p *sim.Proc) { f.mgr.cleanPass(p, 0) })
	if f.mgr.Cleaned.N != n {
		t.Fatalf("cleaned = %d, want %d", f.mgr.Cleaned.N, n)
	}
	for v := pagetable.VPN(0); v < n; v++ {
		if f.tbl.Lookup(v).Dirty() {
			t.Fatalf("page %d still dirty", v)
		}
		got := make([]byte, pagetable.PageSize)
		f.node.ReadAt(f.base+uint64(v)*pagetable.PageSize, got)
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(0xa0 + v)}, pagetable.PageSize)) {
			t.Fatalf("page %d content wrong after write-back", v)
		}
	}
	if f.link.Batches.N != 1 {
		t.Fatalf("doorbells = %d, want 1 (one per queue pair)", f.link.Batches.N)
	}
	// The fixture's pages are remote-contiguous, so the 8 writes coalesce
	// into ≤3-segment vectors: ceil(8/3) = 3 ops, 5 merged segments.
	if f.link.BatchedOps.N != 3 || f.link.CoalescedSegs.N != 5 {
		t.Fatalf("ops=%d coalesced=%d, want 3/5", f.link.BatchedOps.N, f.link.CoalescedSegs.N)
	}
	if f.link.TxBytes.N != n*pagetable.PageSize {
		t.Fatalf("tx bytes = %d", f.link.TxBytes.N)
	}
}

// A cleaner sweep reuses the manager's write-back pass in both modes:
// re-cleaning the same dirty set must not grow allocations. The bound is
// not zero — each write still allocates its fabric.Op — but it is one per
// op, never a per-page scratch slice. Per-op mode posts one write per page
// (32 ops); batched mode coalesces the contiguous pages into ceil(32/3) =
// 11 vectored ops.
func TestCleanerSweepAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		batched bool
		bound   float64
	}{
		{"per-op", false, 40},
		{"batched", true, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			if avg := cleanerSweepAllocs(t, c.batched, nil); avg > c.bound {
				t.Errorf("cleaner sweep allocates %.1f per pass, want ≤ %.0f", avg, c.bound)
			}
		})
	}
}

// The guided sweep must be as allocation-disciplined as the plain one: the
// vector log recycles slots through freeVecs, so re-cleaning the same dirty
// set — store vector, release on re-clean, store again — must not grow
// allocations per pass, and a guided write reuses the pass's segment
// scratch. This is the guard for the map-free VecIdx scheme (the old
// per-page map rebuilt its entries every sweep) and for per-op guided
// writes, which once allocated their segment vector per page.
func TestCleanerSweepAllocsGuided(t *testing.T) {
	for _, c := range []struct {
		name    string
		batched bool
		bound   float64
	}{
		// Per-op mode writes each page's 2 live chunks as one vectored
		// op: 32 ops a pass. Batched mode coalesces only contiguous
		// segments, and no two chunks here touch: 64 single-segment ops.
		{"per-op", false, 40},
		{"batched", true, 80},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := staticGuide{chunks: []Chunk{{Off: 0, Len: 512}, {Off: 2048, Len: 1024}}}
			if avg := cleanerSweepAllocs(t, c.batched, g); avg > c.bound {
				t.Errorf("guided cleaner sweep allocates %.1f per pass, want ≤ %.0f", avg, c.bound)
			}
		})
	}
}

// cleanerSweepAllocs measures the allocations of one 32-page cleaner pass
// after a warm-up pass has sized the scratch and the vector log.
func cleanerSweepAllocs(t *testing.T, batched bool, guide EvictionGuide) float64 {
	const n = 32
	f := newFixture(t, 64, 64, DefaultConfig(64))
	f.mgr.Batch = batched
	f.mgr.Guide = guide
	var ptes [n]pagetable.PTE
	for v := pagetable.VPN(0); v < n; v++ {
		f.mapPage(v, true, byte(v))
		ptes[v] = f.tbl.Lookup(v)
	}
	var avg float64
	f.run(func(p *sim.Proc) {
		f.mgr.cleanPass(p, 0) // warm up: size the scratch and the vector log
		avg = testing.AllocsPerRun(8, func() {
			for v := pagetable.VPN(0); v < n; v++ {
				f.tbl.Set(v, ptes[v]) // re-dirty
			}
			f.mgr.cleanPass(p, 0)
		})
	})
	if f.mgr.Cleaned.N == 0 {
		t.Fatal("the cleaner cleaned nothing")
	}
	if guide != nil && f.mgr.VectorSaves.N == 0 {
		t.Fatal("guide never engaged — the guard did not cover the guided path")
	}
	t.Logf("%.1f allocs per pass", avg)
	return avg
}
