package mmu

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dilos/internal/dram"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// demandZero maps any faulted page to a fresh zero frame.
type demandZero struct {
	pool     *dram.Pool
	writable bool
	faults   int
}

func (h *demandZero) HandleFault(c *Core, vpn pagetable.VPN, write bool) {
	h.faults++
	c.Proc.Advance(c.Costs.Exception)
	pte := c.Table.Lookup(vpn)
	if pte.Tag() == pagetable.TagLocal {
		// write fault on a read-only mapping: upgrade.
		c.Table.Set(vpn, pagetable.Local(pte.Frame(), true))
		c.Table.BumpGen()
		return
	}
	id, ok := h.pool.Alloc()
	if !ok {
		panic("test pool exhausted")
	}
	c.Table.Set(vpn, pagetable.Local(uint64(id), h.writable))
}

func newTestCore(frames int, writable bool) (*Core, *demandZero, *sim.Engine, *sim.Proc) {
	eng := sim.New()
	pool := dram.NewPool(frames)
	tbl := pagetable.New()
	h := &demandZero{pool: pool, writable: writable}
	var core *Core
	var proc *sim.Proc
	eng.Go("core", func(p *sim.Proc) { proc = p; p.Sleep(0) })
	eng.Run() // materialize the proc at t=0
	core = NewCore(proc, tbl, pool, h)
	return core, h, eng, proc
}

// run executes fn as the core's process.
func run(eng *sim.Engine, fn func()) {
	eng.Go("body", func(p *sim.Proc) { fn() })
	eng.Run()
}

func TestLoadStoreRoundTrip(t *testing.T) {
	core, h, eng, _ := newTestCore(16, true)
	run(eng, func() {
		want := []byte("hello, disaggregated world")
		core.Store(100, want)
		got := make([]byte, len(want))
		core.Load(100, got)
		if !bytes.Equal(got, want) {
			t.Errorf("got %q", got)
		}
	})
	if h.faults != 1 {
		t.Fatalf("faults = %d, want 1", h.faults)
	}
}

func TestCrossPageAccess(t *testing.T) {
	core, h, eng, _ := newTestCore(16, true)
	run(eng, func() {
		addr := uint64(pagetable.PageSize - 3)
		want := []byte{1, 2, 3, 4, 5, 6}
		core.Store(addr, want)
		got := make([]byte, 6)
		core.Load(addr, got)
		if !bytes.Equal(got, want) {
			t.Errorf("got %v", got)
		}
	})
	if h.faults != 2 {
		t.Fatalf("faults = %d, want 2 (two pages)", h.faults)
	}
}

func TestWordAccessors(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.StoreU64(64, 0xdeadbeefcafebabe)
		if core.LoadU64(64) != 0xdeadbeefcafebabe {
			t.Error("u64 round trip")
		}
		core.StoreU32(128, 0x12345678)
		if core.LoadU32(128) != 0x12345678 {
			t.Error("u32 round trip")
		}
		core.StoreU8(200, 0x7f)
		if core.LoadU8(200) != 0x7f {
			t.Error("u8 round trip")
		}
		// Endianness agrees with Load/Store byte order.
		var b [8]byte
		core.Load(64, b[:])
		if b[0] != 0xbe || b[7] != 0xde {
			t.Errorf("little-endian layout wrong: %x", b)
		}
	})
}

func TestWordCrossingPagePanics(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		core.LoadU64(uint64(pagetable.PageSize) - 4)
	})
}

func TestTLBHitSkipsWalk(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.StoreU8(0, 1)
		misses := core.TLBMisses.N
		for i := 0; i < 100; i++ {
			core.LoadU8(uint64(i % 64))
		}
		if core.TLBMisses.N != misses {
			t.Errorf("TLB missed %d times on a hot page", core.TLBMisses.N-misses)
		}
	})
}

func TestGenerationBumpInvalidatesTLB(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.StoreU8(0, 1)
		misses := core.TLBMisses.N
		core.Table.BumpGen()
		core.LoadU8(0)
		if core.TLBMisses.N != misses+1 {
			t.Error("stale TLB entry used after shootdown")
		}
	})
}

func TestAccessedAndDirtyBits(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.LoadU8(0)
		pte := core.Table.Lookup(0)
		if !pte.Accessed() || pte.Dirty() {
			t.Errorf("after load: %v", pte)
		}
		core.StoreU8(0, 9)
		pte = core.Table.Lookup(0)
		if !pte.Dirty() {
			t.Errorf("after store: %v", pte)
		}
	})
}

func TestDirtyBitSetThroughTLB(t *testing.T) {
	// A store after a load-filled TLB entry must still set the dirty bit.
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.LoadU8(0) // fills TLB without dirtyOK
		core.StoreU8(0, 1)
		if !core.Table.Lookup(0).Dirty() {
			t.Error("dirty bit lost on TLB-hit store")
		}
		// After the cleaner clears dirty + shootdown, a store must re-set it.
		pte := core.Table.Lookup(0)
		core.Table.Set(0, pte&^pagetable.BitDirty)
		core.Table.BumpGen()
		core.StoreU8(0, 2)
		if !core.Table.Lookup(0).Dirty() {
			t.Error("dirty bit not re-set after clean")
		}
	})
}

func TestWriteFaultOnReadOnly(t *testing.T) {
	core, h, eng, _ := newTestCore(4, false)
	run(eng, func() {
		core.LoadU8(0) // maps read-only
		if h.faults != 1 {
			t.Fatalf("faults = %d", h.faults)
		}
		core.StoreU8(0, 1) // write fault → upgrade
		if h.faults != 2 {
			t.Errorf("faults = %d, want 2", h.faults)
		}
		if !core.Table.Lookup(0).Writable() {
			t.Error("mapping not upgraded")
		}
	})
}

func TestExceptionCostCharged(t *testing.T) {
	core, _, eng, proc := newTestCore(4, true)
	run(eng, func() {
		before := proc.Now()
		core.LoadU8(0)
		if proc.Now()-before < core.Costs.Exception {
			t.Error("fault did not charge the exception cost")
		}
	})
}

func TestUnhandledFaultPanics(t *testing.T) {
	eng := sim.New()
	pool := dram.NewPool(2)
	var proc *sim.Proc
	eng.Go("core", func(p *sim.Proc) { proc = p })
	eng.Run()
	core := NewCore(proc, pagetable.New(), pool, nil)
	eng.Go("body", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		core.LoadU8(0)
	})
	eng.Run()
}

// Property: the simulated memory behaves like a flat byte array under
// arbitrary read/write sequences (random offsets/lengths within 16 pages).
func TestQuickMemorySemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		core, _, eng, _ := newTestCore(16, true)
		const size = 16 * pagetable.PageSize
		ref := make([]byte, size)
		ok := true
		run(eng, func() {
			for i := 0; i < 200; i++ {
				off := rng.Intn(size - 256)
				n := rng.Intn(256) + 1
				if rng.Intn(2) == 0 {
					buf := make([]byte, n)
					rng.Read(buf)
					core.Store(uint64(off), buf)
					copy(ref[off:], buf)
				} else {
					got := make([]byte, n)
					core.Load(uint64(off), got)
					if !bytes.Equal(got, ref[off:off+n]) {
						ok = false
						return
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTLBDirectMappedCollision(t *testing.T) {
	// Two pages whose VPNs collide in the direct-mapped TLB (same index)
	// must evict each other, not mix translations.
	core, _, eng, _ := newTestCore(8, true)
	run(eng, func() {
		a := uint64(0)                            // vpn 0
		b := uint64(tlbSize * pagetable.PageSize) // vpn tlbSize: same slot
		core.StoreU8(a, 1)
		core.StoreU8(b, 2)
		m0 := core.TLBMisses.N
		core.LoadU8(a) // must re-walk: b displaced a
		if core.TLBMisses.N != m0+1 {
			t.Error("colliding entry did not displace")
		}
		if core.LoadU8(a) != 1 || core.LoadU8(b) != 2 {
			t.Error("collision mixed up translations")
		}
	})
}

func TestFlushTLB(t *testing.T) {
	core, _, eng, _ := newTestCore(4, true)
	run(eng, func() {
		core.StoreU8(0, 1)
		m0 := core.TLBMisses.N
		core.Table.BumpGen() // a shootdown invalidates every cached translation
		core.LoadU8(0)
		if core.TLBMisses.N != m0+1 {
			t.Error("flush did not invalidate")
		}
	})
}
