package fastswap

import (
	"dilos/internal/mmu"
	"dilos/internal/sim"
)

// FSProc is a workload thread on a Fastswap node; it implements
// space.Space, so the same unmodified workloads run on both systems — the
// compatibility both paging designs share.
type FSProc struct {
	sys    *System
	coreID int
	core   *mmu.Core
}

// Launch runs fn as a workload thread on the given core.
func (s *System) Launch(name string, coreID int, fn func(sp *FSProc)) {
	if coreID < 0 || coreID >= len(s.qps) {
		panic("fastswap: bad core id")
	}
	s.Eng.Go(name, func(p *sim.Proc) {
		fn(s.BindCore(p, coreID))
	})
}

// BindCore attaches an existing sim process to a core.
func (s *System) BindCore(p *sim.Proc, coreID int) *FSProc {
	h := &coreHandler{sys: s, coreID: coreID}
	c := mmu.NewCore(p, s.Table, s.Pool, h)
	c.Costs = s.MMUC
	return &FSProc{sys: s, coreID: coreID, core: c}
}

// Proc returns the sim process.
func (f *FSProc) Proc() *sim.Proc { return f.core.Proc }

// Load implements space.Space.
func (f *FSProc) Load(addr uint64, p []byte) { f.core.Load(addr, p) }

// Store implements space.Space.
func (f *FSProc) Store(addr uint64, p []byte) { f.core.Store(addr, p) }

// LoadU64 implements space.Space.
func (f *FSProc) LoadU64(addr uint64) uint64 { return f.core.LoadU64(addr) }

// StoreU64 implements space.Space.
func (f *FSProc) StoreU64(addr uint64, v uint64) { f.core.StoreU64(addr, v) }

// LoadU32 implements space.Space.
func (f *FSProc) LoadU32(addr uint64) uint32 { return f.core.LoadU32(addr) }

// StoreU32 implements space.Space.
func (f *FSProc) StoreU32(addr uint64, v uint32) { f.core.StoreU32(addr, v) }

// LoadU8 implements space.Space.
func (f *FSProc) LoadU8(addr uint64) byte { return f.core.LoadU8(addr) }

// Malloc implements space.Space.
func (f *FSProc) Malloc(n uint64) uint64 {
	addr, err := f.sys.Malloc(n)
	if err != nil {
		panic(err)
	}
	return addr
}

// Free implements space.Space.
func (f *FSProc) Free(addr, n uint64) { f.sys.Free(addr, n) }

// Compute implements space.Space.
func (f *FSProc) Compute(t sim.Time) { f.core.Proc.Advance(t) }

// Now implements space.Space.
func (f *FSProc) Now() sim.Time { return f.core.Proc.Now() }
