package core

import (
	"dilos/internal/mmu"
	"dilos/internal/sim"
)

// DDCProc is a workload thread bound to one core of a DiLOS node. It
// implements space.Space: plain loads and stores against disaggregated
// memory, with paging handled transparently underneath — the compatibility
// the paper refuses to trade away.
type DDCProc struct {
	sys    *System
	coreID int
	core   *mmu.Core
}

// CoreID returns the core this thread runs on.
func (d *DDCProc) CoreID() int { return d.coreID }

// Proc returns the sim process.
func (d *DDCProc) Proc() *sim.Proc { return d.core.Proc }

// Load implements space.Space.
func (d *DDCProc) Load(addr uint64, p []byte) { d.core.Load(addr, p) }

// Store implements space.Space.
func (d *DDCProc) Store(addr uint64, p []byte) { d.core.Store(addr, p) }

// LoadU64 implements space.Space.
func (d *DDCProc) LoadU64(addr uint64) uint64 { return d.core.LoadU64(addr) }

// StoreU64 implements space.Space.
func (d *DDCProc) StoreU64(addr uint64, v uint64) { d.core.StoreU64(addr, v) }

// LoadU32 implements space.Space.
func (d *DDCProc) LoadU32(addr uint64) uint32 { return d.core.LoadU32(addr) }

// StoreU32 implements space.Space.
func (d *DDCProc) StoreU32(addr uint64, v uint32) { d.core.StoreU32(addr, v) }

// LoadU8 implements space.Space.
func (d *DDCProc) LoadU8(addr uint64) byte { return d.core.LoadU8(addr) }

// StoreU8 implements space.Space.
func (d *DDCProc) StoreU8(addr uint64, v byte) { d.core.StoreU8(addr, v) }

// Malloc implements space.Space via the DDC allocator (compat.go).
func (d *DDCProc) Malloc(n uint64) uint64 {
	addr, err := d.sys.Malloc(n)
	if err != nil {
		panic(err)
	}
	return addr
}

// Free implements space.Space.
func (d *DDCProc) Free(addr, n uint64) { d.sys.Free(addr, n) }

// Compute implements space.Space.
func (d *DDCProc) Compute(t sim.Time) { d.core.Proc.Advance(t) }

// Now implements space.Space.
func (d *DDCProc) Now() sim.Time { return d.core.Proc.Now() }
