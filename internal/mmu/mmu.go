// Package mmu is the reproduction's stand-in for the hardware MMU: every
// workload memory access translates through the unified page table, with a
// per-core software TLB in front of it. Accesses to non-present PTEs raise
// a fault into the owning system's fault handler (DiLOS or Fastswap) —
// exactly the hardware/software boundary of the paper, with the trigger
// mechanism simulated and everything above it real.
//
// TLB coherence uses the classic generation trick: the page table carries a
// generation counter that any unmap/eviction/dirty-downgrade bumps
// (modelling a TLB shootdown); TLB entries cache the generation they were
// filled at and miss when it is stale.
package mmu

import (
	"fmt"

	"dilos/internal/dram"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/stats"
)

// Costs is the CPU-side cost model for translation.
type Costs struct {
	TLBHit    sim.Time // per access that hits the TLB
	Walk      sim.Time // page-table walk on TLB miss
	Exception sim.Time // hardware exception delivery + handler entry (paper §3.1: 0.57 µs)
	CacheLine sim.Time // per 64 B of data touched
}

// DefaultCosts mirrors the testbed's measured constants.
func DefaultCosts() Costs {
	return Costs{
		TLBHit:    1 * sim.Nanosecond,
		Walk:      60 * sim.Nanosecond,
		Exception: 570 * sim.Nanosecond,
		CacheLine: 2 * sim.Nanosecond,
	}
}

// FaultHandler resolves a page fault. On return the PTE for vpn must be
// Local (the MMU retries the translation and faults again otherwise, which
// matches hardware restart semantics).
type FaultHandler interface {
	HandleFault(c *Core, vpn pagetable.VPN, write bool)
}

const (
	tlbSize = 512 // direct-mapped
	lineSz  = 64
)

type tlbEntry struct {
	vpn     pagetable.VPN
	gen     uint64
	frame   dram.FrameID
	valid   bool
	dirtyOK bool // dirty bit already set; stores may skip the walk
}

// Core is one simulated CPU core: a sim process plus its TLB.
type Core struct {
	Proc    *sim.Proc
	Table   *pagetable.Table
	Pool    *dram.Pool
	Handler FaultHandler
	Costs   Costs

	tlb [tlbSize]tlbEntry

	Accesses  stats.Counter
	TLBMisses stats.Counter
	Faults    stats.Counter
}

// NewCore builds a core over a page table and frame pool.
func NewCore(p *sim.Proc, tbl *pagetable.Table, pool *dram.Pool, h FaultHandler) *Core {
	return &Core{
		Proc: p, Table: tbl, Pool: pool, Handler: h,
		Costs:     DefaultCosts(),
		Accesses:  stats.Counter{Name: "mmu.accesses"},
		TLBMisses: stats.Counter{Name: "mmu.tlb_misses"},
		Faults:    stats.Counter{Name: "mmu.faults"},
	}
}

// translate returns the frame backing vpn, faulting as needed.
func (c *Core) translate(vpn pagetable.VPN, write bool) dram.FrameID {
	c.Accesses.Inc()
	e := &c.tlb[uint64(vpn)%tlbSize]
	gen := c.Table.Gen()
	if e.valid && e.vpn == vpn && e.gen == gen && (!write || e.dirtyOK) {
		c.Proc.Advance(c.Costs.TLBHit)
		return e.frame
	}
	c.TLBMisses.Inc()
	for {
		c.Proc.Advance(c.Costs.Walk)
		pte := c.Table.Lookup(vpn)
		if pte.Tag() == pagetable.TagLocal && (!write || pte.Writable()) {
			// Set accessed (and dirty on store) like the hardware walker.
			upd := pte | pagetable.BitAccessed
			if write {
				upd |= pagetable.BitDirty
			}
			if upd != pte {
				c.Table.Set(vpn, upd)
			}
			gen = c.Table.Gen()
			*e = tlbEntry{
				vpn: vpn, gen: gen,
				frame:   dram.FrameID(pte.Frame()),
				valid:   true,
				dirtyOK: write || pte.Dirty(),
			}
			return e.frame
		}
		// Page fault: invoke the system handler. The handler charges the
		// hardware exception cost itself (Costs.Exception), because some
		// fault flavours would not trap at all on real hardware (e.g. a
		// page whose fetch completed but whose mapping the parallel
		// prefetch mapper had not yet installed in this serialized
		// simulation).
		c.Faults.Inc()
		if c.Handler == nil {
			panic(fmt.Sprintf("mmu: unhandled fault at vpn %d (%v)", vpn, pte))
		}
		c.Handler.HandleFault(c, vpn, write)
	}
}

func lines(n int) sim.Time { return sim.Time((n + lineSz - 1) / lineSz) }

// Load copies len(p) bytes from virtual address addr into p.
func (c *Core) Load(addr uint64, p []byte) {
	for len(p) > 0 {
		vpn := pagetable.VPNOf(addr)
		off := addr & (pagetable.PageSize - 1)
		n := pagetable.PageSize - int(off)
		if n > len(p) {
			n = len(p)
		}
		frame := c.translate(vpn, false)
		copy(p[:n], c.Pool.Bytes(frame)[off:])
		c.Proc.Advance(lines(n) * c.Costs.CacheLine)
		p = p[n:]
		addr += uint64(n)
	}
}

// Store copies p to virtual address addr.
func (c *Core) Store(addr uint64, p []byte) {
	for len(p) > 0 {
		vpn := pagetable.VPNOf(addr)
		off := addr & (pagetable.PageSize - 1)
		n := pagetable.PageSize - int(off)
		if n > len(p) {
			n = len(p)
		}
		frame := c.translate(vpn, true)
		copy(c.Pool.Bytes(frame)[off:], p[:n])
		c.Proc.Advance(lines(n) * c.Costs.CacheLine)
		p = p[n:]
		addr += uint64(n)
	}
}

// LoadU64 reads a little-endian uint64 (must not cross a page boundary —
// aligned accesses never do).
func (c *Core) LoadU64(addr uint64) uint64 {
	frame, off := c.word(addr, 8, false)
	b := c.Pool.Bytes(frame)[off:]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// StoreU64 writes a little-endian uint64.
func (c *Core) StoreU64(addr uint64, v uint64) {
	frame, off := c.word(addr, 8, true)
	b := c.Pool.Bytes(frame)[off:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// LoadU32 reads a little-endian uint32.
func (c *Core) LoadU32(addr uint64) uint32 {
	frame, off := c.word(addr, 4, false)
	b := c.Pool.Bytes(frame)[off:]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// StoreU32 writes a little-endian uint32.
func (c *Core) StoreU32(addr uint64, v uint32) {
	frame, off := c.word(addr, 4, true)
	b := c.Pool.Bytes(frame)[off:]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// LoadU8 reads one byte.
func (c *Core) LoadU8(addr uint64) byte {
	frame, off := c.word(addr, 1, false)
	return c.Pool.Bytes(frame)[off]
}

// StoreU8 writes one byte.
func (c *Core) StoreU8(addr uint64, v byte) {
	frame, off := c.word(addr, 1, true)
	c.Pool.Bytes(frame)[off] = v
}

func (c *Core) word(addr uint64, size int, write bool) (dram.FrameID, uint64) {
	off := addr & (pagetable.PageSize - 1)
	if int(off)+size > pagetable.PageSize {
		panic(fmt.Sprintf("mmu: %d-byte access at %#x crosses a page", size, addr))
	}
	frame := c.translate(pagetable.VPNOf(addr), write)
	c.Proc.Advance(c.Costs.CacheLine)
	return frame, off
}
