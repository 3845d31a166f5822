// Application-directed page-out: PageOutRange lets a workload (the
// KV-cache tier, a guide, an allocator) push a cold virtual range back to
// the memory nodes ahead of the reclaimer. It is the eviction mirror of
// SchedulePrefetch and writes dirty pages back through the page manager's
// one write-back path (pagemgr.WriteBack), the cleaner's: snapshot and pin
// with no intervening yield, write back, wait once on the pacing op, then
// evict whatever stayed clean through the wait.
package core

import (
	"dilos/internal/dram"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
)

// poItem is one resident page of the range moving through a PageOutRange
// call.
type poItem struct {
	vpn   pagetable.VPN
	frame dram.FrameID
}

// PageOutRange writes back and evicts every resident, unpinned page in
// [addr, addr+bytes), returning how many pages actually left DRAM. Pages
// that are already remote, in flight, pinned, or re-dirtied during the
// write-back wait are skipped — the call is best-effort by design, since
// the application is only advising that the range is cold. Dirty content
// is written to every replica, on the calling core's cleaner queue pairs,
// before the PTE transitions, so the call never loses writes; a page whose
// write-back fails at issue keeps its dirty bit and stays resident for the
// cleaner to retry. The caller is charged PrefetchIssue per solo write
// (per-op mode), or per doorbell's first request and PrefetchWQE for each
// further one (Config.Batch).
func (s *System) PageOutRange(p *sim.Proc, coreID int, addr uint64, bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	first := pagetable.VPNOf(addr)
	last := pagetable.VPNOf(addr + bytes - 1)

	// Phase 1 — snapshot, pin, and write back. No yield from here until the
	// wait, so the PTE and frame states observed now hold through the
	// write-back's issue, and pinning keeps the cleaner and reclaimer off
	// the frames meanwhile. The fabric snapshots data at issue time, so a
	// write that lands on a page after its Dirty bit is cleared re-sets the
	// bit and phase 2 leaves the page resident — no write is ever dropped.
	wb := s.Mgr.NewWriteBack(func(v pagetable.VPN) (pagemgr.Target, bool) { return s.targetFor(coreID, v) },
		s.Costs.PrefetchIssue, s.Costs.PrefetchWQE)
	var items []poItem
	for v := first; v <= last; v++ {
		pte := s.Table.Lookup(v)
		if pte.Tag() != pagetable.TagLocal {
			continue
		}
		id := dram.FrameID(pte.Frame())
		f := s.Pool.Meta(id)
		if f.Pinned || f.VPN != v {
			continue
		}
		f.Pinned = true
		items = append(items, poItem{vpn: v, frame: id})
		if pte.Dirty() {
			wb.Add(p, id, v, pte)
		}
	}
	if op := wb.Flush(p); op != nil {
		op.Wait(p)
	}

	// Phase 2 — evict (no further yields): unpin everything, then page out
	// each page that is still Local, still on its frame, and still clean
	// (a failed write-back left its page dirty).
	evicted := 0
	for _, it := range items {
		f := s.Pool.Meta(it.frame)
		f.Pinned = false
		pte := s.Table.Lookup(it.vpn)
		if pte.Tag() != pagetable.TagLocal || dram.FrameID(pte.Frame()) != it.frame ||
			pte.Dirty() || f.VPN != it.vpn {
			continue
		}
		if s.Mgr.PageOut(p, it.frame, it.vpn) {
			evicted++
		}
	}
	return evicted
}

// DiscardRange evicts every resident, unpinned page in [addr, addr+bytes)
// WITHOUT writing dirty content back — the MADV_FREE of the simulated
// LibOS. The caller declares the range dead: after the call the pool copy
// is whatever was last written back, and a later fault on the range reads
// that stale content. Callers must therefore rewrite before they read
// (the KV-cache's region recycling does exactly that). Returns the number
// of frames returned to the pool. The whole call runs without a yield.
func (s *System) DiscardRange(p *sim.Proc, addr uint64, bytes uint64) int {
	if bytes == 0 {
		return 0
	}
	first := pagetable.VPNOf(addr)
	last := pagetable.VPNOf(addr + bytes - 1)
	n := 0
	for v := first; v <= last; v++ {
		pte := s.Table.Lookup(v)
		if pte.Tag() != pagetable.TagLocal {
			continue
		}
		id := dram.FrameID(pte.Frame())
		f := s.Pool.Meta(id)
		if f.Pinned || f.VPN != v {
			continue
		}
		if pte.Dirty() {
			p.Advance(s.Mgr.Cfg.TagCAS)
			s.Table.Set(v, pte&^pagetable.BitDirty)
		}
		if s.Mgr.PageOut(p, id, v) {
			n++
		}
	}
	return n
}
