package fastswap

import (
	"fmt"

	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/mmu"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

type coreHandler struct {
	sys    *System
	coreID int
}

// HandleFault implements mmu.FaultHandler — the Linux/Fastswap swap fault
// path. A fault first consults the swap cache: a hit is a minor fault
// (map the cached page); a miss is a major fault (swap-entry bookkeeping,
// cluster readahead into the swap cache, synchronous wait for the faulted
// page, and possibly direct reclamation).
func (h *coreHandler) HandleFault(c *mmu.Core, vpn pagetable.VPN, write bool) {
	s := h.sys
	p := c.Proc
	t0 := p.Now()
	p.Advance(c.Costs.Exception)
	p.Advance(s.Costs.KernelEntry)

	if e, ok := s.cache[vpn]; ok {
		// Minor fault: page is in the swap cache (readahead put it there
		// without mapping it — the structural cost of the swap-cache
		// design that DiLOS' unified page table removes).
		s.MinorFaults.Inc()
		e.fresh = false
		p.Advance(s.Costs.MinorService)
		tWait := p.Now()
		if e.op != nil {
			op := e.op
			op.Wait(p)
			if s.cache[vpn] != e {
				// Reclaimed (or replaced) while we slept on the IO; the
				// retried translation will fault again and take the major
				// path. (No span: the refault records the real service.)
				s.MinorFaultLat.Record(p.Now() - t0)
				return
			}
			e.op = nil
		}
		s.mapEntry(vpn, e)
		s.MinorFaultLat.Record(p.Now() - t0)
		if s.Tel != nil {
			var span telemetry.Span
			span.Kind = telemetry.KindMinorFault
			span.Start, span.End = t0, p.Now()
			span.Arg = uint64(vpn)
			span.Stages[telemetry.StageException] = c.Costs.Exception
			span.Stages[telemetry.StageLookup] = s.Costs.KernelEntry + s.Costs.MinorService
			span.Stages[telemetry.StageWait] = p.Now() - tWait
			s.Tel.Emit(s.telCore[h.coreID], span)
		}
		return
	}

	// Major fault.
	s.MajorFaults.Inc()
	mgmtStart := p.Now()
	p.Advance(s.Costs.SwapMgmt)

	frame, reclaimDur := s.allocFrame(p, true)
	if e, ok := s.cache[vpn]; ok {
		// allocFrame can yield inside direct reclamation; another core
		// installed this page meanwhile. Free our frame and serve the
		// fault from the winner's entry (Linux resolves the same race
		// under the page lock).
		s.Pool.Free(frame)
		if e.op != nil {
			op := e.op
			op.Wait(p)
			if s.cache[vpn] != e {
				return // and the winner got reclaimed too: refault
			}
			e.op = nil
		}
		s.mapEntry(vpn, e)
		return
	}
	e := &scEntry{frame: frame}
	s.cache[vpn] = e
	remote, ok := s.remoteOf(vpn)
	if !ok {
		panic(fmt.Sprintf("fastswap: segfault at vpn %d", vpn))
	}
	// The swap-management segment is everything since entry except the
	// direct-reclaim time (accounted separately, as Figure 1 does).
	mgmtDur := (p.Now() - mgmtStart) - reclaimDur + s.Costs.KernelEntry
	op := s.qps[h.coreID].Read(p.Now(), remote, s.Pool.Bytes(frame))
	e.op = op

	// Cluster readahead into the swap cache (unmapped!).
	tIssue := p.Now()
	s.readahead(p, h.coreID, vpn)
	issueDur := p.Now() - tIssue

	tFetch := p.Now()
	op.Wait(p)
	e.op = nil

	tMap := p.Now()
	p.Advance(s.Costs.Map)
	s.mapEntry(vpn, e)
	s.FaultLat.Record(p.Now() - t0)
	s.lastFault = vpn
	if s.Tel != nil {
		var span telemetry.Span
		span.Kind = telemetry.KindMajorFault
		span.Start, span.End = t0, p.Now()
		span.Arg = uint64(vpn)
		span.Stages[telemetry.StageException] = c.Costs.Exception
		span.Stages[telemetry.StageLookup] = mgmtDur
		span.Stages[telemetry.StageReclaim] = reclaimDur
		span.Stages[telemetry.StageIssue] = issueDur
		span.Stages[telemetry.StageWait] = tMap - tFetch
		span.Stages[telemetry.StageMap] = p.Now() - tMap
		s.Tel.Emit(s.telCore[h.coreID], span)
	}
}

// mapEntry installs the PTE for a swap-cache entry (the page stays in the
// swap cache — Linux keeps the duplicate until reclaim). When two cores
// fault the same page, the second mapper finds the PTE already mapping the
// entry's frame and keeps its Dirty and Accessed bits: a fresh PTE would
// drop the first core's store, and reclaim would free the page unwritten.
func (s *System) mapEntry(vpn pagetable.VPN, e *scEntry) {
	e.mapped = true
	pte := pagetable.Local(uint64(e.frame), true)
	if old := s.Table.Lookup(vpn); old.Tag() == pagetable.TagLocal && old.Frame() == uint64(e.frame) {
		pte |= old & (pagetable.BitDirty | pagetable.BitAccessed)
	}
	s.Table.Set(vpn, pte)
	meta := s.Pool.Meta(e.frame)
	meta.VPN = vpn
	if !e.onLRU {
		s.Pool.LRUPushBack(e.frame)
		e.onLRU = true
	}
}

// readahead issues the rest of the swap cluster around a major fault —
// into the swap cache only, which is precisely why the next 7 sequential
// accesses will minor-fault.
func (s *System) readahead(p *sim.Proc, coreID int, vpn pagetable.VPN) {
	switch {
	case vpn > s.lastFault:
		s.dir = 1
	case vpn < s.lastFault:
		s.dir = -1
	}
	for k := int64(1); k < int64(s.cluster); k++ {
		next := int64(vpn) + s.dir*k
		if next < 0 {
			break
		}
		nv := pagetable.VPN(next)
		if _, ok := s.cache[nv]; ok {
			continue
		}
		if s.Table.Lookup(nv).Tag() != pagetable.TagRemote {
			continue
		}
		remote, ok := s.remoteOf(nv)
		if !ok {
			continue
		}
		frame, _ := s.allocFrame(p, false)
		if frame == dram.NoFrame {
			break
		}
		e := &scEntry{frame: frame, onLRU: true, fresh: true}
		op := s.qps[coreID].Read(p.Now(), remote, s.Pool.Bytes(frame))
		e.op = op
		s.cache[nv] = e
		s.Pool.Meta(frame).VPN = nv
		s.Pool.LRUPushBack(frame)
		p.Advance(s.Costs.ReadaheadIssue)
	}
}

// allocFrame takes a free frame, entering direct reclamation on the fault
// path when the free list is too low and kswapd has fallen behind, and
// returns the time that took — the Figure 1 "reclamation (direct)"
// segment.
func (s *System) allocFrame(p *sim.Proc, demand bool) (dram.FrameID, sim.Time) {
	if s.Pool.FreeCount() <= s.lowWater {
		s.needKswapd.Wake(p.Now())
	}
	if !demand {
		// Readahead never direct-reclaims. It is curtailed in two cases:
		// under dirty pressure near the watermark (write-back throttling
		// keeps the free list pinned low, so speculative IO must not
		// steal the last frames from demand paging — the Table 2 write
		// collapse), and at a hard floor regardless.
		free := s.Pool.FreeCount()
		if s.dirtyPressure && free <= s.lowWater+s.cluster {
			return dram.NoFrame, 0
		}
		if free <= s.lowWater/2 {
			return dram.NoFrame, 0
		}
		id, ok := s.Pool.Alloc()
		if !ok {
			return dram.NoFrame, 0
		}
		return id, 0
	}
	t0 := p.Now()
	if s.Pool.FreeCount() <= s.directWater {
		s.directReclaim(p)
	}
	for {
		if id, ok := s.Pool.Alloc(); ok {
			return id, p.Now() - t0
		}
		s.directReclaim(p)
	}
}

// directReclaim evicts a couple of pages inline, synchronously writing
// back dirty victims — the cost Table 2's sequential write exposes.
func (s *System) directReclaim(p *sim.Proc) {
	p.Advance(s.Costs.DirectFixed)
	s.DirectRecl.Inc()
	s.reclaimPages(p, 4, true)
}

// kswapdLoop is Fastswap's dedicated reclaim thread: it keeps the free
// list near the high watermark, but (as the paper observes) it cannot
// absorb all reclamation under sustained fault pressure.
func (s *System) kswapdLoop(p *sim.Proc) {
	for {
		if s.Pool.FreeCount() >= s.highWater {
			s.needKswapd.Wait(p)
			continue
		}
		n := s.highWater - s.Pool.FreeCount()
		t0 := p.Now()
		got := s.reclaimPages(p, n, false)
		if got == 0 {
			p.Sleep(5 * sim.Microsecond)
		} else if s.Tel != nil {
			s.Tel.Emit(s.kswapdTrack, telemetry.Span{
				Kind: telemetry.KindReclaim, Start: t0, End: p.Now(), Arg: uint64(got),
			})
		}
		s.KswapdRecl.Inc()
		p.Sleep(s.offloadTick)
	}
}

// reclaimPages evicts up to n cold pages. sync selects the caller's
// write-back behaviour for dirty victims: the direct path waits for the
// RDMA write inline; kswapd overlaps writes and waits once per batch.
func (s *System) reclaimPages(p *sim.Proc, n int, sync bool) int {
	evicted := 0
	sawDirty := false
	scans := s.Pool.LRULen()
	for i := 0; i < scans && evicted < n; i++ {
		id := s.Pool.LRUFront()
		if id == dram.NoFrame {
			break
		}
		p.Advance(s.Costs.ReclaimScan)
		meta := s.Pool.Meta(id)
		vpn := meta.VPN
		e := s.cache[vpn]
		if e != nil && e.op != nil && e.op.Done(p.Now()) {
			e.op = nil // readahead IO finished but the page was never touched
		}
		if e == nil || e.op != nil {
			s.Pool.LRURotate(id) // in-flight IO: skip
			continue
		}
		if e.fresh {
			// A readahead page the stream has not reached yet: give it one
			// pass of protection (Linux keeps these referenced on the
			// inactive list), or the clock would evict the very pages the
			// cluster just paid to fetch.
			e.fresh = false
			s.Pool.LRURotate(id)
			continue
		}
		pte := s.Table.Lookup(vpn)
		if e.mapped && pte.Tag() == pagetable.TagLocal && pte.Accessed() {
			s.Table.Set(vpn, pte&^pagetable.BitAccessed)
			s.Table.BumpGen()
			s.Pool.LRURotate(id)
			continue
		}
		// Victim: issue the dirty write-back (content is snapshotted at
		// issue), then unmap and free — all before any yield, so a
		// concurrent reclaimer cannot race us on this frame.
		remote, ok := s.remoteOf(vpn)
		if !ok {
			panic("fastswap: cached page outside regions")
		}
		var wb *fabric.Op
		if e.mapped && pte.Tag() == pagetable.TagLocal && pte.Dirty() {
			// Swap-out of a dirty page: add_to_swap, rmap walk, pageout.
			sawDirty = true
			p.Advance(s.Costs.PageoutCPU)
			wb = s.wbQP.Write(p.Now(), remote, s.Pool.Bytes(id))
		}
		p.Advance(s.Costs.ReclaimUnmap)
		s.Table.Set(vpn, pagetable.Remote(remote/PageSize))
		s.Table.BumpGen()
		delete(s.cache, vpn)
		s.Pool.LRURemove(id)
		s.Pool.Free(id)
		evicted++
		if wb != nil {
			// Both paths throttle on the write-back (Linux's pageout
			// waits for congested backing stores): the direct path stalls
			// the faulting core, kswapd merely limits its own reclaim
			// rate — which is exactly what starves cluster readahead of
			// frames under sustained write pressure and collapses
			// Fastswap's sequential-write throughput (Table 2).
			wb.Wait(p)
			if sync {
				s.SyncWrites.Inc()
			}
		}
	}
	if evicted > 0 {
		s.dirtyPressure = sawDirty
	}
	return evicted
}
