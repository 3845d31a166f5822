package core

import (
	"fmt"

	"dilos/internal/comm"
	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/mmu"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// coreHandler adapts one core's faults onto the system.
type coreHandler struct {
	sys    *System
	coreID int
}

// HandleFault implements mmu.FaultHandler — the DiLOS page fault handler
// (§4.2). The paths are:
//
//	Remote   → flip to Fetching, allocate a frame, issue the RDMA read on
//	           this core's fault QP, and — while the read is in flight —
//	           run the PTE hit tracker, the prefetcher, and the app-aware
//	           guide hook; then map the page. (Major fault.)
//	Fetching → another core or the prefetcher already has the page in
//	           flight: wait on its op instead of fetching twice, and map it
//	           if the owner has not. (Minor fault.)
//	Action   → guided paging: decode the live-chunk vector logged at
//	           eviction and fetch only those chunks with a vectored read.
//	Local    → benign race (resolved while we trapped): return and retry.
func (h *coreHandler) HandleFault(c *mmu.Core, vpn pagetable.VPN, write bool) {
	s := h.sys
	p := c.Proc
	s.catchUpMapper(p, h.coreID)
	pte := s.Table.Entry(vpn)

	switch pte.Tag() {
	case pagetable.TagLocal:
		return // resolved concurrently
	case pagetable.TagRemote:
		p.Advance(c.Costs.Exception)
		s.MajorFaults.Inc()
		// The fetch offset comes from the (failover-aware) slot mapping,
		// not the PTE payload, so a page whose primary node died reads
		// from its next live replica. majorFetch resolves the slot and
		// counts ReplicaFetches when the fetch is actually served by a
		// non-primary copy.
		s.majorFetch(p, h.coreID, vpn, pte, func(qp *fabric.QP, now sim.Time, base uint64, buf []byte) *fabric.Op {
			return qp.Read(now, base, buf)
		}, false)
	case pagetable.TagAction:
		p.Advance(c.Costs.Exception)
		s.MajorFaults.Inc()
		s.GuidedFetches.Inc()
		payload := pte.Payload()
		// The vector-log slot is consumed inside the issue callback, which
		// majorFetch only invokes after winning the PTE transition — a
		// racing faulter must not release the same slot twice. The chunks
		// are cached across retries: the log slot is released exactly once
		// even when the fetch fails over to another replica.
		var chunks []pagemgr.Chunk
		s.majorFetch(p, h.coreID, vpn, pte, func(qp *fabric.QP, now sim.Time, base uint64, buf []byte) *fabric.Op {
			if chunks == nil {
				chunks = s.Mgr.Vector(payload)
			}
			segs := make([]fabric.Seg, len(chunks))
			for i, ch := range chunks {
				segs[i] = fabric.Seg{Off: base + uint64(ch.Off), Buf: buf[ch.Off : ch.Off+ch.Len]}
			}
			return qp.ReadV(now, segs)
		}, true)
	case pagetable.TagFetching:
		slot := pte.Payload()
		sl := &s.slots[slot]
		gen := sl.gen
		op := sl.op
		if op == nil && !sl.demand {
			// Prefetch issue and publish happen without an intervening
			// yield, so a visible prefetch Fetching PTE always has its op
			// installed. (A demand slot may briefly have none while its
			// owner waits out an all-replicas-down window.)
			panic("core: fetching PTE with no op")
		}
		if op != nil && op.Err == nil && op.CompleteAt+s.Costs.Map <= p.Now() {
			// The data already arrived; on real hardware the (parallel)
			// prefetch mapper would have installed the PTE by now — paying
			// the map on its own core — and no fault would have trapped.
			// The serialized simulation just hadn't run the mapper yet:
			// install the mapping without charging the app anything.
			s.LateMapHits.Inc()
			if s.Tel != nil {
				s.Tel.Emit(s.telCore[h.coreID], telemetry.Span{
					Kind: telemetry.KindPrefetchHit, Start: p.Now(), End: p.Now(), Arg: uint64(vpn),
				})
			}
			s.mapFetched(p, h.coreID, slot, gen, false)
			// Keep the readahead window moving: like Linux's PG_readahead
			// marker, a hit on a freshly prefetched page still triggers the
			// next async window (at its normal CPU cost) — otherwise the
			// window only advances on faults and stalls exactly when
			// prefetching is winning.
			s.runPrefetch(p, h.coreID, vpn, false)
			return
		}
		t0 := p.Now()
		p.Advance(c.Costs.Exception)
		s.MinorFaults.Inc()
		// §4.3: the prefetcher and hit tracker run in the fault handler —
		// minor faults included — overlapping whatever wait remains.
		p.Advance(s.Costs.HandlerCheck)
		guideDur, issueDur := s.runPrefetch(p, h.coreID, vpn, false)
		tWait := p.Now()
		wake, mapped := s.awaitInflight(p, h.coreID, slot, gen)
		s.MinorFaultLat.Record(p.Now() - t0)
		if s.Tel != nil {
			var span telemetry.Span
			span.Kind = telemetry.KindMinorFault
			span.Start, span.End = t0, p.Now()
			span.Arg = uint64(vpn)
			span.Stages[telemetry.StageException] = c.Costs.Exception
			span.Stages[telemetry.StageLookup] = s.Costs.HandlerCheck
			span.Stages[telemetry.StageGuide] = guideDur
			span.Stages[telemetry.StageIssue] = issueDur
			if w := p.Now() - tWait - wake - mapped; w > 0 {
				span.Stages[telemetry.StageWait] = w
			}
			span.Stages[telemetry.StageWake] = wake
			span.Stages[telemetry.StageMap] = mapped
			s.Tel.Emit(s.telCore[h.coreID], span)
		}
	default:
		panic(fmt.Sprintf("core: segfault at vpn %d (invalid PTE)", vpn))
	}
}

// awaitInflight is the minor faulter's wait: block on the in-flight op and
// map the page when it lands. Failure handling depends on who owns the
// slot. A demand owner is already running its own recovery (re-issuing and
// republishing sl.op), so the minor faulter just re-checks until the owner
// succeeds or maps. A failed *prefetch* has no recovering owner — whoever
// notices first (this faulter or the prefetch mapper) reverts the PTE to
// Remote so the access retries as a major fault.
//
// The returned durations feed the caller's telemetry span: how long after
// the op's completion this process resumed (wake) and how long the map
// took (mapped) — both zero when someone else mapped the page first.
func (s *System) awaitInflight(p *sim.Proc, coreID int, slot uint64, gen uint64) (wake, mapped sim.Time) {
	for {
		sl := &s.slots[slot]
		if sl.gen != gen || !sl.active {
			return // mapped (and possibly recycled) by someone else
		}
		op := sl.op
		if op == nil {
			p.Sleep(recoverPollInterval) // owner waiting out a dead replica set
			continue
		}
		op.Wait(p)
		if sl.gen != gen || !sl.active {
			return
		}
		if sl.op != op {
			continue // owner re-issued while we waited; track the new op
		}
		if op.Err != nil {
			if sl.demand {
				p.Sleep(recoverPollInterval)
				continue
			}
			s.revertPrefetch(p, slot, gen)
			return
		}
		if w := p.Now() - op.CompleteAt; w > 0 {
			wake = w
		}
		tMap := p.Now()
		s.finishFetch(p, coreID, slot, gen)
		mapped = p.Now() - tMap
		return
	}
}

// recoverPollInterval paces processes waiting on someone else's recovery
// (minor faulters behind a failed demand fetch, fetches stuck with every
// replica down waiting for the health monitor to act).
const recoverPollInterval = 20 * sim.Microsecond

// maxRecoverRounds bounds the fetch recovery loop. Each round walks every
// readable replica with full retry/backoff and then sleeps; thousands of
// fruitless rounds mean the configuration is unrecoverable (e.g. a
// permanent crash of the only replica's node), and a loud panic beats a
// simulation that silently never finishes.
const maxRecoverRounds = 4096

// majorFetch is the §4.2 fast path: one PTE transition, one frame, one
// asynchronous RDMA request, with prefetch + hit tracking + the guide hook
// hidden in the fetch window, then the mapping. The issue callback builds
// the op against a replica base offset so the same shape (whole-page or
// vectored) can be re-issued against another replica on failure.
func (s *System) majorFetch(p *sim.Proc, coreID int, vpn pagetable.VPN, pte *pagetable.PTE,
	issue func(qp *fabric.QP, now sim.Time, base uint64, buf []byte) *fabric.Op, zeroFill bool) {
	t0 := p.Now()
	rec := s.Tel != nil
	var span telemetry.Span
	if rec {
		// The span starts at the hardware exception, which HandleFault
		// already charged before calling in — so the rendered bar covers
		// the same interval FaultLat samples.
		span.Kind = telemetry.KindMajorFault
		span.Start = t0 - s.MMUC.Exception
		span.Arg = uint64(vpn)
		span.Stages[telemetry.StageException] = s.MMUC.Exception
	}
	p.Advance(s.Costs.HandlerCheck)

	expected := pte.Tag()
	var old pagetable.PTE
	if s.shards > 0 {
		// Sharded mode snapshots the full entry: the publish below is a
		// full-value CAS (pagetable.TryTransition), so a migration that
		// re-homed the page — same tag, new payload — fails the swap too.
		old = *pte
	}
	frame := s.Mgr.AllocFrame(p)
	if s.wideLocks {
		// The shared-structure baseline serializes every transition behind
		// the manager-wide lock. Acquired only after AllocFrame: the frame
		// wait can block on the reclaimer, which sweeps holding this lock.
		s.Mgr.Wide.Acquire(p)
	}
	stale := pte.Tag() != expected
	if s.shards > 0 {
		stale = *pte != old
	}
	if stale {
		// AllocFrame (and the wide-lock wait) can yield, and another core
		// may have started fetching — or finished mapping — this page
		// meanwhile. Back off; the retried translation takes the
		// minor/local path against the winner's PTE.
		if s.wideLocks {
			s.Mgr.Wide.Release(p)
		}
		s.Pool.Free(frame)
		return
	}
	s.Pool.Meta(frame).Pinned = true
	p.Advance(s.Costs.FrameAlloc)
	buf := s.Pool.Bytes(frame)
	if zeroFill {
		clear(buf)
		p.Advance(s.Costs.ZeroFill)
	}
	slot := s.newSlot(vpn, frame)
	s.slots[slot].demand = true
	if s.shards > 0 {
		p.Advance(s.Costs.TagCAS)
		if !s.Table.TryTransition(vpn, old, pagetable.Fetching(slot)) {
			// Nothing yields between the staleness check and here.
			panic("core: Fetching publish lost a race without a yield")
		}
	} else {
		*pte = pagetable.Fetching(slot)
	}
	if s.wideLocks {
		s.Mgr.Wide.Release(p)
	}
	if rec {
		span.Stages[telemetry.StageLookup] = p.Now() - t0
	}

	slots, failover, ok := s.space.Resolve(vpn)
	if !ok {
		panic(fmt.Sprintf("core: remote PTE for unmapped vpn %d", vpn))
	}
	var op *fabric.Op
	counted := false
	if len(slots) > 0 {
		if failover {
			s.ReplicaFetches.Inc()
			counted = true
		}
		op = issue(s.Hubs[slots[0].Node].QP(coreID, comm.ModFault), p.Now(), slots[0].Off, buf)
		s.slots[slot].op = op
	}

	// Work hidden in the fetch window (§4.3): hit tracker scan, prefetch
	// issuance, guide hook.
	gen := s.slots[slot].gen
	guideDur, issueDur := s.runPrefetch(p, coreID, vpn, true)
	if len(s.guides) > 0 {
		tGuide := p.Now()
		for _, g := range s.guides {
			g.OnFault(coreID, vpn)
		}
		guideDur += p.Now() - tGuide
	}

	tWait := p.Now()
	if op != nil {
		op.Wait(p)
	}
	if op == nil || op.Err != nil {
		s.recoverFetch(p, coreID, vpn, slot, gen, counted, buf, issue)
	}
	tMap := p.Now()
	if rec {
		span.Stages[telemetry.StageIssue] = issueDur
		span.Stages[telemetry.StageGuide] = guideDur
		span.Stages[telemetry.StageWait] = tMap - tWait
	}
	s.finishFetch(p, coreID, slot, gen)
	lat := p.Now() - t0 + s.MMUC.Exception
	s.FaultLat.Record(lat)
	if s.sloMon != nil {
		// One ring-bucket increment — the plane's entire fault-path cost.
		s.sloMon.Observe(s.sloID, p.Now(), lat)
	}
	if rec {
		span.Stages[telemetry.StageMap] = p.Now() - tMap
		span.End = p.Now()
		s.Tel.Emit(s.telCore[coreID], span)
	}
}

// recoverFetch is the fault handler's failover loop: re-resolve the page
// (the health monitor may have failed its node over since the last
// attempt), walk every readable replica with retry/backoff, and — when no
// replica serves — wait a beat for the monitor and try again. Every
// re-issued op is republished into the inflight slot so minor faulters
// track the live attempt.
func (s *System) recoverFetch(p *sim.Proc, coreID int, vpn pagetable.VPN, slot uint64, gen uint64,
	counted bool, buf []byte, issue func(qp *fabric.QP, now sim.Time, base uint64, buf []byte) *fabric.Op) {
	for round := 0; round < maxRecoverRounds; round++ {
		slots, failover, ok := s.space.Resolve(vpn)
		if !ok {
			panic(fmt.Sprintf("core: recovering fetch for unmapped vpn %d", vpn))
		}
		for i, rsl := range slots {
			rqp := &fabric.ReliableQP{
				QP:  s.Hubs[rsl.Node].QP(coreID, comm.ModFault),
				Pol: fabric.DefaultRetryPolicy(),
				St:  s.FetchRetries,
				Rng: &s.retryRng,
			}
			base := rsl.Off
			err := rqp.Do(p, func(now sim.Time) *fabric.Op {
				op := issue(rqp.QP, now, base, buf)
				if sp := &s.slots[slot]; sp.gen == gen && sp.active {
					sp.op = op
				}
				return op
			})
			if err == nil {
				if (failover || i > 0) && !counted {
					s.ReplicaFetches.Inc()
				}
				return
			}
		}
		// No replica reachable this round; give the health monitor time to
		// declare the node dead (failing it over) or bring one back.
		p.Sleep(recoverPollInterval)
		if sp := &s.slots[slot]; sp.gen != gen || !sp.active {
			return // mapped concurrently off one of our successful attempts
		}
	}
	panic(fmt.Sprintf("core: vpn %d unreachable after %d recovery rounds", vpn, maxRecoverRounds))
}

// finishFetch maps a completed fetch if nobody else has: exactly one of the
// original faulter, a minor faulter, or the prefetch mapper performs the
// mapping. A slot whose op failed is never mapped — its owner (or the
// prefetch revert) is responsible for it.
func (s *System) finishFetch(p *sim.Proc, coreID int, slot uint64, gen uint64) {
	s.mapFetched(p, coreID, slot, gen, true)
}

// mapFetched installs a completed fetch. charge=false is the late-map-hit
// path, where the map cost belongs to the (parallel) mapper core, not the
// process that happened to notice the completed op. coreID homes the frame:
// in sharded mode the page enters the mapping core's LRU shard.
func (s *System) mapFetched(p *sim.Proc, coreID int, slot uint64, gen uint64, charge bool) {
	sl := &s.slots[slot]
	if sl.gen != gen || !sl.active {
		return // already mapped (or slot recycled after mapping)
	}
	if sl.op != nil && sl.op.Err != nil {
		return
	}
	if s.wideLocks {
		// The shared baseline serializes the Local publish behind the
		// manager-wide lock like every other transition. The wait can
		// yield, so the claim below must come after it — and the slot must
		// be re-validated on the other side: someone else may have mapped
		// (or the owner re-issued) while this process queued.
		s.Mgr.Wide.Acquire(p)
		if sl.gen != gen || !sl.active || (sl.op != nil && sl.op.Err != nil) {
			s.Mgr.Wide.Release(p)
			return
		}
	}
	sl.active = false
	if charge {
		p.Advance(s.Costs.Map)
		if s.shards > 0 {
			p.Advance(s.Costs.TagCAS)
		}
	}
	s.Table.Set(sl.vpn, pagetable.Local(uint64(sl.frame), true))
	if s.wideLocks {
		s.Mgr.Wide.Release(p)
	}
	s.Pool.Meta(sl.frame).Pinned = false
	s.Mgr.InsertLRUFor(coreID, sl.frame, sl.vpn)
	s.releaseSlot(slot)
}

// revertPrefetch undoes a failed prefetch: the PTE returns to Remote (its
// stable primary identity), the frame is freed, and the slot is recycled —
// all without a yield, so exactly one of the prefetch mapper and a minor
// faulter performs it. The next access takes a fresh major fault through
// the (failover-aware) fetch path.
func (s *System) revertPrefetch(p *sim.Proc, slot uint64, gen uint64) {
	sl := &s.slots[slot]
	if sl.gen != gen || !sl.active {
		return
	}
	sl.active = false
	prim, ok := s.space.Primary(sl.vpn)
	if !ok {
		panic(fmt.Sprintf("core: reverting prefetch of unmapped vpn %d", sl.vpn))
	}
	s.Table.Set(sl.vpn, pagetable.Remote(prim.Off/PageSize))
	s.Pool.Meta(sl.frame).Pinned = false
	s.Pool.Free(sl.frame)
	s.PrefetchFails.Inc()
	s.releaseSlot(slot)
}

// runPrefetch consults the hit tracker and the prefetch policy, then issues
// asynchronous reads for every proposed page that is still Remote. The
// per-core prefetch mapper daemon maps them into the unified page table as
// they complete — "immediately", with no swap-cache stopover.
//
// The two returned durations split the CPU spent for telemetry: guide is
// the hit-tracker scan plus policy decision, issue is the time posting the
// proposed window onto the fabric.
func (s *System) runPrefetch(p *sim.Proc, coreID int, vpn pagetable.VPN, major bool) (guide, issue sim.Time) {
	if _, isNone := s.Pf.(prefetch.None); isNone {
		return 0, 0
	}
	t0 := p.Now()
	p.Advance(s.Track.Scan(s.Table))
	s.Hist.Note(vpn)
	ctx := prefetch.Context{
		VPN:      vpn,
		Major:    major,
		HitRatio: s.Track.Ratio(),
		History:  s.Hist.Deltas(),
	}
	targets := s.Pf.OnFault(ctx)
	t1 := p.Now()
	s.SchedulePrefetch(p, coreID, targets)
	return t1 - t0, p.Now() - t1
}

// SchedulePrefetch issues page prefetches for every target that is
// currently Remote (others are skipped — already local or in flight). It
// is also the entry point app-aware guides use to request pages (§4.3).
//
// The window is walked in target order with no yield anywhere (Advance
// and Wake never yield), which keeps the Fetching-PTE invariant: every
// published prefetch slot has its op installed before any other process
// can run. Each accepted page gets a pinned frame and a Fetching PTE, and
// its read goes out when issuePrefetch rings the doorbell — at once in
// per-op mode, per batchChunk targets with Config.Batch. All intermediate
// state lives in the core's scratch arena, so a fault in steady state
// allocates nothing beyond the ops themselves.
func (s *System) SchedulePrefetch(p *sim.Proc, coreID int, targets []pagetable.VPN) {
	if len(targets) == 0 {
		return
	}
	sc := &s.pfScratch[coreID]
	sc.noted = sc.noted[:0]
	for i, t := range targets {
		s.issuePrefetch(p, coreID, sc, i%batchChunk == 0)
		p.Advance(s.Costs.PrefetchFilter)
		if s.Table.Lookup(t).Tag() != pagetable.TagRemote {
			continue
		}
		node, remote, ok := s.remoteOf(t)
		if !ok {
			continue
		}
		frame, ok := s.Mgr.TryAllocFrame(p)
		if !ok {
			break // no headroom: prefetching must not force reclamation
		}
		s.Pool.Meta(frame).Pinned = true
		slot := s.newSlot(t, frame)
		s.Table.Set(t, pagetable.Fetching(slot))
		sc.items = append(sc.items, pfIssue{node: node, off: remote, buf: s.Pool.Bytes(frame), slot: slot, gen: s.slots[slot].gen})
		s.Prefetches.Inc()
		sc.noted = append(sc.noted, t)
	}
	s.issuePrefetch(p, coreID, sc, true)
	if len(sc.noted) > 0 {
		s.Track.Note(sc.noted)
		s.pfWaiter[coreID].Wake(p.Now())
	}
}

// batchChunk bounds how many WQEs ride behind one doorbell. Real senders
// (mlx5-style drivers, Leap's window issue) ring the doorbell every few
// WQEs rather than once at the end of a deep window: an unbounded batch
// delays the *first* page of the window by the entire window's CPU build
// time, and the head of a prefetch window is exactly what the next minor
// fault waits on. Eight WQEs keeps the head delay near a single issue
// while still amortizing the doorbell across the tail.
const batchChunk = 8

// issuePrefetch posts the pending prefetch reads and queues them for the
// core's mapper; it is where Config.Batch is read. SchedulePrefetch calls
// it before each target and at the end of the window. Per-op mode issues
// the page accepted last as a solo qp.Read at once. Batched mode waits
// until chunkEnd (every batchChunk targets, and at the end of the window),
// then posts each node's pages through one doorbell.
//
// Each page keeps its own work-queue entry (and so its own completion
// time) on purpose: coalescing prefetch reads into vectored ops would make
// the first page of every vector complete as late as the last, delaying
// its mapping and stretching exactly the minor-fault waits prefetching
// exists to hide. Offset coalescing pays off on write-backs, where only
// the final completion is ever waited on.
func (s *System) issuePrefetch(p *sim.Proc, coreID int, sc *pfScratch, chunkEnd bool) {
	switch {
	case len(sc.items) == 0:
		return
	case !s.Batch:
		for i := range sc.items {
			it := &sc.items[i]
			s.slots[it.slot].op = s.Hubs[it.node].QP(coreID, comm.ModPrefetch).Read(p.Now(), it.off, it.buf)
			p.Advance(s.Costs.PrefetchIssue)
		}
	case chunkEnd:
		s.submitPrefetch(p, coreID, sc)
	default:
		return
	}
	// The mapper queue gets the pages in *target* order, not node-grouped
	// submission order: the app walks pages in target order, and a queue
	// grouped by node would leave the head blocked on one link while pages
	// from another node sit completed but unmapped — every such access
	// would pay the map cost on the app core.
	for i := range sc.items {
		it := &sc.items[i]
		s.pfQueue[coreID] = append(s.pfQueue[coreID], pfItem{slot: it.slot, gen: it.gen})
	}
	sc.items = sc.items[:0]
}

// submitPrefetch posts the pending pages per node, in first-appearance
// order so runs stay deterministic, each node's through one doorbell, and
// installs each resulting op into the slot its page came from.
func (s *System) submitPrefetch(p *sim.Proc, coreID int, sc *pfScratch) {
	if cap(sc.segs) < batchChunk {
		// Reserve the seg arena so per-node appends never reallocate under
		// the Req subslices pointing into it.
		sc.segs = make([]fabric.Seg, 0, batchChunk)
	}
	for done := 0; done < len(sc.items); {
		// Next unsubmitted node (O(items·nodes), tiny factors).
		node := -1
		for _, it := range sc.items {
			if it.node >= 0 {
				node = it.node
				break
			}
		}
		sc.segs, sc.reqs = sc.segs[:0], sc.reqs[:0]
		for i := range sc.items {
			if it := &sc.items[i]; it.node == node {
				sc.segs = append(sc.segs, fabric.Seg{Off: it.off, Buf: it.buf})
				sc.reqs = append(sc.reqs, fabric.Req{Kind: fabric.OpRead, Segs: sc.segs[len(sc.segs)-1:]})
			}
		}
		for r := range sc.reqs {
			if r == 0 {
				p.Advance(s.Costs.PrefetchIssue)
			} else {
				p.Advance(s.Costs.PrefetchWQE)
			}
		}
		sc.ops = s.Hubs[node].QP(coreID, comm.ModPrefetch).Submit(p.Now(), sc.reqs, sc.ops[:0])
		// Requests carry this node's pages in order; hand each op to the
		// slot its page came from.
		r := 0
		for i := range sc.items {
			if it := &sc.items[i]; it.node == node {
				s.slots[it.slot].op = sc.ops[r]
				it.node = -1 // submitted
				done++
				r++
			}
		}
	}
}

// catchUpMapper brings this core's prefetch mapper up to date with the
// present: every queued prefetch whose data has already arrived (op
// complete, map delay elapsed) gets its PTE installed now, charge-free. On
// real hardware the mapper runs on its own core in parallel and would have
// done exactly this by the current instant; the serialized simulation only
// schedules the mapper daemon when some process yields, so without the
// catch-up the app observes stale Fetching PTEs — it pays map costs for
// pages that were ready (late-map hits), and the PTE hit tracker scans
// those pages as in-flight misses, collapsing adaptive prefetch windows
// that were in fact hitting. The whole queue is walked — completions from
// different nodes' links interleave, so ripe ops can sit behind unripe
// ones; unripe (and failed) entries stay queued for the daemon backstop.
func (s *System) catchUpMapper(p *sim.Proc, coreID int) {
	// The daemon holds the queue head while blocked on its completion; that
	// entry is the commonest ripe page, so check it first.
	if held := &s.pfHeld[coreID]; held.valid {
		if sl := &s.slots[held.item.slot]; sl.gen == held.item.gen && sl.active {
			if op := sl.op; op != nil && op.Err == nil && op.CompleteAt+s.Costs.Map <= p.Now() {
				s.mapFetched(p, coreID, held.item.slot, held.item.gen, false)
			}
		}
	}
	q := s.pfQueue[coreID]
	keep := q[:0]
	for _, it := range q {
		sl := &s.slots[it.slot]
		if sl.gen != it.gen || !sl.active {
			continue // already mapped and recycled; drop from the queue
		}
		op := sl.op
		if op != nil && op.Err == nil && op.CompleteAt+s.Costs.Map <= p.Now() {
			s.mapFetched(p, coreID, it.slot, it.gen, false)
			continue
		}
		keep = append(keep, it)
	}
	s.pfQueue[coreID] = keep
}

// pfMapLoop is the per-core prefetch mapper: it waits for each in-flight
// prefetch and maps it into the unified page table the moment it completes
// (unless a minor faulter got there first).
func (s *System) pfMapLoop(p *sim.Proc, coreID int) {
	for {
		if len(s.pfQueue[coreID]) == 0 {
			s.pfWaiter[coreID].Wait(p)
			continue
		}
		item := s.pfQueue[coreID][0]
		s.pfQueue[coreID] = s.pfQueue[coreID][1:]
		sl := &s.slots[item.slot]
		if sl.gen != item.gen {
			continue // already mapped by a minor faulter and recycled
		}
		op := sl.op
		// Publish the held entry so catchUpMapper can install it if its
		// completion ripens while this daemon is waiting to be scheduled.
		s.pfHeld[coreID] = pfHeldItem{item: item, valid: true}
		t0 := p.Now()
		op.Wait(p)
		s.pfHeld[coreID].valid = false
		if sl.gen != item.gen || !sl.active {
			continue
		}
		if op.Err != nil {
			// A failed prefetch is disposable: revert the page to Remote
			// (unless a minor faulter already did) and move on.
			s.revertPrefetch(p, item.slot, item.gen)
			continue
		}
		vpn := sl.vpn // captured before finishFetch recycles the slot
		tMap := p.Now()
		s.finishFetch(p, coreID, item.slot, item.gen)
		if s.Tel != nil {
			var span telemetry.Span
			span.Kind = telemetry.KindPrefetchMap
			span.Start, span.End = t0, p.Now()
			span.Arg = uint64(vpn)
			if w := op.CompleteAt - t0; w > 0 {
				span.Stages[telemetry.StageWait] = w
			}
			wakeFrom := t0
			if op.CompleteAt > wakeFrom {
				wakeFrom = op.CompleteAt
			}
			if w := tMap - wakeFrom; w > 0 {
				span.Stages[telemetry.StageWake] = w
			}
			span.Stages[telemetry.StageMap] = p.Now() - tMap
			s.Tel.Emit(s.telPf[coreID], span)
		}
	}
}

// ReadRemote lets a guide peek at memory-node content (a subpage read on
// the guide's own QP, §4.5) without touching page state. addr..addr+len(buf)
// must lie within one page. For Local pages it reads the frame directly —
// the guide's hook sees a coherent view either way.
func (s *System) ReadRemote(p *sim.Proc, coreID int, addr uint64, buf []byte) error {
	vpn := pagetable.VPNOf(addr)
	off := addr & (PageSize - 1)
	if int(off)+len(buf) > PageSize {
		return fmt.Errorf("core: subpage read at %#x crosses a page", addr)
	}
	pte := s.Table.Lookup(vpn)
	switch pte.Tag() {
	case pagetable.TagLocal:
		copy(buf, s.Pool.Bytes(dram.FrameID(pte.Frame()))[off:])
		p.Advance(sim.Time(len(buf)/64+1) * s.MMUC.CacheLine)
		return nil
	case pagetable.TagRemote, pagetable.TagFetching:
		node, remote, ok := s.remoteOf(vpn)
		if !ok {
			return fmt.Errorf("core: subpage read outside DDC regions: %#x", addr)
		}
		op := s.Hubs[node].QP(coreID, comm.ModGuide).Read(p.Now(), remote+off, buf)
		op.Wait(p)
		return op.Err
	default:
		return fmt.Errorf("core: subpage read of %v page at %#x", pte.Tag(), addr)
	}
}
