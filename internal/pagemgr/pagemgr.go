// Package pagemgr is DiLOS' page manager (§4.4). It owns the local frame
// pool and hides reclamation latency inside the fetch window of page faults
// by doing all of it in the background:
//
//   - the *allocator* hands the fault handler a free frame in O(1) and, by
//     eagerly keeping a free watermark, (almost) never blocks;
//   - the *cleaner* daemon periodically scans the LRU list for dirty pages,
//     writes them back to the memory node on its own queue pair, and clears
//     their dirty bits;
//   - the *reclaimer* daemon runs the clock algorithm over the LRU list and
//     evicts the least-recently-used *clean* pages when free frames fall
//     below the low watermark.
//
// Guided paging (§4.4) plugs in through EvictionGuide: the cleaner asks the
// guide for a page's live chunks (from the user allocator's per-page
// bitmaps), writes back only those with a vectored RDMA request, and logs
// the vector; the reclaimer then evicts the page to an Action PTE holding
// the vector-log index, so the eventual re-fetch also moves only live bytes.
package pagemgr

import (
	"fmt"

	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// Chunk is a live byte range within a page (offsets relative to the page).
type Chunk struct {
	Off uint32
	Len uint32
}

// EvictionGuide supplies allocator semantics for guided paging: the live
// chunks of a page. ok=false means "no information — move the whole page".
type EvictionGuide interface {
	LiveChunks(vpn pagetable.VPN) (chunks []Chunk, ok bool)
}

// MaxVectorSegs caps guided-paging vectors: the paper measured a steep
// vectored-RDMA slowdown past three segments, so guides merge or fall back
// beyond it (§6.3).
const MaxVectorSegs = 3

// Config tunes the page manager.
type Config struct {
	LowWater      int      // wake the reclaimer below this many free frames
	HighWater     int      // reclaim until this many frames are free
	CleanerPeriod sim.Time // cleaner scan interval
	CleanerBatch  int      // max pages written back per cleaner pass
	ScanCost      sim.Time // CPU cost per frame examined by a daemon
	UnmapCost     sim.Time // CPU cost of one unmap + shootdown
	TagCAS        sim.Time // CPU cost of one narrow PTE tag transition (sharded mode only; 0 = uncharged)
}

// DefaultConfig sizes watermarks for a pool of `frames` frames.
func DefaultConfig(frames int) Config {
	low := frames / 16
	if low < 16 {
		low = 16
	}
	return Config{
		LowWater:      low,
		HighWater:     low * 3,
		CleanerPeriod: 20 * sim.Microsecond,
		CleanerBatch:  128,
		ScanCost:      30 * sim.Nanosecond,
		UnmapCost:     100 * sim.Nanosecond,
	}
}

// Target names a page's remote slot: the region offset on its memory node
// and the queue pairs that reach that node. With a single memory node all
// pages share the same queue pairs; with sharding (the §5.1 extension) the
// system hands back per-node queues. Replicas, when present, are further
// slots every write-back must also reach (the fault-tolerance extension);
// reads always use the head slot.
type Target struct {
	Off       uint64
	CleanQP   *fabric.QP
	ReclaimQP *fabric.QP
	Replicas  []Target
}

// Manager is the computing node's page manager: the frame pool's
// allocator, its clock/dirty state, and (after Start) the cleaner and
// reclaimer daemons that sweep them.
type Manager struct {
	Pool  *dram.Pool
	Table *pagetable.Table
	Cfg   Config

	// RemoteOf maps a virtual page to its remote slot.
	RemoteOf func(pagetable.VPN) (Target, bool)

	// Guide, when non-nil, enables guided paging.
	Guide EvictionGuide

	// Batch decides when a write-back's doorbell rings, and nothing else:
	// off (the paper's calibrated per-op path), every page is written as
	// the sweep reaches it, one solo write per replica; on, the sweep's
	// pages are posted at its end through one doorbell per queue pair
	// (fabric.QP.Submit), contiguous remote offsets coalesced into
	// vectored writes. The cleaner, the reclaimer's emergency clean and
	// application-directed page-out share the one write-back path
	// (WriteBack) either way.
	Batch bool

	// Shards is the number of per-core LRU/clock shards this manager
	// sweeps (0 or 1 = the legacy single-list layout; must match the
	// pool's SetShards). With n > 1 Start runs one cleaner/reclaimer pair
	// per shard and each pair touches only its own list and scratch.
	Shards int

	// Wide, when set, is the modeled coarse page-manager lock: daemons
	// hold it across a whole sweep (including the pacing wait) and the
	// fault handler acquires it around every PTE transition. It exists so
	// the scaling experiments can measure what the shared-structure
	// baseline costs; production mode leaves it nil.
	Wide *sim.Lock

	needReclaim sim.Waiter // reclaimers park here while the pool is above high water
	freed       sim.Waiter // allocators park here when the pool is empty

	// Per-shard, per-daemon write-back passes, reused across sweeps (the
	// cleaner and the reclaimer can interleave across yields — and shards
	// across each other — so none may share). Index 0 serves legacy mode.
	cleanScs   []WriteBack
	reclaimScs []WriteBack

	// vectors is the action-PTE payload log (guided paging). A frame's
	// last-cleaned vector index lives on the frame itself
	// (dram.Frame.VecIdx); eviction transfers the slot into an Action PTE
	// payload and the fault handler's Vector call releases it.
	vectors  []vecEntry
	freeVecs []uint64

	Cleaned     stats.Counter // pages written back by the cleaner
	Evicted     stats.Counter // pages evicted by the reclaimer
	SyncWrites  stats.Counter // emergency synchronous write-backs
	AllocWaits  stats.Counter // allocations that had to wait for a free frame
	VectorSaves stats.Counter // bytes saved by guided paging write-backs
	WriteFails  stats.Counter // write-backs left dirty because a replica write failed
	Steals      stats.Counter // evictions taken from a neighbour shard's list

	// OnSteal, when set, is called after a sharded reclaimer evicts from a
	// neighbour's list (thief = the daemon's home shard, victim = the shard
	// it raided). Core wires it to the control-plane journal.
	OnSteal func(now sim.Time, thief, victim int)

	// Gauges for the telemetry sampler: free-list depth vs the (constant)
	// watermarks, and the dirty set the last cleaner sweep encountered.
	FreeG      stats.Gauge
	DirtyG     stats.Gauge
	LowWaterG  stats.Gauge
	HighWaterG stats.Gauge

	// Tel, when set, records one span per cleaner pass that wrote pages
	// back (on CleanTrack, Arg = pages cleaned) and one per reclaimer
	// eviction step (on ReclaimTrack). Wired by the owning system. In
	// sharded mode CleanTracks/ReclaimTracks carry one track per shard
	// (clean/shard0, reclaim/shard1, ...) instead.
	Tel           *telemetry.Recorder
	CleanTrack    int
	ReclaimTrack  int
	CleanTracks   []int
	ReclaimTracks []int
}

func (m *Manager) cleanTrackFor(shard int) int {
	if shard < len(m.CleanTracks) {
		return m.CleanTracks[shard]
	}
	return m.CleanTrack
}

func (m *Manager) reclaimTrackFor(shard int) int {
	if shard < len(m.ReclaimTracks) {
		return m.ReclaimTracks[shard]
	}
	return m.ReclaimTrack
}

// passFor returns a daemon's write-back pass for one shard from its table
// (cleanScs or reclaimScs), growing the table on first use.
func passFor(tab *[]WriteBack, shard int) *WriteBack {
	for len(*tab) <= shard {
		*tab = append(*tab, WriteBack{})
	}
	return &(*tab)[shard]
}

type vecEntry struct {
	chunks []Chunk
	used   bool
}

// New creates a page manager over the pool and table.
func New(pool *dram.Pool, tbl *pagetable.Table, cfg Config) *Manager {
	m := &Manager{
		Pool:        pool,
		Table:       tbl,
		Cfg:         cfg,
		Cleaned:     stats.Counter{Name: "pagemgr.cleaned"},
		Evicted:     stats.Counter{Name: "pagemgr.evicted"},
		SyncWrites:  stats.Counter{Name: "pagemgr.sync_writes"},
		AllocWaits:  stats.Counter{Name: "pagemgr.alloc_waits"},
		VectorSaves: stats.Counter{Name: "pagemgr.vector_saved_bytes"},
		WriteFails:  stats.Counter{Name: "pagemgr.write_fails"},
		Steals:      stats.Counter{Name: "pagemgr.steals"},
		FreeG:       stats.Gauge{Name: "pagemgr.free_frames"},
		DirtyG:      stats.Gauge{Name: "pagemgr.dirty_pages"},
		LowWaterG:   stats.Gauge{Name: "pagemgr.low_water"},
		HighWaterG:  stats.Gauge{Name: "pagemgr.high_water"},
	}
	m.LowWaterG.Set(int64(cfg.LowWater))
	m.HighWaterG.Set(int64(cfg.HighWater))
	return m
}

// RegisterStats folds the manager's counters into its owner's registry.
func (m *Manager) RegisterStats(r *stats.Registry) {
	r.RegisterCounter(&m.Cleaned)
	r.RegisterCounter(&m.Evicted)
	r.RegisterCounter(&m.SyncWrites)
	r.RegisterCounter(&m.AllocWaits)
	r.RegisterCounter(&m.VectorSaves)
	r.RegisterCounter(&m.WriteFails)
	r.RegisterCounter(&m.Steals)
	r.RegisterGauge(&m.FreeG)
	r.RegisterGauge(&m.DirtyG)
	r.RegisterGauge(&m.LowWaterG)
	r.RegisterGauge(&m.HighWaterG)
}

// SampleGauges refreshes the sampler-visible levels from live state.
func (m *Manager) SampleGauges() {
	m.FreeG.Set(int64(m.Pool.FreeCount()))
}

// Start launches the cleaner and reclaimer daemons: the legacy pair
// (pagemgr.cleaner, pagemgr.reclaimer) with Shards <= 1, or one pair per
// shard (pagemgr.cleaner0, pagemgr.reclaimer0, ...) otherwise. RemoteOf
// must already be wired.
func (m *Manager) Start(eng *sim.Engine) {
	if m.RemoteOf == nil {
		panic("pagemgr: Start before wiring RemoteOf")
	}
	if m.Shards <= 1 {
		eng.GoDaemon("pagemgr.cleaner", func(p *sim.Proc) { m.cleanerLoop(p, 0) })
		eng.GoDaemon("pagemgr.reclaimer", func(p *sim.Proc) { m.reclaimerLoop(p, 0) })
		return
	}
	for i := 0; i < m.Shards; i++ {
		shard := i
		eng.GoDaemon(fmt.Sprintf("pagemgr.cleaner%d", shard), func(p *sim.Proc) { m.cleanerLoop(p, shard) })
		eng.GoDaemon(fmt.Sprintf("pagemgr.reclaimer%d", shard), func(p *sim.Proc) { m.reclaimerLoop(p, shard) })
	}
}

// AllocFrame returns a free frame for the fault handler, waking the
// reclaimer at the low watermark and blocking only when the pool is
// completely empty (which eager eviction makes rare — that is the design's
// whole point).
func (m *Manager) AllocFrame(p *sim.Proc) dram.FrameID {
	for {
		if m.Pool.FreeCount() <= m.Cfg.LowWater {
			m.needReclaim.Wake(p.Now())
		}
		if id, ok := m.Pool.Alloc(); ok {
			return id
		}
		m.AllocWaits.Inc()
		m.freed.Wait(p)
	}
}

// TryAllocFrame is the prefetcher's non-blocking allocation: it declines
// when the pool is at the low watermark so prefetching never causes
// reclamation pressure on the demand path.
func (m *Manager) TryAllocFrame(p *sim.Proc) (dram.FrameID, bool) {
	if m.Pool.FreeCount() <= m.Cfg.LowWater {
		m.needReclaim.Wake(p.Now())
		return dram.NoFrame, false
	}
	return m.Pool.Alloc()
}

// InsertLRUFor registers a freshly mapped frame with the faulting core's
// home shard. With sharding off every core folds to shard 0.
func (m *Manager) InsertLRUFor(core int, id dram.FrameID, vpn pagetable.VPN) {
	meta := m.Pool.Meta(id)
	meta.VPN = vpn
	shard := 0
	if m.Shards > 1 {
		shard = core % m.Shards
	}
	m.Pool.LRUPushBackOn(shard, id)
}

// Vector returns the chunks stored under an action payload and releases
// the log slot. The fault handler calls this to build the vectored fetch.
func (m *Manager) Vector(idx uint64) []Chunk {
	e := &m.vectors[idx]
	if !e.used {
		panic(fmt.Sprintf("pagemgr: vector slot %d already released", idx))
	}
	e.used = false
	m.freeVecs = append(m.freeVecs, idx)
	return e.chunks
}

// releaseVector frees one vector-log slot without consuming its chunks
// (the page was re-cleaned or its content superseded before eviction).
func (m *Manager) releaseVector(idx uint64) {
	e := &m.vectors[idx]
	if !e.used {
		panic(fmt.Sprintf("pagemgr: vector slot %d double release", idx))
	}
	e.used = false
	m.freeVecs = append(m.freeVecs, idx)
}

// setFrameVector records `chunks` as the frame's last-cleaned vector in
// the log, releasing any vector the frame already held. guided=false
// clears instead.
func (m *Manager) setFrameVector(f *dram.Frame, chunks []Chunk, guided bool) {
	if f.VecIdx != dram.NoVec {
		m.releaseVector(uint64(f.VecIdx))
		f.VecIdx = dram.NoVec
	}
	if guided {
		f.VecIdx = int32(m.storeVector(chunks))
	}
}

func (m *Manager) storeVector(chunks []Chunk) uint64 {
	if k := len(m.freeVecs); k > 0 {
		idx := m.freeVecs[k-1]
		m.freeVecs = m.freeVecs[:k-1]
		m.vectors[idx] = vecEntry{chunks: chunks, used: true}
		return idx
	}
	m.vectors = append(m.vectors, vecEntry{chunks: chunks, used: true})
	return uint64(len(m.vectors) - 1)
}

// cleanerLoop periodically writes one shard's dirty pages back to the
// memory node and clears their dirty bits, so the reclaimer always finds
// clean victims.
func (m *Manager) cleanerLoop(p *sim.Proc, shard int) {
	for {
		p.Sleep(m.Cfg.CleanerPeriod)
		if m.Wide != nil {
			// The shared-structure baseline: the whole sweep — pacing
			// wait included — sits inside the coarse lock, so every
			// fault handler transition queues behind it.
			m.Wide.Acquire(p)
			m.cleanPass(p, shard)
			m.Wide.Release(p)
			continue
		}
		m.cleanPass(p, shard)
	}
}

// reclaimerLoop keeps the pool's free list above its high watermark by
// evicting the least-recently-used clean pages with the clock algorithm,
// parking while the pool is above water. A sharded reclaimer prefers its
// own shard and steals a victim from a neighbour's list when its own is
// empty of evictable pages, so no core starves the pool.
func (m *Manager) reclaimerLoop(p *sim.Proc, shard int) {
	for {
		if m.Pool.FreeCount() >= m.Cfg.HighWater {
			m.needReclaim.Wait(p)
			continue
		}
		t0 := p.Now()
		victim, ok := m.reclaimStepSteal(p, shard)
		if !ok {
			// Nothing evictable this instant (all pinned/accessed just
			// cleared); yield briefly and retry.
			p.Sleep(5 * sim.Microsecond)
			continue
		}
		if m.Tel != nil {
			m.Tel.Emit(m.reclaimTrackFor(shard), telemetry.Span{
				Kind: telemetry.KindReclaim, Start: t0, End: p.Now(), Arg: 1,
			})
		}
		if victim != shard {
			// Cross-shard steal: mark the thief's track with the victim so
			// the timeline shows who raided whom.
			m.Steals.Inc()
			if m.Tel != nil {
				m.Tel.Emit(m.reclaimTrackFor(shard), telemetry.Span{
					Kind: telemetry.KindSteal, Start: t0, End: p.Now(), Arg: uint64(victim),
				})
			}
			if m.OnSteal != nil {
				m.OnSteal(p.Now(), shard, victim)
			}
		}
	}
}

// reclaimStepSteal tries the daemon's own shard first and then steals
// round-robin from the other shards. Rotation and removal always use a
// frame's *home* shard, so stealing never reorders a neighbour's clock
// beyond the normal second-chance rotation. Returns the shard the victim
// came from, so callers can attribute cross-shard steals.
func (m *Manager) reclaimStepSteal(p *sim.Proc, shard int) (victim int, ok bool) {
	if m.Wide != nil {
		m.Wide.Acquire(p)
		defer m.Wide.Release(p)
	}
	if m.reclaimStep(p, shard) {
		return shard, true
	}
	n := 1
	if m.Shards > 1 {
		n = m.Shards
	}
	for k := 1; k < n; k++ {
		v := (shard + k) % n
		if m.reclaimStep(p, v) {
			return v, true
		}
	}
	return shard, false
}

// cleanPass performs one cleaner scan over one shard's list; exposed for
// tests (shard 0 is the whole list in legacy mode).
func (m *Manager) cleanPass(p *sim.Proc, shard int) {
	t0 := p.Now()
	w := passFor(&m.cleanScs, shard)
	w.reset(m, m.RemoteOf, false, 0, 0)
	m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
		p.Advance(m.Cfg.ScanCost)
		if w.cleaned+len(w.items) >= m.Cfg.CleanerBatch {
			return false
		}
		if f.Pinned || f.VPN == dram.NoVPN {
			return true
		}
		pte := m.Table.Lookup(f.VPN)
		if pte.Tag() != pagetable.TagLocal || !pte.Dirty() {
			return true
		}
		w.Add(p, id, f.VPN, pte)
		return true
	})
	last := w.Flush(p)
	cleaned, dirty := w.cleaned, w.dirty
	m.Cleaned.Add(int64(cleaned))
	if last != nil {
		last.Wait(p) // pace the cleaner to the link, off the demand path
	}
	m.DirtyG.Set(int64(dirty))
	if m.Tel != nil && cleaned > 0 {
		m.Tel.Emit(m.cleanTrackFor(shard), telemetry.Span{
			Kind: telemetry.KindClean, Start: t0, End: p.Now(), Arg: uint64(cleaned),
		})
	}
}

// WriteBack is one sweep's write-back: the cleaner's pass, the
// reclaimer's emergency clean, or an application-directed page-out. The
// sweep hands each dirty page it meets to Add and calls Flush once at the
// end. Every page goes through the same steps — collect its replicated
// target (and, under guided paging, its live chunks), write it to every
// replica, mark it failed if any write failed at issue, then retire it:
// clear its Dirty bit and record its clean vector on the frame, or count
// a write failure and leave it dirty for a later pass, so the reclaimer
// never evicts the only good copy. Manager.Batch decides only when the
// writes go out (see ring).
type WriteBack struct {
	m       *Manager
	target  func(pagetable.VPN) (Target, bool)
	reclaim bool     // write on each slot's ReclaimQP instead of its CleanQP
	issue   sim.Time // CPU charged for the first request behind a doorbell
	wqe     sim.Time // CPU charged for each further request

	items []wbItem // collected and not yet retired
	qps   []*fabric.QP
	segs  []fabric.Seg
	owner []int // parallel to segs: index into items
	reqs  []fabric.Req
	ops   []*fabric.Op

	last    *fabric.Op // the op the caller paces on
	dirty   int        // dirty pages handed to Add
	cleaned int        // pages retired clean
	cold    dram.FrameID
	coldVPN pagetable.VPN
}

// wbItem is one dirty page of a write-back, with everything the issue and
// retire steps need resolved up front (no yields happen between Add and
// the retire, so the snapshot stays valid).
type wbItem struct {
	id     dram.FrameID
	vpn    pagetable.VPN
	pte    pagetable.PTE
	tgt    Target
	chunks []Chunk
	guided bool
	failed bool
}

// NewWriteBack starts a write-back for a caller outside the daemons
// (core.PageOutRange): target resolves each page's slots and the queue
// pairs to write them on (their CleanQPs are used), and issue and wqe are
// the CPU the caller is charged per request.
func (m *Manager) NewWriteBack(target func(pagetable.VPN) (Target, bool), issue, wqe sim.Time) *WriteBack {
	w := &WriteBack{}
	w.reset(m, target, false, issue, wqe)
	return w
}

func (w *WriteBack) reset(m *Manager, target func(pagetable.VPN) (Target, bool), reclaim bool, issue, wqe sim.Time) {
	w.m, w.target, w.reclaim, w.issue, w.wqe = m, target, reclaim, issue, wqe
	w.items = w.items[:0]
	w.last, w.dirty, w.cleaned = nil, 0, 0
	w.cold = dram.NoFrame
}

// Add collects one dirty page (pte is its current, Local and Dirty, PTE).
// A page with no reachable write target counts as a write failure at
// once and stays dirty.
func (w *WriteBack) Add(p *sim.Proc, id dram.FrameID, vpn pagetable.VPN, pte pagetable.PTE) {
	w.dirty++
	tgt, ok := w.target(vpn)
	if !ok {
		w.m.WriteFails.Inc()
		return
	}
	it := wbItem{id: id, vpn: vpn, pte: pte, tgt: tgt}
	if w.m.Guide != nil {
		if c, ok := w.m.Guide.LiveChunks(vpn); ok && usable(c) {
			it.chunks, it.guided = c, true
		}
	}
	w.items = append(w.items, it)
	w.ring(p, false)
}

// Flush issues whatever is still pending, retires it, and bumps the
// table generation once if any Dirty bit was cleared (one shootdown per
// sweep). It returns the op the caller should wait on to pace itself to
// the link, or nil when nothing landed; the caller waits, since the wait
// yields.
func (w *WriteBack) Flush(p *sim.Proc) *fabric.Op {
	w.ring(p, true)
	if w.cleaned > 0 {
		w.m.Table.BumpGen()
	}
	return w.last
}

// ring is where Batch is read. Per-op mode writes each page the moment
// Add collects it, through solo writes; batched mode holds the pages until
// Flush and posts them through one doorbell per queue pair.
func (w *WriteBack) ring(p *sim.Proc, flush bool) {
	switch {
	case !w.m.Batch:
		w.solo(p)
	case flush:
		w.submit(p)
	default:
		return
	}
	w.retire(p)
}

func (w *WriteBack) qpOf(t *Target) *fabric.QP {
	if w.reclaim {
		return t.ReclaimQP
	}
	return t.CleanQP
}

// slot returns a page's n-th write target: 0 is the primary, then the
// replicas in order.
func (it *wbItem) slot(n int) *Target {
	if n == 0 {
		return &it.tgt
	}
	return &it.tgt.Replicas[n-1]
}

// appendSegs appends one target's segments of a page: the whole page, or
// its live chunks under guided paging (counting the bytes left behind).
func (w *WriteBack) appendSegs(segs []fabric.Seg, it *wbItem, t *Target) []fabric.Seg {
	data := w.m.Pool.Bytes(it.id)
	if !it.guided {
		return append(segs, fabric.Seg{Off: t.Off, Buf: data})
	}
	live := 0
	for _, c := range it.chunks {
		segs = append(segs, fabric.Seg{Off: t.Off + uint64(c.Off), Buf: data[c.Off : c.Off+c.Len]})
		live += int(c.Len)
	}
	w.m.VectorSaves.Add(int64(pagetable.PageSize - live))
	return segs
}

// solo writes each pending page to every replica, one request per write.
// Failure is known at issue time. The caller paces on the last written
// page's latest write; a page with a failed write is left out of pacing.
func (w *WriteBack) solo(p *sim.Proc) {
	for i := range w.items {
		it := &w.items[i]
		var last *fabric.Op
		for n := 0; n <= len(it.tgt.Replicas); n++ {
			t := it.slot(n)
			w.segs = w.appendSegs(w.segs[:0], it, t)
			op := w.qpOf(t).WriteV(p.Now(), w.segs)
			p.Advance(w.issue)
			if op.Err != nil {
				it.failed = true
			} else if last == nil || op.CompleteAt > last.CompleteAt {
				last = op
			}
		}
		if !it.failed {
			w.last = last
		}
	}
}

// submit posts every pending page to every replica, one doorbell per
// distinct queue pair (memory node and path) in first-appearance order,
// contiguous remote offsets coalesced into vectored writes. A failed
// request marks every page it carried. The caller paces on the latest
// op that succeeded.
func (w *WriteBack) submit(p *sim.Proc) {
	w.qps = w.qps[:0]
	for i := range w.items {
		it := &w.items[i]
		for n := 0; n <= len(it.tgt.Replicas); n++ {
			w.addQP(w.qpOf(it.slot(n)))
		}
	}
	for _, qp := range w.qps {
		w.segs, w.owner = w.segs[:0], w.owner[:0]
		for i := range w.items {
			it := &w.items[i]
			for n := 0; n <= len(it.tgt.Replicas); n++ {
				if t := it.slot(n); w.qpOf(t) == qp {
					w.segs = w.appendSegs(w.segs, it, t)
					for len(w.owner) < len(w.segs) {
						w.owner = append(w.owner, i)
					}
				}
			}
		}
		w.reqs = qp.Coalesce(fabric.OpWrite, w.segs, w.reqs[:0])
		for r := range w.reqs {
			if r == 0 {
				p.Advance(w.issue)
			} else {
				p.Advance(w.wqe)
			}
		}
		w.ops = qp.Submit(p.Now(), w.reqs, w.ops[:0])
		idx := 0
		for r, req := range w.reqs {
			op := w.ops[r]
			if op.Err != nil {
				for k := 0; k < len(req.Segs); k++ {
					w.items[w.owner[idx+k]].failed = true
				}
			} else if w.last == nil || op.CompleteAt > w.last.CompleteAt {
				w.last = op
			}
			idx += len(req.Segs)
		}
	}
}

func (w *WriteBack) addQP(qp *fabric.QP) {
	for _, q := range w.qps {
		if q == qp {
			return
		}
	}
	w.qps = append(w.qps, qp)
}

// retire clears the Dirty bit of every issued page whose writes all
// landed and sets its frame's clean vector (the live chunks under guided
// paging, none otherwise), remembering the first such page the clock has
// not marked Accessed (the reclaimer's victim). Failed pages count as
// write failures and stay dirty.
func (w *WriteBack) retire(p *sim.Proc) {
	m := w.m
	for i := range w.items {
		it := &w.items[i]
		if it.failed {
			m.WriteFails.Inc()
			continue
		}
		p.Advance(m.Cfg.TagCAS)
		m.Table.Set(it.vpn, it.pte&^pagetable.BitDirty)
		m.setFrameVector(m.Pool.Meta(it.id), it.chunks, it.guided)
		w.cleaned++
		if w.cold == dram.NoFrame && !it.pte.Accessed() {
			w.cold, w.coldVPN = it.id, it.vpn
		}
	}
	w.items = w.items[:0]
}

// usable reports whether a chunk vector is worth a vectored request: within
// the segment cap and actually smaller than the page.
func usable(chunks []Chunk) bool {
	if len(chunks) == 0 || len(chunks) > MaxVectorSegs {
		return false
	}
	total := 0
	for _, c := range chunks {
		if uint64(c.Off)+uint64(c.Len) > pagetable.PageSize || c.Len == 0 {
			return false
		}
		total += int(c.Len)
	}
	return total < pagetable.PageSize
}

// reclaimStep runs the clock hand over one shard's list until one page is
// evicted or the list is exhausted. Returns whether it evicted a page.
func (m *Manager) reclaimStep(p *sim.Proc, shard int) bool {
	n := m.Pool.LRULenOf(shard)
	var firstDirty dram.FrameID = dram.NoFrame
	for i := 0; i < n; i++ {
		id := m.Pool.LRUFrontOf(shard)
		if id == dram.NoFrame {
			return false
		}
		f := m.Pool.Meta(id)
		p.Advance(m.Cfg.ScanCost)
		if f.Pinned {
			m.Pool.LRURotate(id)
			continue
		}
		pte := m.Table.Lookup(f.VPN)
		if pte.Tag() != pagetable.TagLocal {
			panic(fmt.Sprintf("pagemgr: LRU frame %d (vpn %d) not mapped: %v", id, f.VPN, pte))
		}
		if pte.Accessed() {
			// Second chance: clear the bit and rotate. The generation bump
			// below makes future accesses re-walk and re-set it.
			m.Table.Set(f.VPN, pte&^pagetable.BitAccessed)
			m.Table.BumpGen()
			m.Pool.LRURotate(id)
			continue
		}
		if pte.Dirty() {
			if firstDirty == dram.NoFrame {
				firstDirty = id
			}
			m.Pool.LRURotate(id)
			continue
		}
		if m.evict(p, id, f.VPN) {
			return true
		}
		m.Pool.LRURotate(id) // no reachable remote slot right now; skip
		continue
	}
	if firstDirty == dram.NoFrame {
		return false
	}
	// No clean victim in a full sweep: the cleaner is behind. Clean a batch
	// of cold dirty pages ourselves on the reclaim QP (asynchronously,
	// waiting once at the end — still entirely off the fault handler, which
	// is the design's invariant), then evict the first of them.
	w := passFor(&m.reclaimScs, shard)
	w.reset(m, m.RemoteOf, true, 0, 0)
	m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
		if w.cleaned+len(w.items) >= 32 {
			return false
		}
		if f.Pinned || f.VPN == dram.NoVPN {
			return true
		}
		pte := m.Table.Lookup(f.VPN)
		if pte.Tag() != pagetable.TagLocal || !pte.Dirty() {
			return true
		}
		p.Advance(m.Cfg.ScanCost)
		w.Add(p, id, f.VPN, pte)
		return true
	})
	// Read the result before waiting: the wait yields, and another daemon
	// may reuse this pass meanwhile.
	last := w.Flush(p)
	cleaned, victim, victimVPN := w.cleaned, w.cold, w.coldVPN
	if last != nil {
		last.Wait(p)
		m.SyncWrites.Inc()
	}
	if victim != dram.NoFrame {
		// The wait above yielded: the victim may have been touched,
		// re-dirtied, or pinned since we chose it. Re-validate before
		// evicting, or its newest writes would be lost.
		f := m.Pool.Meta(victim)
		pte := m.Table.Lookup(victimVPN)
		if !f.Pinned && f.VPN == victimVPN && pte.Tag() == pagetable.TagLocal &&
			!pte.Dirty() && !pte.Accessed() && m.evict(p, victim, victimVPN) {
			return true
		}
	}
	return cleaned > 0
}

// evict unmaps a clean page and frees its frame. With a logged clean vector
// the page leaves as an Action PTE (guided paging); otherwise as Remote.
// Returns false — leaving the page resident — when the page currently has
// no reachable remote slot (every replica's node is down): evicting it then
// would discard the only copy.
func (m *Manager) evict(p *sim.Proc, id dram.FrameID, vpn pagetable.VPN) bool {
	tgt, ok := m.RemoteOf(vpn)
	if !ok {
		return false
	}
	p.Advance(m.Cfg.UnmapCost)
	p.Advance(m.Cfg.TagCAS)
	f := m.Pool.Meta(id)
	if f.VecIdx != dram.NoVec {
		// The cleaner's logged vector becomes the Action payload; the slot
		// is released when the fault handler consumes it via Vector.
		m.Table.Set(vpn, pagetable.Action(uint64(f.VecIdx)))
		f.VecIdx = dram.NoVec
	} else {
		m.Table.Set(vpn, pagetable.Remote(tgt.Off/pagetable.PageSize))
	}
	m.Table.BumpGen()
	m.Pool.LRURemove(id)
	m.Pool.Free(id)
	m.Evicted.Inc()
	m.freed.Wake(p.Now())
	return true
}

// PageOut evicts one resident page on behalf of an application-directed
// pager (core.PageOutRange): unmap, transition the PTE to Remote (or
// Action when its last write-back was guided), and free the frame. The
// caller must have written dirty content back to every replica first
// (through a WriteBack) — PageOut itself performs no write-back — and must
// pass a page whose frame is unpinned.
// Returns false, leaving the page resident, when no replica is reachable.
func (m *Manager) PageOut(p *sim.Proc, id dram.FrameID, vpn pagetable.VPN) bool {
	return m.evict(p, id, vpn)
}
