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

	// Batch enables doorbell-batched write-backs: the cleaner sweeps its
	// dirty set first, groups targets by queue pair (one per memory node,
	// replicas included), coalesces contiguous remote offsets into vectored
	// writes, and posts each node's set through a single doorbell
	// (fabric.QP.Submit). The reclaimer's emergency clean does the same on
	// its own queue pair. Off by default: the per-op path is the paper's
	// calibrated baseline.
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

	// Per-shard, per-daemon scratch arenas for batched write-backs (the
	// cleaner and the reclaimer can interleave across yields — and shards
	// across each other — so none may share). Index 0 serves legacy mode.
	cleanScs   []wbScratch
	reclaimScs []wbScratch

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

// cleanScFor returns the cleaner's scratch arena for one shard, growing
// the arena table on first use.
func (m *Manager) cleanScFor(shard int) *wbScratch {
	for len(m.cleanScs) <= shard {
		m.cleanScs = append(m.cleanScs, wbScratch{})
	}
	return &m.cleanScs[shard]
}

func (m *Manager) reclaimScFor(shard int) *wbScratch {
	for len(m.reclaimScs) <= shard {
		m.reclaimScs = append(m.reclaimScs, wbScratch{})
	}
	return &m.reclaimScs[shard]
}

type vecEntry struct {
	chunks []Chunk
	used   bool
}

// wbScratch holds one daemon's reusable buffers for batched write-backs.
type wbScratch struct {
	items []wbItem
	qps   []*fabric.QP
	segs  []fabric.Seg
	owner []int // parallel to segs: index into items
	reqs  []fabric.Req
	ops   []*fabric.Op
}

// wbItem is one dirty page picked up by a batched sweep, with everything
// the flush and retire phases need resolved up front (no yields happen
// between the sweep and the retire, so the snapshot stays valid).
type wbItem struct {
	id     dram.FrameID
	vpn    pagetable.VPN
	pte    pagetable.PTE
	tgt    Target
	chunks []Chunk
	guided bool
	failed bool
}

func qpOf(t *Target, reclaimPath bool) *fabric.QP {
	if reclaimPath {
		return t.ReclaimQP
	}
	return t.CleanQP
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
	if m.Batch {
		m.cleanPassBatched(p, shard)
		return
	}
	t0 := p.Now()
	var lastOp *fabric.Op
	batch, dirty := 0, 0
	m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
		p.Advance(m.Cfg.ScanCost)
		if batch >= m.Cfg.CleanerBatch {
			return false
		}
		if f.Pinned || f.VPN == dram.NoVPN {
			return true
		}
		pte := m.Table.Lookup(f.VPN)
		if pte.Tag() != pagetable.TagLocal || !pte.Dirty() {
			return true
		}
		dirty++
		op, ok := m.writeBack(p, id, f.VPN, false)
		if !ok {
			// A replica write failed at issue (fabric errors are known at
			// issue time) or the page has no reachable write target: leave
			// the dirty bit set so the next pass retries, and never let the
			// reclaimer treat the page as clean.
			m.WriteFails.Inc()
			return true
		}
		lastOp = op
		p.Advance(m.Cfg.TagCAS)
		m.Table.Set(f.VPN, pte&^pagetable.BitDirty)
		m.Cleaned.Inc()
		batch++
		return true
	})
	if batch > 0 {
		m.Table.BumpGen() // one shootdown per pass covers all cleared bits
	}
	if lastOp != nil {
		lastOp.Wait(p) // pace the cleaner to the link, off the demand path
	}
	m.DirtyG.Set(int64(dirty))
	if m.Tel != nil && batch > 0 {
		m.Tel.Emit(m.cleanTrackFor(shard), telemetry.Span{
			Kind: telemetry.KindClean, Start: t0, End: p.Now(), Arg: uint64(batch),
		})
	}
}

// cleanPassBatched is the doorbell-batched cleaner pass: sweep the dirty
// set, flush it per queue pair through single doorbells, then retire —
// clearing the dirty bit only for pages whose every replica write landed.
// Sweep, flush, and retire run without a yield, so the page snapshots
// taken by the sweep stay valid until the bits are cleared.
func (m *Manager) cleanPassBatched(p *sim.Proc, shard int) {
	t0 := p.Now()
	sc := m.cleanScFor(shard)
	sc.items = sc.items[:0]
	m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
		p.Advance(m.Cfg.ScanCost)
		if len(sc.items) >= m.Cfg.CleanerBatch {
			return false
		}
		if f.Pinned || f.VPN == dram.NoVPN {
			return true
		}
		pte := m.Table.Lookup(f.VPN)
		if pte.Tag() != pagetable.TagLocal || !pte.Dirty() {
			return true
		}
		m.collectItem(sc, id, f.VPN, pte)
		return true
	})
	lastOp := m.flushBatch(p, sc, false)
	cleaned := m.retireBatch(p, sc, true)
	if cleaned > 0 {
		m.Table.BumpGen() // one shootdown per pass covers all cleared bits
	}
	if lastOp != nil {
		lastOp.Wait(p) // pace the cleaner to the link, off the demand path
	}
	m.DirtyG.Set(int64(len(sc.items)))
	if m.Tel != nil && cleaned > 0 {
		m.Tel.Emit(m.cleanTrackFor(shard), telemetry.Span{
			Kind: telemetry.KindClean, Start: t0, End: p.Now(), Arg: uint64(cleaned),
		})
	}
}

// collectItem snapshots one dirty page into the sweep's item list: its
// (replicated) remote target and, under guided paging, its live chunks. A
// page with no reachable write target is counted failed immediately and
// stays dirty.
func (m *Manager) collectItem(sc *wbScratch, id dram.FrameID, vpn pagetable.VPN, pte pagetable.PTE) {
	tgt, ok := m.RemoteOf(vpn)
	if !ok {
		m.WriteFails.Inc()
		return
	}
	it := wbItem{id: id, vpn: vpn, pte: pte, tgt: tgt}
	if m.Guide != nil {
		if c, ok := m.Guide.LiveChunks(vpn); ok && usable(c) {
			it.chunks, it.guided = c, true
		}
	}
	sc.items = append(sc.items, it)
}

// flushBatch posts every collected page to every one of its replica
// targets, one doorbell per distinct queue pair (i.e. per memory node and
// path), with contiguous remote offsets coalesced into vectored writes.
// Failure is known at issue time, so a failed request marks every page it
// carried as failed. Returns the op that completes last, for pacing.
func (m *Manager) flushBatch(p *sim.Proc, sc *wbScratch, reclaimPath bool) *fabric.Op {
	if len(sc.items) == 0 {
		return nil
	}
	// Distinct queue pairs in first-appearance order (primary before
	// replicas), so seeded runs replay identically.
	sc.qps = sc.qps[:0]
	for i := range sc.items {
		it := &sc.items[i]
		sc.addQP(qpOf(&it.tgt, reclaimPath))
		for r := range it.tgt.Replicas {
			sc.addQP(qpOf(&it.tgt.Replicas[r], reclaimPath))
		}
	}
	var last *fabric.Op
	for _, qp := range sc.qps {
		sc.segs, sc.owner = sc.segs[:0], sc.owner[:0]
		for i := range sc.items {
			it := &sc.items[i]
			m.gatherSegs(sc, i, &it.tgt, qp, reclaimPath)
			for r := range it.tgt.Replicas {
				m.gatherSegs(sc, i, &it.tgt.Replicas[r], qp, reclaimPath)
			}
		}
		sc.reqs = qp.Coalesce(fabric.OpWrite, sc.segs, sc.reqs[:0])
		sc.ops = qp.Submit(p.Now(), sc.reqs, sc.ops[:0])
		idx := 0
		for r, req := range sc.reqs {
			op := sc.ops[r]
			if op.Err != nil {
				for k := 0; k < len(req.Segs); k++ {
					sc.items[sc.owner[idx+k]].failed = true
				}
			} else if last == nil || op.CompleteAt > last.CompleteAt {
				last = op
			}
			idx += len(req.Segs)
		}
	}
	return last
}

func (sc *wbScratch) addQP(qp *fabric.QP) {
	for _, q := range sc.qps {
		if q == qp {
			return
		}
	}
	sc.qps = append(sc.qps, qp)
}

// gatherSegs appends item i's segments for one replica target if that
// target rides the queue pair currently being flushed.
func (m *Manager) gatherSegs(sc *wbScratch, i int, t *Target, qp *fabric.QP, reclaimPath bool) {
	if qpOf(t, reclaimPath) != qp {
		return
	}
	it := &sc.items[i]
	data := m.Pool.Bytes(it.id)
	if it.guided {
		live := 0
		for _, c := range it.chunks {
			sc.segs = append(sc.segs, fabric.Seg{Off: t.Off + uint64(c.Off), Buf: data[c.Off : c.Off+c.Len]})
			sc.owner = append(sc.owner, i)
			live += int(c.Len)
		}
		m.VectorSaves.Add(int64(pagetable.PageSize - live))
		return
	}
	sc.segs = append(sc.segs, fabric.Seg{Off: t.Off, Buf: data})
	sc.owner = append(sc.owner, i)
}

// retireBatch clears the dirty bit of every page whose writes all landed
// (recording its clean vector under guided paging) and counts the rest as
// write failures — they stay dirty so the next pass retries and the
// reclaimer never evicts the only good copy.
func (m *Manager) retireBatch(p *sim.Proc, sc *wbScratch, countCleaned bool) int {
	cleaned := 0
	for i := range sc.items {
		it := &sc.items[i]
		if it.failed {
			m.WriteFails.Inc()
			continue
		}
		p.Advance(m.Cfg.TagCAS)
		m.Table.Set(it.vpn, it.pte&^pagetable.BitDirty)
		m.setFrameVector(m.Pool.Meta(it.id), it.chunks, it.guided)
		if countCleaned {
			m.Cleaned.Inc()
		}
		cleaned++
	}
	return cleaned
}

// writeBack writes a page's content to its remote slot — the whole page,
// or just the live chunks when a guide provides them (logging the vector
// for the reclaimer). reclaimPath selects the reclaimer's queue pair
// instead of the cleaner's. ok=false means at least one replica write did
// not land (failed at issue, or the page currently has no reachable write
// target): the caller must keep the page dirty so the write-back is
// retried — clearing the dirty bit after a failed write would let the
// reclaimer evict the only good copy.
func (m *Manager) writeBack(p *sim.Proc, id dram.FrameID, vpn pagetable.VPN, reclaimPath bool) (*fabric.Op, bool) {
	tgt, ok := m.RemoteOf(vpn)
	if !ok {
		return nil, false
	}
	data := m.Pool.Bytes(id)
	targets := append([]Target{tgt}, tgt.Replicas...)
	var chunks []Chunk
	guided := false
	if m.Guide != nil {
		if c, ok := m.Guide.LiveChunks(vpn); ok && usable(c) {
			chunks, guided = c, true
		}
	}
	// Issue the write to every replica slot; return the op that completes
	// last so callers pacing on it cover the whole replica set. Failure is
	// known at issue time (see the fabric's data-movement contract), so a
	// failed replica write is visible here synchronously.
	var last *fabric.Op
	ok = true
	for _, t := range targets {
		qp := t.CleanQP
		if reclaimPath {
			qp = t.ReclaimQP
		}
		var op *fabric.Op
		if guided {
			segs := make([]fabric.Seg, len(chunks))
			live := 0
			for i, c := range chunks {
				segs[i] = fabric.Seg{Off: t.Off + uint64(c.Off), Buf: data[c.Off : c.Off+c.Len]}
				live += int(c.Len)
			}
			m.VectorSaves.Add(int64(pagetable.PageSize - live))
			op = qp.WriteV(p.Now(), segs)
		} else {
			op = qp.Write(p.Now(), t.Off, data)
		}
		if op.Err != nil {
			ok = false
			continue
		}
		if last == nil || op.CompleteAt > last.CompleteAt {
			last = op
		}
	}
	if !ok {
		return last, false
	}
	m.setFrameVector(m.Pool.Meta(id), chunks, guided)
	return last, true
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
	// No clean victim in a full sweep: the cleaner is behind. Clean a batch
	// of cold dirty pages ourselves on the reclaim QP (asynchronously,
	// waiting once at the end — still entirely off the fault handler, which
	// is the design's invariant), then evict the first of them.
	if firstDirty != dram.NoFrame {
		if m.Batch {
			return m.reclaimCleanBatched(p, shard)
		}
		var lastOp *fabric.Op
		cleaned := 0
		var victim dram.FrameID = dram.NoFrame
		var victimVPN pagetable.VPN
		m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
			if cleaned >= 32 {
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
			op, ok := m.writeBack(p, id, f.VPN, true)
			if !ok {
				m.WriteFails.Inc()
				return true
			}
			lastOp = op
			p.Advance(m.Cfg.TagCAS)
			m.Table.Set(f.VPN, pte&^pagetable.BitDirty)
			cleaned++
			if victim == dram.NoFrame && !pte.Accessed() {
				victim, victimVPN = id, f.VPN
			}
			return true
		})
		if cleaned > 0 {
			m.Table.BumpGen()
		}
		if lastOp != nil {
			lastOp.Wait(p)
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
	return false
}

// reclaimCleanBatched is the reclaimer's emergency clean under batching:
// sweep a batch of cold dirty pages, flush them through the reclaim queue
// pairs with one doorbell per node, retire the survivors, then wait once
// and evict a victim — still entirely off the fault handler.
func (m *Manager) reclaimCleanBatched(p *sim.Proc, shard int) bool {
	sc := m.reclaimScFor(shard)
	sc.items = sc.items[:0]
	m.Pool.WalkShard(shard, func(id dram.FrameID, f *dram.Frame) bool {
		if len(sc.items) >= 32 {
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
		m.collectItem(sc, id, f.VPN, pte)
		return true
	})
	lastOp := m.flushBatch(p, sc, true)
	cleaned := m.retireBatch(p, sc, false)
	// Pick the victim before waiting: the wait yields, and the scratch
	// snapshot is only valid until then.
	var victim dram.FrameID = dram.NoFrame
	var victimVPN pagetable.VPN
	for i := range sc.items {
		if it := &sc.items[i]; !it.failed && !it.pte.Accessed() {
			victim, victimVPN = it.id, it.vpn
			break
		}
	}
	if cleaned > 0 {
		m.Table.BumpGen()
	}
	if lastOp != nil {
		lastOp.Wait(p)
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
// Action under guided paging), and free the frame. The caller must have
// written dirty content back to every replica first — PageOut itself
// performs no write-back — and must pass a page whose frame is unpinned.
// Returns false, leaving the page resident, when no replica is reachable.
func (m *Manager) PageOut(p *sim.Proc, id dram.FrameID, vpn pagetable.VPN) bool {
	return m.evict(p, id, vpn)
}
