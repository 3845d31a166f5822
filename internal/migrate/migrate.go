// Package migrate is the elastic-pool migration engine: a background
// daemon that moves live remote pages between memory nodes over the
// batched fabric path (fabric.QP.Submit/Coalesce), driven by three
// operations on a mutable placement.AddressSpace — Drain (evacuate a
// node so it can be removed), node join (rebalance toward an empty
// node), and watermark-triggered Rebalance (even out per-node
// occupancy).
//
// # Copy-then-flip
//
// Migration coexists with the live fault path, the cleaner, and
// re-replication without locks, leaning on two simulator invariants:
// fabric ops move data (and learn their error) at issue time, and code
// between yields runs atomically. Each page move runs rounds of:
//
//  1. reset the page's written-during-copy flag (placement tracks it:
//     any WriteSlots resolution during the copy sets it);
//  2. read the page from its first readable replica (yields);
//  3. in one no-yield window: if the page is resident in a local frame,
//     take the frame's bytes (always freshest); otherwise, if the flag
//     is set, a write-back raced the copy — restart the round; else the
//     read bytes are current. Issue the write to the reserved
//     destination slot (error known at issue time) and, if it
//     succeeded, flip the page's replica set atomically
//     (placement.CompleteMigrate installs the forwarding entry).
//
// Reads keep resolving to the old slot until the flip, write-backs keep
// landing there too, and the flip happens only after bytes at least as
// fresh as every acknowledged write have been pushed to the new slot —
// so no dirty data is ever lost, and chaos killing either endpoint
// mid-copy just fails the round: the engine retries from another
// replica, or aborts the move cleanly and re-collects the page later.
package migrate

import (
	"fmt"

	"dilos/internal/fabric"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// PageSize re-exports the paging granularity.
const PageSize = placement.PageSize

// DefaultWatermark is the occupancy-imbalance fraction used for
// node-join rebalances when Tuning.Watermark is unset: the engine moves
// pages until no live node exceeds the live-node average by more than
// this fraction.
const DefaultWatermark = 0.10

// Tuning is the engine's knob set — the part of its configuration that
// belongs in core.Config (wiring lives in Config).
type Tuning struct {
	// BatchPages is the number of page moves issued per engine batch
	// (one doorbell per source node, one per destination node). 0 → 32.
	BatchPages int
	// Interval is the idle poll period between batches — it paces the
	// engine so migration traffic never saturates the fabric. 0 → 20 µs.
	Interval sim.Time
	// Watermark, when positive, turns on continuous auto-rebalancing:
	// whenever the most-loaded live node exceeds the live average by
	// more than this fraction, pages flow to the least-loaded node.
	// Zero leaves only explicit drains and node-join rebalances.
	Watermark float64
	// MaxRounds bounds copy retries per page per batch (write-back
	// races, chaos-failed ops). Exhausted moves abort cleanly and the
	// page is re-collected later. 0 → 8.
	MaxRounds int
}

func (t Tuning) withDefaults() Tuning {
	if t.BatchPages <= 0 {
		t.BatchPages = 32
	}
	if t.Interval <= 0 {
		t.Interval = 20 * sim.Microsecond
	}
	if t.MaxRounds <= 0 {
		t.MaxRounds = 8
	}
	return t
}

// Validate rejects out-of-range knobs.
func (t Tuning) Validate() error {
	if t.BatchPages < 0 {
		return fmt.Errorf("migrate: BatchPages must be >= 0, got %d", t.BatchPages)
	}
	if t.Interval < 0 {
		return fmt.Errorf("migrate: Interval must be >= 0, got %d", t.Interval)
	}
	if t.Watermark != 0 && (t.Watermark <= 0 || t.Watermark > 1) {
		return fmt.Errorf("migrate: Watermark must be 0 (disabled) or in (0,1], got %g", t.Watermark)
	}
	if t.MaxRounds < 0 {
		return fmt.Errorf("migrate: MaxRounds must be >= 0, got %d", t.MaxRounds)
	}
	return nil
}

// Config wires an Engine to its host system.
type Config struct {
	// Space is the placement substrate the engine mutates.
	Space *placement.AddressSpace
	// QP returns the migration queue pair for a memory node (its own
	// comm module, so copies never head-of-line-block fault fetches).
	QP func(node int) *fabric.QP
	// LocalContent copies page v's resident frame into buf and reports
	// true, or reports false when the page is not Local. It must not
	// yield — the engine calls it inside the no-yield flip window.
	LocalContent func(v pagetable.VPN, buf []byte) bool
	// AllocSlots reserves `slots` fresh page slots on a node's backing
	// and returns the base offset — destination capacity for moves.
	AllocSlots func(node int, slots uint64) (uint64, error)
	// Tel, when set, records one KindMigrate span per batch on TelTrack.
	Tel      *telemetry.Recorder
	TelTrack int
	// Tuning holds the knobs (zero values → defaults).
	Tuning Tuning
}

// job is one pending replica move.
type job struct {
	vpn  pagetable.VPN
	k    int
	src  placement.Slot
	dst  placement.Slot
	buf  []byte
	op   *fabric.Op
	done bool
	dead bool
}

// Engine is the migration daemon. All its methods run on the simulation
// thread; Drain and RequestRebalance only enqueue work — the daemon
// performs it.
type Engine struct {
	eng   *sim.Engine
	space *placement.AddressSpace
	cfg   Config
	t     Tuning

	draining    []int  // drain queue, FIFO
	wantDrained []bool // per node: drain requested (re-asserted after recovery)
	rebalance   bool   // explicit rebalance pass requested (node join)

	free [][]uint64 // per-node recycled destination slots
	pend []int64    // per-node moves planned this collect pass

	bufs    [][]byte
	jobs    []job
	segs    []fabric.Seg
	segJobs []int
	reqs    []fabric.Req
	ops     []*fabric.Op
	waits   []*fabric.Op

	reg *stats.Registry // set by RegisterStats; late nodes add gauges here

	// Counters: pages/bytes flipped, copy rounds restarted by racing
	// write-backs, failed ops, moves aborted after MaxRounds, drains
	// started/completed, rebalance batches.
	PagesMoved   stats.Counter
	BytesMoved   stats.Counter
	CopyRestarts stats.Counter
	MoveFails    stats.Counter
	Stranded     stats.Counter
	Drains       stats.Counter
	DrainsDone   stats.Counter
	Rebalances   stats.Counter
	// MoveLat records per-batch wall time (issue to last completion).
	MoveLat *stats.Histogram
	// InFlightG gauges pages mid-copy; occG gauges per-node occupancy.
	InFlightG stats.Gauge
	occG      []stats.Gauge
}

// New builds an engine over the space. Call RegisterStats and Start to
// wire it in.
func New(eng *sim.Engine, cfg Config) *Engine {
	if cfg.Space == nil || cfg.QP == nil || cfg.AllocSlots == nil {
		panic("migrate: Config.Space, QP and AllocSlots are required")
	}
	t := cfg.Tuning.withDefaults()
	e := &Engine{
		eng:          eng,
		space:        cfg.Space,
		cfg:          cfg,
		t:            t,
		PagesMoved:   stats.Counter{Name: "migrate.pages_moved"},
		BytesMoved:   stats.Counter{Name: "migrate.bytes_moved"},
		CopyRestarts: stats.Counter{Name: "migrate.copy_restarts"},
		MoveFails:    stats.Counter{Name: "migrate.move_fails"},
		Stranded:     stats.Counter{Name: "migrate.stranded"},
		Drains:       stats.Counter{Name: "migrate.drains"},
		DrainsDone:   stats.Counter{Name: "migrate.drains_done"},
		Rebalances:   stats.Counter{Name: "migrate.rebalances"},
		MoveLat:      stats.NewHistogram("migrate.batch_latency"),
		InFlightG:    stats.Gauge{Name: "migrate.inflight"},
	}
	e.bufs = make([][]byte, t.BatchPages)
	for i := range e.bufs {
		e.bufs[i] = make([]byte, PageSize)
	}
	e.ensureNodes()
	cfg.Space.OnStateChange(e.onState)
	return e
}

// RegisterStats folds the engine's metrics into a registry, including a
// per-node occupancy gauge (`migrate.node<i>.occupancy`); nodes added
// later register theirs on join.
func (e *Engine) RegisterStats(r *stats.Registry) {
	e.reg = r
	r.RegisterCounter(&e.PagesMoved)
	r.RegisterCounter(&e.BytesMoved)
	r.RegisterCounter(&e.CopyRestarts)
	r.RegisterCounter(&e.MoveFails)
	r.RegisterCounter(&e.Stranded)
	r.RegisterCounter(&e.Drains)
	r.RegisterCounter(&e.DrainsDone)
	r.RegisterCounter(&e.Rebalances)
	r.RegisterHistogram(e.MoveLat)
	r.RegisterGauge(&e.InFlightG)
	for i := range e.occG {
		r.RegisterGauge(&e.occG[i])
	}
}

// Start launches the engine daemon.
func (e *Engine) Start() {
	e.eng.GoDaemon("migrate.engine", e.loop)
}

// Drain queues node for evacuation: the node goes Draining (it keeps
// serving reads and writes but joins no new regions), the engine moves
// every replica slot it hosts to other live nodes, and once empty the
// node is Removed. Draining an already Failed node is legal — pages are
// then copied from their surviving replicas. A drain interrupted by a
// crash is re-asserted when the node recovers.
func (e *Engine) Drain(node int) error {
	if node < 0 || node >= e.space.Nodes() {
		return fmt.Errorf("migrate: no such node %d", node)
	}
	switch st := e.space.State(node); st {
	case placement.Removed:
		return fmt.Errorf("migrate: node %d is already removed", node)
	case placement.Live:
		if err := e.space.SetState(node, placement.Draining); err != nil {
			return err
		}
	case placement.Draining, placement.Failed, placement.Syncing:
		// Draining: re-queue is a no-op below. Failed/Syncing: evacuate
		// from surviving replicas; the state flips to Removed at the end.
	}
	e.ensureNodes()
	if !e.wantDrained[node] {
		e.wantDrained[node] = true
		e.draining = append(e.draining, node)
		e.Drains.Inc()
	}
	return nil
}

// RequestRebalance asks the daemon to run rebalance batches until
// per-node occupancy is within the watermark (Tuning.Watermark, or
// DefaultWatermark when unset). Node joins trigger this automatically.
func (e *Engine) RequestRebalance() { e.rebalance = true }

// Idle reports that the engine has no queued or in-flight work.
func (e *Engine) Idle() bool {
	return len(e.draining) == 0 && !e.rebalance && e.space.MigrationsInFlight() == 0
}

// SampleGauges refreshes the sampler-visible gauges from live state.
func (e *Engine) SampleGauges() {
	e.InFlightG.Set(int64(e.space.MigrationsInFlight()))
	for i := range e.occG {
		e.occG[i].Set(e.space.Occupancy(i))
	}
}

// onState tracks membership changes: node joins extend the per-node
// slices and pull pages toward the empty node; an external drain cancel
// (Draining→Live not initiated by the engine) drops the queued drain.
func (e *Engine) onState(node int, from, to placement.State) {
	e.ensureNodes()
	if from == placement.Draining && to == placement.Live {
		e.wantDrained[node] = false
	}
	if from == placement.Removed && to == placement.Live {
		e.rebalance = true
	}
}

// ensureNodes grows the per-node slices to the space's node count.
func (e *Engine) ensureNodes() {
	for n := len(e.wantDrained); n < e.space.Nodes(); n++ {
		e.wantDrained = append(e.wantDrained, false)
		e.free = append(e.free, nil)
		e.pend = append(e.pend, 0)
		e.occG = append(e.occG, stats.Gauge{Name: fmt.Sprintf("migrate.node%d.occupancy", n)})
		if e.reg != nil {
			e.reg.RegisterGauge(&e.occG[n])
		}
	}
}

func (e *Engine) loop(p *sim.Proc) {
	for {
		e.step(p)
		// Sleep after busy steps too: the gap between batches is what
		// keeps migration traffic from saturating the fabric against the
		// fault path (ext7 measures the drain-window p99 this buys).
		p.Sleep(e.t.Interval)
	}
}

// step performs one unit of work; false means idle (the loop sleeps).
func (e *Engine) step(p *sim.Proc) bool {
	// Re-assert drains interrupted by a crash/recovery cycle, and prune
	// externally cancelled ones.
	for node, want := range e.wantDrained {
		if want && e.space.State(node) == placement.Live {
			_ = e.space.SetState(node, placement.Draining)
		}
	}
	keep := e.draining[:0]
	for _, n := range e.draining {
		if e.wantDrained[n] {
			keep = append(keep, n)
		}
	}
	e.draining = keep

	if len(e.draining) > 0 {
		node := e.draining[0]
		if jobs := e.collectDrain(node, e.t.BatchPages); len(jobs) > 0 {
			e.runBatch(p, jobs)
			return true
		}
		if e.space.Occupancy(node) == 0 {
			// Draining→Removed, or Failed→Removed for a node that died
			// mid-drain and was evacuated from its replicas. A node caught
			// mid-recovery (Syncing) cannot be removed yet — keep the drain
			// queued; step re-asserts Draining once it lands back on Live.
			if err := e.space.SetState(node, placement.Removed); err == nil {
				e.DrainsDone.Inc()
				e.wantDrained[node] = false
				e.draining = e.draining[1:]
				return true
			}
			return false
		}
		// Pages remain but none can move right now (no readable source
		// or no eligible destination); wait for chaos/health to settle.
		return false
	}
	if e.rebalance || e.t.Watermark > 0 {
		if jobs := e.collectRebalance(e.t.BatchPages); len(jobs) > 0 {
			e.Rebalances.Inc()
			e.runBatch(p, jobs)
			return true
		}
		e.rebalance = false
	}
	return false
}

// chooseDest picks the least-loaded Live node hosting no replica of the
// page (ties to the lowest id), counting moves already planned this
// pass so a batch spreads across destinations. -1 when none qualifies.
func (e *Engine) chooseDest(slots []placement.Slot) int {
	best, bestLoad := -1, int64(0)
	for n := 0; n < e.space.Nodes(); n++ {
		if e.space.State(n) != placement.Live {
			continue
		}
		hosts := false
		for _, s := range slots {
			if s.Node == n {
				hosts = true
				break
			}
		}
		if hosts {
			continue
		}
		load := e.space.Occupancy(n) + e.pend[n]
		if best == -1 || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// collectDrain gathers up to max replica slots hosted on node, each with
// an eligible destination.
func (e *Engine) collectDrain(node, max int) []job {
	e.ensureNodes()
	for i := range e.pend {
		e.pend[i] = 0
	}
	jobs := e.jobs[:0]
	for _, reg := range e.space.Regions() {
		for i := uint64(0); i < reg.Pages && len(jobs) < max; i++ {
			v := reg.BaseVPN + pagetable.VPN(i)
			slots, ok := e.space.AllSlots(v)
			if !ok {
				continue
			}
			k := -1
			for ki, s := range slots {
				if s.Node == node {
					k = ki
					break
				}
			}
			if k < 0 {
				continue
			}
			dst := e.chooseDest(slots)
			if dst < 0 {
				continue
			}
			e.pend[dst]++
			jobs = append(jobs, job{vpn: v, k: k, dst: placement.Slot{Node: dst}})
		}
		if len(jobs) >= max {
			break
		}
	}
	e.jobs = jobs
	return jobs
}

// collectRebalance plans moves from the most- to the least-loaded live
// node when the imbalance exceeds the watermark.
func (e *Engine) collectRebalance(max int) []job {
	w := e.t.Watermark
	if w <= 0 {
		w = DefaultWatermark
	}
	var total, srcO, dstO int64
	liveN, src, dst := 0, -1, -1
	for n := 0; n < e.space.Nodes(); n++ {
		if e.space.State(n) != placement.Live {
			continue
		}
		o := e.space.Occupancy(n)
		total += o
		liveN++
		if src < 0 || o > srcO {
			src, srcO = n, o
		}
		if dst < 0 || o < dstO {
			dst, dstO = n, o
		}
	}
	if liveN < 2 || src == dst {
		return nil
	}
	gap := srcO - dstO
	avg := float64(total) / float64(liveN)
	if gap < 2 || float64(srcO) <= avg*(1+w) {
		return nil
	}
	budget := int(gap / 2)
	if budget > max {
		budget = max
	}
	jobs := e.jobs[:0]
	for _, reg := range e.space.Regions() {
		for i := uint64(0); i < reg.Pages && len(jobs) < budget; i++ {
			v := reg.BaseVPN + pagetable.VPN(i)
			slots, ok := e.space.AllSlots(v)
			if !ok {
				continue
			}
			k, onDst := -1, false
			for ki, s := range slots {
				if s.Node == src {
					k = ki
				}
				if s.Node == dst {
					onDst = true
				}
			}
			if k < 0 || onDst {
				continue
			}
			jobs = append(jobs, job{vpn: v, k: k, dst: placement.Slot{Node: dst}})
		}
		if len(jobs) >= budget {
			break
		}
	}
	e.jobs = jobs
	return jobs
}

// allocSlot reserves one destination page slot on node: recycled slots
// first, then a fresh chunk from the node's backing.
func (e *Engine) allocSlot(node int) (uint64, error) {
	if fl := e.free[node]; len(fl) > 0 {
		off := fl[len(fl)-1]
		e.free[node] = fl[:len(fl)-1]
		return off, nil
	}
	chunk := uint64(e.t.BatchPages)
	base, err := e.cfg.AllocSlots(node, chunk)
	if err != nil {
		return 0, err
	}
	for i := chunk - 1; i >= 1; i-- {
		e.free[node] = append(e.free[node], base+i*PageSize)
	}
	return base, nil
}

func (e *Engine) pushFree(s placement.Slot) {
	e.free[s.Node] = append(e.free[s.Node], s.Off)
}

// runBatch executes one batch of moves: reserve destinations, then copy
// rounds (batched reads per source node, validate + batched writes +
// atomic flips in one no-yield window, then wait out the writes for
// pacing). Moves that exhaust MaxRounds abort cleanly.
func (e *Engine) runBatch(p *sim.Proc, jobs []job) int {
	start := p.Now()
	alive := 0
	for i := range jobs {
		j := &jobs[i]
		off, err := e.allocSlot(j.dst.Node)
		if err != nil {
			j.dead = true
			e.MoveFails.Inc()
			continue
		}
		j.dst.Off = off
		if err := e.space.BeginMigrate(j.vpn, j.k, j.dst); err != nil {
			e.pushFree(j.dst)
			j.dead = true
			e.MoveFails.Inc()
			continue
		}
		j.buf = e.bufs[i]
		alive++
	}
	moved := 0
	nodes := e.space.Nodes()
	for round := 0; round < e.t.MaxRounds && alive > 0; round++ {
		// Resolve a source for every pending move and issue the reads,
		// one doorbell batch per source node with contiguous runs
		// coalesced. Everything up to the waits happens at one instant.
		for i := range jobs {
			j := &jobs[i]
			if j.done || j.dead {
				continue
			}
			e.space.ResetMigrationWrote(j.vpn)
			j.op = nil
			j.src.Node = -1
			if slots, _, ok := e.space.Resolve(j.vpn); ok && len(slots) > 0 {
				j.src = slots[0]
			}
		}
		e.waits = e.waits[:0]
		for n := 0; n < nodes; n++ {
			e.segs, e.segJobs = e.segs[:0], e.segJobs[:0]
			for i := range jobs {
				j := &jobs[i]
				if j.done || j.dead || j.src.Node != n {
					continue
				}
				e.segs = append(e.segs, fabric.Seg{Off: j.src.Off, Buf: j.buf})
				e.segJobs = append(e.segJobs, i)
			}
			if len(e.segs) == 0 {
				continue
			}
			qp := e.cfg.QP(n)
			e.reqs = qp.Coalesce(fabric.OpRead, e.segs, e.reqs[:0])
			e.ops = qp.Submit(p.Now(), e.reqs, e.ops[:0])
			si := 0
			for ri, op := range e.ops {
				for range e.reqs[ri].Segs {
					jobs[e.segJobs[si]].op = op
					si++
				}
			}
			e.waits = append(e.waits, e.ops[len(e.ops)-1])
		}
		for _, op := range e.waits {
			op.Wait(p)
		}
		// Validate + write + flip. No yields from here until every write
		// of the round has been issued and its page flipped: the fabric
		// moves data at issue time, so the flip is atomic against the
		// fault path and the cleaner.
		e.waits = e.waits[:0]
		for n := 0; n < nodes; n++ {
			e.segs, e.segJobs = e.segs[:0], e.segJobs[:0]
			for i := range jobs {
				j := &jobs[i]
				if j.done || j.dead || j.dst.Node != n {
					continue
				}
				if local := e.cfg.LocalContent; local != nil && local(j.vpn, j.buf) {
					// Resident frame is authoritative — fresher than any
					// remote copy, racing write-backs included.
				} else if j.src.Node < 0 || j.op == nil || j.op.Err != nil {
					continue // no readable source this round; retry
				} else if e.space.MigrationWrote(j.vpn) {
					e.CopyRestarts.Inc()
					continue // a write-back raced the copy; re-read
				}
				e.segs = append(e.segs, fabric.Seg{Off: j.dst.Off, Buf: j.buf})
				e.segJobs = append(e.segJobs, i)
			}
			if len(e.segs) == 0 {
				continue
			}
			qp := e.cfg.QP(n)
			e.reqs = qp.Coalesce(fabric.OpWrite, e.segs, e.reqs[:0])
			e.ops = qp.Submit(p.Now(), e.reqs, e.ops[:0])
			si := 0
			for ri, op := range e.ops {
				for range e.reqs[ri].Segs {
					j := &jobs[e.segJobs[si]]
					si++
					if op.Err != nil {
						e.MoveFails.Inc()
						continue // destination unreachable; retry round
					}
					old, err := e.space.CompleteMigrate(j.vpn)
					if err != nil {
						j.dead = true
						alive--
						continue
					}
					e.pushFree(old)
					j.done = true
					alive--
					moved++
					e.PagesMoved.Inc()
					e.BytesMoved.Add(PageSize)
				}
			}
			e.waits = append(e.waits, e.ops[len(e.ops)-1])
		}
		for _, op := range e.waits {
			op.Wait(p) // pacing: never run ahead of the fabric
		}
	}
	for i := range jobs {
		j := &jobs[i]
		if j.done || j.dead {
			continue
		}
		if dst, ok := e.space.AbortMigrate(j.vpn); ok {
			e.pushFree(dst)
		}
		e.Stranded.Inc()
	}
	e.MoveLat.Record(p.Now() - start)
	if e.cfg.Tel != nil {
		e.cfg.Tel.Emit(e.cfg.TelTrack, telemetry.Span{
			Kind: telemetry.KindMigrate, Start: start, End: p.Now(), Arg: uint64(moved),
		})
	}
	return moved
}
