// Package aifm reimplements the paper's user-level baseline: AIFM
// (Application-Integrated Far Memory, OSDI '20). Where the paging systems
// are transparent, AIFM trades compatibility for performance: applications
// are rewritten against remoteable containers whose smart pointers carry a
// presence check on every dereference. In exchange the runtime gets
// object-granularity IO, a multi-threaded streaming prefetcher that almost
// perfectly overlaps fetch with compute on sequential scans, and
// object-level hot/cold evacuation off the critical path.
//
// Per the paper's methodology (§6.2), AIFM's transport is TCP: fabric
// links configured with TCPParams carry the measured +14,000-cycle
// completion delay.
//
// The behaviours the evaluation depends on, all modelled here:
//
//   - the dereference-check tax: AIFM pays Costs.DerefCheck on every
//     element access even when everything is local — why Figure 8 shows it
//     50–83 % slower than DiLOS at 100 % local memory;
//   - near-perfect sequential overlap: a deep streaming window fetched by
//     background threads — why AIFM wins Figure 7(c)/(d) at 12.5 % local;
//   - object-granularity IO: fetches move whole chunks (the container's
//     natural unit), evacuation writes back only dirty chunks.
package aifm

import (
	"fmt"

	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/stats"
)

// ChunkSize is the remoteable containers' internal chunking unit.
const ChunkSize = 4096

// Costs is the AIFM runtime cost model.
type Costs struct {
	DerefCheck  sim.Time // smart-pointer presence check per element access
	RuntimeMiss sim.Time // yield to the runtime + fetch setup on a miss
	MarkInstall sim.Time // installing a fetched object
	ElementCopy sim.Time // per 64 B moved between app and container
	EvacScan    sim.Time // per object examined by the evacuator
}

// DefaultCosts mirrors AIFM's published microbenchmarks (sub-100 ns local
// deref, ~microseconds to enter the runtime on a miss).
func DefaultCosts() Costs {
	return Costs{
		DerefCheck:  5 * sim.Nanosecond,
		RuntimeMiss: 450 * sim.Nanosecond,
		MarkInstall: 150 * sim.Nanosecond,
		ElementCopy: 2 * sim.Nanosecond,
		EvacScan:    25 * sim.Nanosecond,
	}
}

// Config assembles an AIFM runtime.
type Config struct {
	LocalBytes    uint64 // local heap budget for remoteable objects
	RemoteBytes   uint64 // memory node region size
	Fabric        fabric.Params
	PrefetchDepth int // streaming window, in chunks (default 16)
}

type objState uint8

const (
	objRemote objState = iota
	objFetching
	objLocal
)

type object struct {
	size   uint32
	state  objState
	op     *fabric.Op
	opGen  uint64
	data   []byte
	remote uint64
	dirty  bool
	hot    bool
}

// System is an AIFM runtime instance: computing-node object store plus its
// memory node.
type System struct {
	Eng   *sim.Engine
	Node  *memnode.Node
	Link  *fabric.Link
	Costs Costs

	mainQP *fabric.QP
	pfQP   *fabric.QP
	evacQP *fabric.QP

	localBudget uint64
	localUsed   uint64
	evacHigh    uint64 // kick the evacuator above this
	evacLow     uint64 // evacuator drains down to this
	pfCeiling   uint64 // prefetch headroom limit

	objects []object
	clock   int // evacuator clock hand

	// Remote chunk layout is owned by the shared placement substrate: one
	// region spans the whole memory node; objects claim chunk runs from a
	// bump cursor and resolve their backing offsets through it.
	space     *placement.AddressSpace
	region    placement.Region
	nextChunk uint64
	registry  *stats.Registry

	pfQueue  []pfItem
	pfWaiter sim.Waiter
	evacKick sim.Waiter
	freed    sim.Waiter

	pfDepth int

	DerefChecks stats.Counter
	Misses      stats.Counter
	Prefetches  stats.Counter
	Evacuated   stats.Counter
	started     bool
}

type pfItem struct {
	id  int
	gen uint64
}

// New assembles an AIFM runtime.
func New(eng *sim.Engine, cfg Config) *System {
	if cfg.LocalBytes == 0 || cfg.RemoteBytes == 0 {
		panic("aifm: LocalBytes and RemoteBytes are required")
	}
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 16
	}
	node := memnode.New(cfg.RemoteBytes, 0xa1f3)
	link := fabric.NewLink(node, cfg.Fabric)
	s := &System{
		Eng:         eng,
		Node:        node,
		Link:        link,
		Costs:       DefaultCosts(),
		mainQP:      link.MustQP("aifm.main", node.ProtKey),
		pfQP:        link.MustQP("aifm.prefetch", node.ProtKey),
		evacQP:      link.MustQP("aifm.evac", node.ProtKey),
		localBudget: cfg.LocalBytes,
		evacHigh:    cfg.LocalBytes / 4 * 3,
		evacLow:     cfg.LocalBytes / 2,
		pfCeiling:   cfg.LocalBytes / 8 * 7,
		pfDepth:     cfg.PrefetchDepth,
		DerefChecks: stats.Counter{Name: "aifm.deref_checks"},
		Misses:      stats.Counter{Name: "aifm.misses"},
		Prefetches:  stats.Counter{Name: "aifm.prefetches"},
		Evacuated:   stats.Counter{Name: "aifm.evacuated"},
		space:       placement.New(placement.Config{Nodes: 1}),
	}
	region, err := s.space.Map(cfg.RemoteBytes/ChunkSize, func(_ int, chunks uint64) (uint64, error) {
		return node.AllocRange(chunks)
	})
	if err != nil {
		panic("aifm: mapping the remote region: " + err.Error())
	}
	s.region = region
	s.registry = s.buildRegistry()
	return s
}

// buildRegistry registers every metric the system owns at construction.
func (s *System) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	r.RegisterCounter(&s.DerefChecks)
	r.RegisterCounter(&s.Misses)
	r.RegisterCounter(&s.Prefetches)
	r.RegisterCounter(&s.Evacuated)
	s.Link.RxBytes.Name = "link.node0.rx.bytes"
	s.Link.TxBytes.Name = "link.node0.tx.bytes"
	s.Link.RxOps.Name = "link.node0.rx.ops"
	s.Link.TxOps.Name = "link.node0.tx.ops"
	r.RegisterCounter(&s.Link.RxBytes)
	r.RegisterCounter(&s.Link.TxBytes)
	r.RegisterCounter(&s.Link.RxOps)
	r.RegisterCounter(&s.Link.TxOps)
	s.Node.ReadsSrv.Name = "memnode.node0.reads"
	s.Node.WritesSv.Name = "memnode.node0.writes"
	r.RegisterCounter(&s.Node.ReadsSrv)
	r.RegisterCounter(&s.Node.WritesSv)
	return r
}

// Registry exposes every metric the system registered at construction.
func (s *System) Registry() *stats.Registry { return s.registry }

// Start launches the background prefetch-mapper and evacuator threads.
func (s *System) Start() {
	if s.started {
		panic("aifm: Start called twice")
	}
	s.started = true
	s.Eng.GoDaemon("aifm.pfmap", s.pfMapLoop)
	s.Eng.GoDaemon("aifm.evacuator", s.evacLoop)
}

// Thread is an application thread on the AIFM runtime.
type Thread struct {
	sys *System
	p   *sim.Proc
}

// Launch runs fn as an application thread.
func (s *System) Launch(name string, fn func(t *Thread)) {
	s.Eng.Go(name, func(p *sim.Proc) { fn(&Thread{sys: s, p: p}) })
}

// Proc returns the underlying sim process.
func (t *Thread) Proc() *sim.Proc { return t.p }

// Compute charges CPU time.
func (t *Thread) Compute(d sim.Time) { t.p.Advance(d) }

// Now returns virtual time.
func (t *Thread) Now() sim.Time { return t.p.Now() }

// newObject registers a chunk-sized object with remote backing: it claims
// a run of chunks from the placement region (contiguous on the single
// node) and resolves the head chunk's offset through the address space.
func (s *System) newObject(size uint32) (int, error) {
	chunks := (uint64(size) + ChunkSize - 1) / ChunkSize
	if s.nextChunk+chunks > s.region.Pages {
		return 0, fmt.Errorf("aifm: out of remote memory (%d chunks used of %d)",
			s.nextChunk, s.region.Pages)
	}
	sl, ok := s.space.First(s.region.BaseVPN + pagetable.VPN(s.nextChunk))
	if !ok {
		panic("aifm: region chunk did not resolve")
	}
	s.nextChunk += chunks
	s.objects = append(s.objects, object{size: size, state: objRemote, remote: sl.Off})
	return len(s.objects) - 1, nil
}

// ensureLocal makes object id resident, fetching it if needed; returns its
// buffer. The deref check is charged by the caller (per element access, not
// per chunk).
func (s *System) ensureLocal(p *sim.Proc, id int) []byte {
	o := &s.objects[id]
	o.hot = true
	switch o.state {
	case objLocal:
		return o.data
	case objFetching:
		op := o.op
		gen := o.opGen
		op.Wait(p)
		if o.opGen == gen && o.state == objFetching {
			s.installFetched(p, id)
		}
		return s.ensureLocal(p, id)
	default:
		s.Misses.Inc()
		p.Advance(s.Costs.RuntimeMiss)
		s.reserve(p, uint64(o.size))
		o.data = make([]byte, o.size)
		op := s.mainQP.Read(p.Now(), o.remote, o.data)
		o.op = op
		o.state = objFetching
		op.Wait(p)
		if o.state == objFetching && o.op == op {
			s.installFetched(p, id)
		}
		return s.ensureLocal(p, id)
	}
}

func (s *System) installFetched(p *sim.Proc, id int) {
	o := &s.objects[id]
	p.Advance(s.Costs.MarkInstall)
	o.state = objLocal
	o.op = nil
	o.opGen++
	o.dirty = false
}

// reserve books local heap space, kicking (and if necessary waiting for)
// the evacuator.
func (s *System) reserve(p *sim.Proc, n uint64) {
	s.localUsed += n
	if s.localUsed >= s.evacHigh {
		s.evacKick.Wake(p.Now())
	}
	for s.localUsed > s.localBudget {
		s.freed.Wait(p)
	}
}

// prefetch issues background fetches for the given objects.
func (s *System) prefetch(p *sim.Proc, ids []int) {
	for _, id := range ids {
		o := &s.objects[id]
		if o.state != objRemote {
			continue
		}
		if s.localUsed+uint64(o.size) >= s.pfCeiling {
			s.evacKick.Wake(p.Now())
			break // no headroom: stop prefetching, demand first
		}
		s.localUsed += uint64(o.size)
		o.data = make([]byte, o.size)
		o.op = s.pfQP.Read(p.Now(), o.remote, o.data)
		o.state = objFetching
		s.pfQueue = append(s.pfQueue, pfItem{id: id, gen: o.opGen})
		s.Prefetches.Inc()
	}
	if len(s.pfQueue) > 0 {
		s.pfWaiter.Wake(p.Now())
	}
}

// pfMapLoop installs prefetched objects as their fetches complete — AIFM's
// background prefetch threads.
func (s *System) pfMapLoop(p *sim.Proc) {
	for {
		if len(s.pfQueue) == 0 {
			s.pfWaiter.Wait(p)
			continue
		}
		item := s.pfQueue[0]
		s.pfQueue = s.pfQueue[1:]
		o := &s.objects[item.id]
		if o.opGen != item.gen || o.state != objFetching {
			continue
		}
		op := o.op
		op.Wait(p)
		if o.opGen == item.gen && o.state == objFetching {
			s.installFetched(p, item.id)
		}
	}
}

// evacLoop is AIFM's evacuator: it keeps the local heap under budget by
// moving cold objects to the memory node (write-back only when dirty).
func (s *System) evacLoop(p *sim.Proc) {
	for {
		if s.localUsed <= s.evacLow {
			s.evacKick.Wait(p)
			continue
		}
		if !s.evacStep(p) {
			p.Sleep(5 * sim.Microsecond)
		}
	}
}

// evacStep evicts one cold local object; returns whether it did.
func (s *System) evacStep(p *sim.Proc) bool {
	n := len(s.objects)
	if n == 0 {
		return false
	}
	for i := 0; i < 2*n; i++ {
		s.clock = (s.clock + 1) % n
		o := &s.objects[s.clock]
		if o.state != objLocal {
			continue
		}
		p.Advance(s.Costs.EvacScan)
		if o.hot {
			o.hot = false
			continue
		}
		var wb *fabric.Op
		if o.dirty {
			wb = s.evacQP.Write(p.Now(), o.remote, o.data)
		}
		o.state = objRemote
		o.data = nil
		o.opGen++
		s.localUsed -= uint64(o.size)
		s.Evacuated.Inc()
		s.freed.Wake(p.Now())
		if wb != nil {
			wb.Wait(p)
		}
		return true
	}
	return false
}
