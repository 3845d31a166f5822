// Package core is DiLOS itself: the LibOS computing-node kernel specialized
// for paging-based memory disaggregation. It wires the unified page table
// (internal/pagetable), the page fault handler (fault.go), the prefetcher
// framework and PTE hit tracker (internal/prefetch), the page manager with
// its background cleaner/reclaimer (internal/pagemgr), and the
// shared-nothing communication module (internal/comm) into one system, and
// exposes the POSIX-style compatibility layer (compat.go) that workloads
// program against.
//
// The structure mirrors the paper's Figure 3: an application and the LibOS
// share a single address space; four key components — fault handler,
// prefetcher, page manager, communication module — cooperate on the
// computing node; guides plug in beside the application without modifying
// it. Page→(node, slot) layout lives in internal/placement; every metric
// registers in a stats.Registry at construction.
package core

import (
	"fmt"

	"dilos/internal/chaos"
	"dilos/internal/comm"
	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/guide"
	"dilos/internal/memnode"
	"dilos/internal/migrate"
	"dilos/internal/mmu"
	"dilos/internal/obs"
	"dilos/internal/pagemgr"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// PageSize re-exports the paging granularity.
const PageSize = pagetable.PageSize

// Costs is the DiLOS software cost model for the fault path — deliberately
// tiny, because the handler checks exactly one data structure (the unified
// page table) before issuing the RDMA request (§4.2).
type Costs struct {
	HandlerCheck   sim.Time // decode tag, flip remote→fetching
	FrameAlloc     sim.Time // pop a frame from the free list
	Map            sim.Time // install the local PTE
	PrefetchIssue  sim.Time // per prefetch request issued (doorbell + post)
	PrefetchFilter sim.Time // per prefetch candidate examined (PTE lookup)
	ZeroFill       sim.Time // scrub a frame before a vectored (partial) fetch
	// PrefetchWQE is the CPU cost of building one additional work-queue
	// entry when the prefetch window is submitted as a doorbell batch
	// (Config.Batch): the first request of a batch pays the full
	// PrefetchIssue (doorbell write included), the rest only this.
	PrefetchWQE sim.Time
	// TagCAS is the cost of one narrow PTE tag transition
	// (pagetable.TryTransition) — the compare-and-swap the sharded fault
	// path performs instead of a read-modify-write under a wide critical
	// section. Charged only when Config.Shards > 0; legacy runs are
	// untouched.
	TagCAS sim.Time
}

// DefaultCosts returns the calibrated DiLOS handler costs (the entire
// software path outside fetch is ≈0.2–0.3 µs, per Figure 6).
func DefaultCosts() Costs {
	return Costs{
		HandlerCheck:   80 * sim.Nanosecond,
		FrameAlloc:     50 * sim.Nanosecond,
		Map:            120 * sim.Nanosecond,
		PrefetchIssue:  120 * sim.Nanosecond,
		PrefetchFilter: 40 * sim.Nanosecond,
		ZeroFill:       200 * sim.Nanosecond,
		PrefetchWQE:    40 * sim.Nanosecond,
		TagCAS:         20 * sim.Nanosecond,
	}
}

// Backing is where a memory node's pages live: the in-process
// memnode.Node for simulated runs, or transport.Backing for a real remote
// daemon reached over TCP (the data path then leaves the process while the
// simulation still supplies the timing).
type Backing interface {
	fabric.Store
	AllocRange(pages uint64) (uint64, error)
	Key() uint32
}

// Config assembles a DiLOS computing node.
type Config struct {
	// CacheFrames is the local DRAM cache size in 4 KiB frames.
	CacheFrames int
	// Cores is the number of CPU cores (each gets its own QP set).
	Cores int
	// RemoteBytes sizes the memory node's registered region.
	RemoteBytes uint64
	// Fabric selects the network calibration (DefaultParams or TCPParams).
	Fabric fabric.Params
	// Prefetcher is the page prefetch policy (nil → prefetch.None).
	Prefetcher prefetch.Prefetcher
	// EvictionGuide optionally enables guided paging on the page manager.
	EvictionGuide pagemgr.EvictionGuide
	// Mgr overrides the page-manager tuning (nil → defaults for the pool).
	Mgr *pagemgr.Config
	// SharedQP collapses each core's per-module queues into one shared
	// queue — the head-of-line-prone design §4.5 rejects. Ablation only.
	SharedQP bool
	// MemNodes shards the remote backing across this many memory nodes —
	// the multi-node extension the paper leaves as future work (§5.1).
	// Default 1. Each node gets its own link, RemoteBytes of registered
	// memory, and per-core queue pairs.
	MemNodes int
	// Placement selects the page→node layout policy (nil → striped, the
	// original page-round-robin behavior).
	Placement placement.Policy
	// Backings overrides the in-process memory nodes entirely (one shard
	// per entry) — e.g. transport.Backing instances pointing at real
	// memnoded daemons. When set, MemNodes and RemoteBytes are ignored
	// and Nodes/Node are nil.
	Backings []Backing
	// Replicas keeps this many copies of every page across distinct
	// memory nodes (the §5.1 fault-tolerance direction): write-backs reach
	// every replica, fetches use the first live one, and failing a node
	// (Space().SetState) switches reads over. Requires MemNodes (or
	// Backings) ≥ Replicas. Default 1.
	Replicas int
	// Tel, when set, attaches the flight recorder: the fault handler,
	// prefetch mappers, cleaner, reclaimer, and fabric links emit spans
	// into it (internal/telemetry). Nil compiles the instrumentation out:
	// every emission site is guarded, so a disabled run is untouched.
	Tel *telemetry.Recorder
	// SampleEvery, with Tel set, starts the periodic gauge sampler at
	// this interval (0 disables sampling; spans are still recorded).
	SampleEvery sim.Time
	// Obs, when set, attaches the live observability plane (internal/obs):
	// the publisher daemon evaluates SLO burn rates every EvalEvery,
	// control-plane events (breaker trips, drains, rebalances, steals,
	// alert edges) land in the plane's journal, and — when a Sink is
	// attached — rendered /metrics, /statusz, and /journalz pages are
	// published every PublishEvery. Nil is the plane-off configuration;
	// every emission site is guarded, so a disabled run is untouched.
	Obs *obs.Plane
	// Chaos, when set, injects deterministic faults into every link (see
	// internal/chaos) and enables the failure-handling stack: the health
	// monitor daemons, fetch retry/failover, and re-replication. Without it
	// the system behaves exactly as before — ops never fail.
	Chaos *chaos.Injector
	// Batch decides only when the doorbell rings on the two issue paths;
	// each path is one loop either way. Off (the default, so the per-op
	// calibration numbers hold), every prefetch read and every write-back
	// write goes out as a solo op the moment its page is reached. On, the
	// prefetcher posts each node's pages through one doorbell
	// (fabric.QP.Submit) every batchChunk targets, and the page manager's
	// write-backs — cleaner, reclaimer and PageOutRange, replicas included
	// — post one doorbell per queue pair at the end of a sweep, contiguous
	// remote offsets coalesced into vectored writes. ext5 measures both.
	Batch bool
	// Migrate, when set, starts the elastic-pool migration engine
	// (internal/migrate): System.Drain evacuates a node for removal,
	// AddMemNode grows the pool and rebalances toward the new node, and a
	// positive Tuning.Watermark keeps per-node occupancy levelled
	// continuously. Nil leaves the pool membership static after Start.
	Migrate *migrate.Tuning
	// Shards shards the paging hot path per core: the frame pool keeps
	// one LRU/clock list per shard (frames home to the faulting core), the
	// page manager runs one cleaner/reclaimer pair per shard over
	// per-shard scratch, and PTE transitions become narrow full-value
	// CASes charged at Costs.TagCAS. 0 (default) keeps the legacy
	// single-list layout byte-identical; typically set to Cores.
	Shards int
	// WideLocks, with Shards ≥ 1, models the coarse shared-structure
	// baseline the sharding replaces: one virtual-time lock held by the
	// cleaner/reclaimer across entire sweeps (pacing waits included) and
	// acquired by every fault handler around its PTE transitions. Ablation
	// only — ext10's "shared" arm.
	WideLocks bool
}

// System is a DiLOS computing node plus its memory node(s). Node, Link,
// and Hub always refer to node 0; with MemNodes > 1 the full sets live in
// Nodes, Links, and Hubs, and the placement policy spreads pages across
// them (striped round-robin by default).
type System struct {
	Eng   *sim.Engine
	Node  *memnode.Node
	Link  *fabric.Link
	Nodes []*memnode.Node
	Links []*fabric.Link
	Hubs  []*comm.Hub
	Table *pagetable.Table
	Pool  *dram.Pool
	Mgr   *pagemgr.Manager
	Hub   *comm.Hub
	Costs Costs
	MMUC  mmu.Costs
	Pf    prefetch.Prefetcher
	Track *prefetch.HitTracker
	Hist  *prefetch.History

	// guides are the attached app-aware modules (guide.Guide), registered
	// via AttachGuide before Start; the fault handler calls every guide's
	// OnFault inside the fetch window, in attachment order. guideVPNs is
	// the reusable expansion scratch for Prefetch's byte-range requests
	// (safe to share: Prefetch never yields while using it).
	guides    []guide.Guide
	guideVPNs []pagetable.VPN

	// statusSections are extra /statusz renderers (AddStatusSection):
	// workload layers such as internal/kvcache publish their state into
	// AppendStatus through them, in registration order.
	statusSections []func(dst []byte, now sim.Time) []byte

	// Tel is the flight recorder (nil when disabled); Sam is the gauge
	// sampler, started with the system when SampleEvery is set.
	Tel *telemetry.Recorder
	Sam *telemetry.Sampler
	// telCore[c]/telPf[c] are core c's fault and prefetch-mapper tracks.
	telCore     []int
	telPf       []int
	sampleEvery sim.Time

	// Sampler-refreshed gauges (see SampleGauges).
	CacheUsedG stats.Gauge
	PfQueueG   stats.Gauge
	PfWindowG  stats.Gauge

	backings []Backing
	space    *placement.AddressSpace
	registry *stats.Registry
	heap     *heapArena

	// Construction parameters kept for AddMemNode/AttachBacking: a node
	// joining mid-run gets the same link calibration and hub shape.
	remoteBytes uint64
	fabricP     fabric.Params
	cores       int
	sharedQP    bool

	// Sharded fault path (Config.Shards / Config.WideLocks).
	shards    int
	wideLocks bool

	// Obs is the live observability plane (nil when disabled).
	// sloMon/sloID are this system's objective registration — the
	// fault path observes into them directly so the nil check stays cheap.
	Obs    *obs.Plane
	sloMon *obs.Monitor
	sloID  int

	// Chaos is the fault injector shared by every link (nil without chaos).
	Chaos *chaos.Injector
	// Health is the memory-node health monitor (nil without chaos).
	Health *HealthMonitor
	// Mig is the elastic-pool migration engine (nil without Config.Migrate).
	Mig *migrate.Engine
	// retryRng seeds retry jitter; deterministic per chaos seed.
	retryRng chaos.Rand

	// ReplicaFetches counts fetches served by a non-primary replica
	// because the primary's node failed — incremented at the fetch site
	// only, never by write-back or prefetch target resolution.
	ReplicaFetches stats.Counter
	// ReReplicated counts pages copied back onto a recovered node.
	ReReplicated stats.Counter
	// PrefetchFails counts prefetches reverted because their op failed.
	PrefetchFails stats.Counter
	// FetchRetries aggregates the fault path's retry/timeout/gave-up
	// counters across every core's reliable fetch attempts.
	FetchRetries *fabric.RetryStats

	slots     []inflight
	freeSlots []uint64

	// Batch mirrors Config.Batch; issuePrefetch reads it.
	Batch bool

	pfQueue  [][]pfItem
	pfWaiter []sim.Waiter
	// pfHeld[c] is the queue entry core c's mapper daemon popped and is
	// currently blocked on — published so catchUpMapper can install it the
	// moment its completion ripens, instead of waiting for the daemon to be
	// scheduled.
	pfHeld []pfHeldItem
	// pfScratch is the per-core scratch arena for prefetch issue — reused
	// across faults so the hot path does not allocate. Safe to share per
	// core because SchedulePrefetch never yields while using it.
	pfScratch []pfScratch

	// Counters and instrumentation.
	MajorFaults   stats.Counter
	MinorFaults   stats.Counter
	LateMapHits   stats.Counter
	GuidedFetches stats.Counter
	Prefetches    stats.Counter
	FaultLat      *stats.Histogram // major-fault end-to-end latency
	MinorFaultLat *stats.Histogram // minor-fault (wait-on-inflight) latency

	started bool
}

type inflight struct {
	op     *fabric.Op
	frame  dram.FrameID
	vpn    pagetable.VPN
	gen    uint64
	active bool
	// demand marks a fault-handler-owned fetch: its owner runs recovery on
	// failure (re-issuing and republishing op), so waiters poll rather
	// than revert. Prefetch slots (demand=false) are reverted on failure.
	demand bool
}

type pfItem struct {
	slot uint64
	gen  uint64
}

type pfHeldItem struct {
	item  pfItem
	valid bool
}

// pfScratch holds one core's reusable buffers for prefetch issue. items
// records the accepted targets not yet issued, in target order; a batched
// issue builds one single-segment req per page of a node, submits them,
// and installs the resulting ops back into the items' slots.
type pfScratch struct {
	items []pfIssue
	segs  []fabric.Seg
	reqs  []fabric.Req
	ops   []*fabric.Op
	noted []pagetable.VPN
}

type pfIssue struct {
	node int // remote node, or -1 once its op has been submitted
	off  uint64
	buf  []byte
	slot uint64
	gen  uint64
}

// New assembles a DiLOS node from the config, panicking on an invalid
// one (Config.normalized documents the rules).
func New(eng *sim.Engine, cfg Config) *System {
	n, err := cfg.normalized()
	if err != nil {
		panic(err.Error())
	}
	return build(eng, n)
}

// build assembles the system from an already-normalized config:
// MemNodes and Replicas are resolved, and every cross-field rule in
// Config.normalized has passed.
func build(eng *sim.Engine, cfg Config) *System {
	var nodes []*memnode.Node
	backings := cfg.Backings
	if len(backings) == 0 {
		nodes = make([]*memnode.Node, cfg.MemNodes)
		backings = make([]Backing, cfg.MemNodes)
		for i := range nodes {
			nodes[i] = memnode.New(cfg.RemoteBytes, 0xd170)
			backings[i] = nodes[i]
		}
	}
	links := make([]*fabric.Link, cfg.MemNodes)
	for i := range links {
		links[i] = fabric.NewLinkOver(backings[i], backings[i].Key(), cfg.Fabric)
		links[i].NodeID = i
		links[i].Chaos = cfg.Chaos
	}
	var node *memnode.Node
	if nodes != nil {
		node = nodes[0]
	}
	link := links[0]
	tbl := pagetable.New()
	pool := dram.NewPool(cfg.CacheFrames)
	if cfg.Shards > 1 {
		pool.SetShards(cfg.Shards)
	}
	mcfg := pagemgr.DefaultConfig(cfg.CacheFrames)
	if cfg.Mgr != nil {
		mcfg = *cfg.Mgr
	}
	if cfg.Shards > 0 && mcfg.TagCAS == 0 {
		mcfg.TagCAS = DefaultCosts().TagCAS
	}
	mgr := pagemgr.New(pool, tbl, mcfg)
	mgr.Guide = cfg.EvictionGuide
	mgr.Batch = cfg.Batch
	mgr.Shards = cfg.Shards
	if cfg.WideLocks {
		mgr.Wide = &sim.Lock{}
	}
	hubs := make([]*comm.Hub, cfg.MemNodes)
	for i := range hubs {
		if cfg.SharedQP {
			hubs[i] = comm.NewSharedHub(links[i], cfg.Cores, backings[i].Key())
		} else {
			hubs[i] = comm.NewHub(links[i], cfg.Cores, backings[i].Key())
		}
	}
	hub := hubs[0]
	pf := cfg.Prefetcher
	if pf == nil {
		pf = prefetch.None{}
	}
	s := &System{
		Eng:      eng,
		Node:     node,
		Link:     link,
		Nodes:    nodes,
		backings: backings,
		Links:    links,
		Hubs:     hubs,
		Table:    tbl,
		Pool:     pool,
		Mgr:      mgr,
		Hub:      hub,
		Costs:    DefaultCosts(),
		MMUC:     mmu.DefaultCosts(),
		Pf:       pf,
		Track:    prefetch.NewHitTracker(),
		Hist:     prefetch.NewHistory(32),
		space: placement.New(placement.Config{
			Nodes:    cfg.MemNodes,
			Replicas: cfg.Replicas,
			Policy:   cfg.Placement,
		}),
		Chaos:       cfg.Chaos,
		Batch:       cfg.Batch,
		remoteBytes: cfg.RemoteBytes,
		fabricP:     cfg.Fabric,
		cores:       cfg.Cores,
		sharedQP:    cfg.SharedQP,
		shards:      cfg.Shards,
		wideLocks:   cfg.WideLocks,
		pfQueue:     make([][]pfItem, cfg.Cores),
		pfHeld:      make([]pfHeldItem, cfg.Cores),
		pfWaiter:    make([]sim.Waiter, cfg.Cores),
		pfScratch:   make([]pfScratch, cfg.Cores),
	}
	initMetrics(s)
	s.sloID = -1
	if cfg.Obs != nil {
		s.Obs = cfg.Obs
		if cfg.Obs.Monitor != nil {
			o := cfg.Obs.Objective
			o.Name = "pool"
			s.sloMon = cfg.Obs.Monitor
			s.sloID = cfg.Obs.Monitor.Register(o)
		}
		if j := cfg.Obs.Journal; j != nil {
			mgr.OnSteal = func(now sim.Time, thief, victim int) {
				j.Emit(now, "shard_steal",
					obs.I("thief_shard", int64(thief)), obs.I("victim_shard", int64(victim)))
			}
		}
	}
	if cfg.Tel != nil {
		s.Tel = cfg.Tel
		s.sampleEvery = cfg.SampleEvery
		s.telCore = make([]int, cfg.Cores)
		s.telPf = make([]int, cfg.Cores)
		// Track registration order fixes timeline row order: cores first,
		// then the prefetch mappers, daemons, and fabric links.
		for c := 0; c < cfg.Cores; c++ {
			s.telCore[c] = cfg.Tel.Track(fmt.Sprintf("fault/core%d", c))
		}
		for c := 0; c < cfg.Cores; c++ {
			s.telPf[c] = cfg.Tel.Track(fmt.Sprintf("pfmap%d", c))
		}
		mgr.Tel = cfg.Tel
		if cfg.Shards > 1 {
			mgr.CleanTracks = make([]int, cfg.Shards)
			mgr.ReclaimTracks = make([]int, cfg.Shards)
			for sh := 0; sh < cfg.Shards; sh++ {
				mgr.CleanTracks[sh] = cfg.Tel.Track(fmt.Sprintf("clean/shard%d", sh))
				mgr.ReclaimTracks[sh] = cfg.Tel.Track(fmt.Sprintf("reclaim/shard%d", sh))
			}
		} else {
			mgr.CleanTrack = cfg.Tel.Track("cleaner")
			mgr.ReclaimTrack = cfg.Tel.Track("reclaimer")
		}
		for i, l := range links {
			l.Tel = cfg.Tel
			l.TelTrack = cfg.Tel.Track(fmt.Sprintf("fabric.node%d", i))
		}
	}
	// Retry jitter derives from the chaos seed so the full failure-handling
	// stack replays under one number; without chaos the fixed seed keeps
	// behavior deterministic anyway (jitter only fires after a failed op,
	// which cannot happen without an injector).
	retrySeed := uint64(0xd1705)
	if cfg.Chaos != nil {
		retrySeed ^= cfg.Chaos.Config().Seed
	}
	s.retryRng = chaos.NewRand(retrySeed)
	mgr.RemoteOf = func(v pagetable.VPN) (pagemgr.Target, bool) { return s.targetFor(0, v) }
	if cfg.Chaos != nil {
		s.Health = NewHealthMonitor(s)
	}
	if cfg.Migrate != nil {
		mc := migrate.Config{
			Space:        s.space,
			QP:           func(node int) *fabric.QP { return s.Hubs[node].QP(0, comm.ModMigrate) },
			LocalContent: s.localContent,
			AllocSlots: func(node int, slots uint64) (uint64, error) {
				return s.backings[node].AllocRange(slots)
			},
			Tuning: *cfg.Migrate,
		}
		if cfg.Tel != nil {
			mc.Tel = cfg.Tel
			mc.TelTrack = cfg.Tel.Track("migrate")
		}
		s.Mig = migrate.New(eng, mc)
	}
	s.registry = s.buildRegistry()
	return s
}

// initMetrics names the system's own metrics and allocates the
// histograms.
func initMetrics(s *System) {
	s.ReplicaFetches = stats.Counter{Name: "dilos.replica_fetches"}
	s.ReReplicated = stats.Counter{Name: "dilos.rereplicated"}
	s.PrefetchFails = stats.Counter{Name: "dilos.prefetch_fails"}
	s.FetchRetries = fabric.NewRetryStats("fetch")
	s.MajorFaults = stats.Counter{Name: "dilos.major_faults"}
	s.MinorFaults = stats.Counter{Name: "dilos.minor_faults"}
	s.LateMapHits = stats.Counter{Name: "dilos.late_map_hits"}
	s.GuidedFetches = stats.Counter{Name: "dilos.guided_fetches"}
	s.Prefetches = stats.Counter{Name: "dilos.prefetches"}
	s.FaultLat = stats.NewHistogram("dilos.fault_latency")
	s.MinorFaultLat = stats.NewHistogram("dilos.minor_fault_latency")
	s.CacheUsedG = stats.Gauge{Name: "dilos.cache_used_frames"}
	s.PfQueueG = stats.Gauge{Name: "dilos.prefetch_queue_depth"}
	s.PfWindowG = stats.Gauge{Name: "dilos.prefetch_window"}
}

// localContent copies page v's resident frame into buf, reporting false
// when the page is not Local. Never yields — the migration engine calls
// it inside its no-yield flip window, where the frame is authoritative.
func (s *System) localContent(v pagetable.VPN, buf []byte) bool {
	pte := s.Table.Lookup(v)
	if pte.Tag() != pagetable.TagLocal {
		return false
	}
	copy(buf, s.Pool.Bytes(dram.FrameID(pte.Frame())))
	return true
}

// buildRegistry registers every metric the system owns at construction —
// the single observability surface Snapshot() serialises.
func (s *System) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	r.RegisterCounter(&s.MajorFaults)
	r.RegisterCounter(&s.MinorFaults)
	r.RegisterCounter(&s.LateMapHits)
	r.RegisterCounter(&s.GuidedFetches)
	r.RegisterCounter(&s.Prefetches)
	r.RegisterCounter(&s.ReplicaFetches)
	r.RegisterCounter(&s.ReReplicated)
	r.RegisterCounter(&s.PrefetchFails)
	r.RegisterHistogram(s.FaultLat)
	r.RegisterHistogram(s.MinorFaultLat)
	r.RegisterGauge(&s.CacheUsedG)
	r.RegisterGauge(&s.PfQueueG)
	r.RegisterGauge(&s.PfWindowG)
	s.Mgr.RegisterStats(r)
	s.FetchRetries.RegisterStats(r)
	if s.Obs != nil && s.Obs.Monitor != nil {
		s.Obs.Monitor.RegisterStats(r)
	}
	if s.Chaos != nil {
		s.Chaos.RegisterStats(r)
	}
	if s.Health != nil {
		s.Health.RegisterStats(r)
	}
	if s.Mig != nil {
		s.Mig.RegisterStats(r)
	}
	for i, l := range s.Links {
		s.registerLink(r, i, l)
	}
	for i, n := range s.Nodes {
		s.registerMemNode(r, i, n)
	}
	return r
}

// registerLink qualifies a link's generic metric names per node (the
// registry's uniqueness invariant) and registers them. Also used when a
// node joins mid-run (AddMemNode/AttachBacking).
func (s *System) registerLink(r *stats.Registry, i int, l *fabric.Link) {
	prefix := fmt.Sprintf("link.node%d.", i)
	l.RxBytes.Name = prefix + "rx.bytes"
	l.TxBytes.Name = prefix + "tx.bytes"
	l.RxOps.Name = prefix + "rx.ops"
	l.TxOps.Name = prefix + "tx.ops"
	l.FailedOps.Name = prefix + "failed.ops"
	l.Batches.Name = prefix + "batch.doorbells"
	l.BatchedOps.Name = prefix + "batch.ops"
	l.CoalescedSegs.Name = prefix + "batch.coalesced_segs"
	l.BatchSize.Name = prefix + "batch.size"
	l.RxBacklog.Name = prefix + "rx.backlog_ns"
	l.TxBacklog.Name = prefix + "tx.backlog_ns"
	r.RegisterGauge(&l.RxBacklog)
	r.RegisterGauge(&l.TxBacklog)
	r.RegisterCounter(&l.RxBytes)
	r.RegisterCounter(&l.TxBytes)
	r.RegisterCounter(&l.RxOps)
	r.RegisterCounter(&l.TxOps)
	r.RegisterCounter(&l.FailedOps)
	r.RegisterCounter(&l.Batches)
	r.RegisterCounter(&l.BatchedOps)
	r.RegisterCounter(&l.CoalescedSegs)
	r.RegisterHistogram(l.BatchSize)
}

// registerMemNode qualifies and registers an in-process memory node's
// served-op counters.
func (s *System) registerMemNode(r *stats.Registry, i int, n *memnode.Node) {
	prefix := fmt.Sprintf("memnode.node%d.", i)
	n.ReadsSrv.Name = prefix + "reads"
	n.WritesSv.Name = prefix + "writes"
	r.RegisterCounter(&n.ReadsSrv)
	r.RegisterCounter(&n.WritesSv)
}

// Registry exposes every metric the system registered at construction.
func (s *System) Registry() *stats.Registry { return s.registry }

// Space exposes the placement substrate (tests and guides inspect layout
// through it; all fetch paths already resolve through it internally).
func (s *System) Space() *placement.AddressSpace { return s.space }

// Drain asks the migration engine to evacuate a memory node: it stops
// joining new regions, every replica slot it hosts migrates to the other
// live nodes, and once empty it leaves the pool (placement.Removed).
// Requires Config.Migrate.
func (s *System) Drain(node int) error {
	if s.Mig == nil {
		return fmt.Errorf("core: Drain requires the migration engine (set Config.Migrate)")
	}
	s.emitEvent(s.Eng.Now(), "drain_requested", obs.I("node", int64(node)))
	return s.Mig.Drain(node)
}

// AddMemNode grows the pool with a fresh in-process memory node sized
// like the originals (RemoteBytes) and returns its id. The node joins
// Live and empty; with the migration engine running, a rebalance pulls
// pages toward it. Existing pages never remap implicitly — only
// migration moves them. Errors in Backings mode, where the caller owns
// node construction (use AttachBacking).
func (s *System) AddMemNode() (int, error) {
	if s.remoteBytes == 0 {
		return 0, fmt.Errorf("core: AddMemNode needs in-process nodes; with external Backings use AttachBacking")
	}
	n := memnode.New(s.remoteBytes, 0xd170)
	return s.attachNode(n, n), nil
}

// AttachBacking grows the pool with an externally supplied backing (a
// transport.Backing for a real daemon, or any Backing implementation)
// and returns its node id. Errors when the pool was built from
// in-process nodes — mixing the two would desynchronise Nodes from the
// node id space.
func (s *System) AttachBacking(b Backing) (int, error) {
	if s.Nodes != nil {
		return 0, fmt.Errorf("core: AttachBacking mixes external backings into an in-process pool; use AddMemNode")
	}
	return s.attachNode(b, nil), nil
}

// attachNode wires a new memory node into every layer: link (same
// calibration, chaos injector, and telemetry shape as the originals),
// comm hub, registry metrics, placement membership, health watching, and
// a migration rebalance toward the empty node.
func (s *System) attachNode(b Backing, n *memnode.Node) int {
	id := len(s.backings)
	l := fabric.NewLinkOver(b, b.Key(), s.fabricP)
	l.NodeID = id
	l.Chaos = s.Chaos
	if s.Tel != nil {
		l.Tel = s.Tel
		l.TelTrack = s.Tel.Track(fmt.Sprintf("fabric.node%d", id))
	}
	var h *comm.Hub
	if s.sharedQP {
		h = comm.NewSharedHub(l, s.cores, b.Key())
	} else {
		h = comm.NewHub(l, s.cores, b.Key())
	}
	s.backings = append(s.backings, b)
	s.Links = append(s.Links, l)
	s.Hubs = append(s.Hubs, h)
	if n != nil {
		s.Nodes = append(s.Nodes, n)
	}
	s.registerLink(s.registry, id, l)
	if n != nil {
		s.registerMemNode(s.registry, id, n)
	}
	if got := s.space.AddNode(); got != id {
		panic("core: placement node id out of sync with the fabric")
	}
	if s.Health != nil {
		s.Health.Watch(id)
	}
	if s.Mig != nil {
		s.Mig.RequestRebalance()
	}
	return id
}

// Start launches the background daemons (page manager, per-core prefetch
// mappers, the app-aware guide). Call once before running workloads.
func (s *System) Start() {
	if s.started {
		panic("core: Start called twice")
	}
	s.started = true
	s.Mgr.Start(s.Eng)
	for c := 0; c < s.Hub.Cores(); c++ {
		c := c
		s.Eng.GoDaemon(fmt.Sprintf("dilos.pfmap%d", c), func(p *sim.Proc) { s.pfMapLoop(p, c) })
	}
	for _, g := range s.guides {
		g.Start(s)
	}
	if s.Health != nil {
		s.Health.Start()
	}
	if s.Mig != nil {
		s.Mig.Start()
	}
	// The sampler daemon spawns last so the relative scheduling order of
	// every pre-existing daemon is unchanged by enabling it.
	if s.Tel != nil && s.sampleEvery > 0 {
		s.Sam = &telemetry.Sampler{
			Interval: s.sampleEvery,
			Registry: s.registry,
			Collect:  s.SampleGauges,
		}
		s.Sam.Start(s.Eng)
	}
	// The observability publisher likewise spawns after every pre-existing
	// daemon: enabling the plane never reorders the rest of the system.
	if s.Obs != nil && (s.Obs.Monitor != nil || s.Obs.Sink != nil) {
		s.Eng.GoDaemon("dilos.obs", s.obsLoop)
	}
}

// SampleGauges refreshes every sampler-visible level from live state: the
// telemetry sampler calls it once per tick. It reads but never mutates
// workload-visible state, so sampling cannot change a run's timing.
func (s *System) SampleGauges(now sim.Time) {
	s.CacheUsedG.Set(int64(s.Pool.Used()))
	depth := 0
	for _, q := range s.pfQueue {
		depth += len(q)
	}
	s.PfQueueG.Set(int64(depth))
	switch pf := s.Pf.(type) {
	case *prefetch.Readahead:
		s.PfWindowG.Set(int64(pf.Window))
	case prefetch.Windowed:
		s.PfWindowG.Set(int64(pf.Window()))
	}
	s.Mgr.SampleGauges()
	if s.Mig != nil {
		s.Mig.SampleGauges()
	}
	for _, l := range s.Links {
		l.SampleBacklog(now)
	}
}

// Telemetry returns the flight recorder and sampler (nil when disabled) —
// the hook the experiment harness uses to export timelines.
func (s *System) Telemetry() (*telemetry.Recorder, *telemetry.Sampler) { return s.Tel, s.Sam }

// AttachGuide registers an app-aware guide (guide.Guide). Guides attach
// after construction and before Start — Start calls each guide's Start
// with the system as its Host, and the fault handler invokes every
// guide's OnFault inside the fetch window, in attachment order.
func (s *System) AttachGuide(g guide.Guide) {
	if s.started {
		panic("core: AttachGuide after Start")
	}
	if g == nil {
		panic("core: AttachGuide(nil)")
	}
	s.guides = append(s.guides, g)
}

// GoDaemon implements guide.Host: it spawns a guide daemon on the engine.
func (s *System) GoDaemon(name string, fn func(p *sim.Proc)) { s.Eng.GoDaemon(name, fn) }

// Prefetch implements guide.Host: the typed prefetch-request entry point
// wrapping the prefetcher's issue path. The request's pages (explicit or
// expanded from its byte range) go through SchedulePrefetch, which filters
// pages already local or in flight and — with Config.Batch — posts the
// window through per-node doorbells.
func (s *System) Prefetch(p *sim.Proc, coreID int, req guide.Request) {
	s.guideVPNs = req.VPNs(s.guideVPNs[:0])
	s.SchedulePrefetch(p, coreID, s.guideVPNs)
}

// AddStatusSection appends a custom /statusz section renderer: workload
// layers publish their state into AppendStatus through it. Sections render
// in registration order; each must be deterministic (fixed iteration
// order, integer formatting) to keep same-seed pages byte-identical.
func (s *System) AddStatusSection(fn func(dst []byte, now sim.Time) []byte) {
	s.statusSections = append(s.statusSections, fn)
}

// MmapDDC maps a disaggregated region of `pages` pages (the compat layer's
// mmap with MAP_DDC, §5): every page starts Remote, backed by zeroed slot
// ranges laid out by the placement policy (page-round-robin striping by
// default). With R replicas each node provisions R segments; replica k of
// a page lives on node (primary+k) mod N in segment k.
func (s *System) MmapDDC(pages uint64) (uint64, error) {
	reg, err := s.space.Map(pages, func(node int, slots uint64) (uint64, error) {
		return s.backings[node].AllocRange(slots)
	})
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < pages; i++ {
		vpn := reg.BaseVPN + pagetable.VPN(i)
		sl, ok := s.space.Primary(vpn)
		if !ok {
			panic("core: freshly mapped vpn did not resolve")
		}
		s.Table.Set(vpn, pagetable.Remote(sl.Off/PageSize))
	}
	return reg.Base, nil
}

// targetFor resolves a page's writable replica slots into a write-back
// target on one core's cleaner and reclaimer queue pairs (primary first).
// The page manager's daemons write through core 0's; PageOutRange through
// the calling core's.
func (s *System) targetFor(core int, v pagetable.VPN) (pagemgr.Target, bool) {
	slots, ok := s.space.WriteSlots(v)
	if !ok || len(slots) == 0 {
		return pagemgr.Target{}, false
	}
	tgt := pagemgr.Target{
		Off:       slots[0].Off,
		CleanQP:   s.Hubs[slots[0].Node].QP(core, comm.ModCleaner),
		ReclaimQP: s.Hubs[slots[0].Node].QP(core, comm.ModReclaim),
	}
	for _, sl := range slots[1:] {
		tgt.Replicas = append(tgt.Replicas, pagemgr.Target{
			Off:       sl.Off,
			CleanQP:   s.Hubs[sl.Node].QP(core, comm.ModCleaner),
			ReclaimQP: s.Hubs[sl.Node].QP(core, comm.ModReclaim),
		})
	}
	return tgt, true
}

// remoteOf maps a virtual page to its first live (node, slot offset).
func (s *System) remoteOf(v pagetable.VPN) (int, uint64, bool) {
	sl, ok := s.space.First(v)
	if !ok {
		return 0, 0, false
	}
	return sl.Node, sl.Off, true
}

func (s *System) newSlot(vpn pagetable.VPN, frame dram.FrameID) uint64 {
	if k := len(s.freeSlots); k > 0 {
		idx := s.freeSlots[k-1]
		s.freeSlots = s.freeSlots[:k-1]
		sl := &s.slots[idx]
		sl.vpn, sl.frame, sl.op, sl.active, sl.demand = vpn, frame, nil, true, false
		return idx
	}
	s.slots = append(s.slots, inflight{vpn: vpn, frame: frame, active: true})
	return uint64(len(s.slots) - 1)
}

func (s *System) releaseSlot(idx uint64) {
	sl := &s.slots[idx]
	sl.gen++
	sl.op = nil
	sl.demand = false
	s.freeSlots = append(s.freeSlots, idx)
}

// Launch runs fn as a workload thread on the given core. The returned
// DDCProc implements space.Space over this system.
func (s *System) Launch(name string, coreID int, fn func(sp *DDCProc)) {
	if coreID < 0 || coreID >= s.Hub.Cores() {
		panic("core: bad core id")
	}
	s.Eng.Go(name, func(p *sim.Proc) {
		sp := s.BindCore(p, coreID)
		fn(sp)
	})
}

// BindCore attaches an existing sim process to a core, returning its Space.
func (s *System) BindCore(p *sim.Proc, coreID int) *DDCProc {
	h := &coreHandler{sys: s, coreID: coreID}
	c := mmu.NewCore(p, s.Table, s.Pool, h)
	c.Costs = s.MMUC
	return &DDCProc{sys: s, coreID: coreID, core: c}
}
