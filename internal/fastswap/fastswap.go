// Package fastswap reimplements the paper's kernel paging-based baseline
// (Fastswap, EuroSys '20) over the same fabric, memory node, and software
// MMU as DiLOS, so the two systems differ only in the ways the paper says
// they differ:
//
//   - the kernel's swap subsystem sits on the fault path: a swap cache in
//     front of the page table, swap-entry bookkeeping, and radix-tree
//     insertion (the "page alloc + swap cache mgmt" segments of Figure 1);
//   - cluster readahead reads into the swap cache WITHOUT mapping pages,
//     so every prefetched page costs a later minor fault (Table 1: 87.5 %
//     of faults on a sequential read are minor);
//   - reclamation is only partially offloaded to the dedicated background
//     thread: when the faulting core finds the free list below the direct
//     watermark it reclaims inline — including synchronous write-back of
//     dirty victims, which is what halves Fastswap's sequential-write
//     throughput in Table 2;
//   - kernel-user mode switching costs on every fault.
package fastswap

import (
	"fmt"

	"dilos/internal/dram"
	"dilos/internal/fabric"
	"dilos/internal/memnode"
	"dilos/internal/mmu"
	"dilos/internal/pagetable"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// PageSize re-exports the paging granularity.
const PageSize = pagetable.PageSize

// Costs models the Linux swap path, calibrated against Figure 1's
// breakdown of a ≈6.3 µs average Fastswap fault (fetch 46 %, exception 9 %,
// reclamation 29 %, swap-cache management and page allocation 16 %).
type Costs struct {
	KernelEntry    sim.Time // mode switch + fault-path entry beyond the hw exception
	SwapMgmt       sim.Time // swap cache alloc, swap-entry + radix bookkeeping (major)
	MinorService   sim.Time // swap cache lookup, rmap, locking, map (minor fault)
	Map            sim.Time // set_pte + flushes on the major path
	ReadaheadIssue sim.Time // per cluster page issued
	ReclaimScan    sim.Time // per frame examined during reclaim
	ReclaimUnmap   sim.Time // unmap + shootdown per evicted page
	DirectFixed    sim.Time // fixed direct-reclaim entry cost (shrink_node etc.)
	PageoutCPU     sim.Time // add_to_swap + rmap walk + pageout per dirty victim
}

// DefaultCosts returns the calibration.
func DefaultCosts() Costs {
	return Costs{
		KernelEntry:    300 * sim.Nanosecond,
		SwapMgmt:       1000 * sim.Nanosecond,
		MinorService:   2450 * sim.Nanosecond,
		Map:            250 * sim.Nanosecond,
		ReadaheadIssue: 80 * sim.Nanosecond,
		ReclaimScan:    60 * sim.Nanosecond,
		ReclaimUnmap:   350 * sim.Nanosecond,
		DirectFixed:    600 * sim.Nanosecond,
		PageoutCPU:     2200 * sim.Nanosecond,
	}
}

// Config assembles a Fastswap computing node.
type Config struct {
	CacheFrames int
	Cores       int
	RemoteBytes uint64
	Fabric      fabric.Params
	// Cluster is the swap readahead cluster size (default 8, Linux's
	// /proc/sys/vm/page-cluster default of 3 → 2³).
	Cluster int
	// OffloadPeriod is how often the dedicated reclaim thread runs.
	OffloadPeriod sim.Time
	// Tel, when set, records flight-recorder spans for every fault,
	// reclaim pass, and fabric op. nil compiles the hot-path hooks out.
	Tel *telemetry.Recorder
	// SampleEvery is the gauge sampling interval; 0 disables the sampler.
	SampleEvery sim.Time
}

type scEntry struct {
	frame  dram.FrameID
	op     *fabric.Op
	mapped bool
	onLRU  bool
	fresh  bool // readahead page not yet consumed: one clock second chance
}

// System is a Fastswap computing node plus memory node.
type System struct {
	Eng   *sim.Engine
	Node  *memnode.Node
	Link  *fabric.Link
	Table *pagetable.Table
	Pool  *dram.Pool
	Costs Costs
	MMUC  mmu.Costs

	qps     []*fabric.QP // per core (kernel swap path shares one QP per CPU)
	wbQP    *fabric.QP   // kswapd write-back traffic
	cluster int

	cache map[pagetable.VPN]*scEntry

	space    *placement.AddressSpace
	registry *stats.Registry
	heap     struct {
		base, size, used uint64
	}

	lowWater    int
	highWater   int
	directWater int
	offloadTick sim.Time
	needKswapd  sim.Waiter

	lastFault     pagetable.VPN
	dir           int64
	dirtyPressure bool

	MajorFaults   stats.Counter
	MinorFaults   stats.Counter
	DirectRecl    stats.Counter
	KswapdRecl    stats.Counter
	SyncWrites    stats.Counter
	FaultLat      *stats.Histogram // major-fault end-to-end latency
	MinorFaultLat *stats.Histogram // minor-fault (swap-cache hit) latency

	// Flight recorder (nil when Config.Tel was unset) and its sampler.
	Tel         *telemetry.Recorder
	Sam         *telemetry.Sampler
	telCore     []int
	kswapdTrack int
	sampleEvery sim.Time

	FreeG      stats.Gauge // free list vs the watermarks
	CacheUsedG stats.Gauge // frames holding page content
	SwapCacheG stats.Gauge // swap-cache entries (mapped or not)
	LowWaterG  stats.Gauge
	HighWaterG stats.Gauge

	started bool
}

// New assembles a Fastswap node.
func New(eng *sim.Engine, cfg Config) *System {
	if cfg.CacheFrames <= 0 || cfg.Cores <= 0 || cfg.RemoteBytes == 0 {
		panic("fastswap: CacheFrames, Cores and RemoteBytes are required")
	}
	if cfg.Cluster <= 0 {
		cfg.Cluster = 8
	}
	if cfg.OffloadPeriod <= 0 {
		cfg.OffloadPeriod = 400 * sim.Microsecond
	}
	node := memnode.New(cfg.RemoteBytes, 0xf457)
	link := fabric.NewLink(node, cfg.Fabric)
	s := &System{
		Eng:         eng,
		Node:        node,
		Link:        link,
		Table:       pagetable.New(),
		Pool:        dram.NewPool(cfg.CacheFrames),
		Costs:       DefaultCosts(),
		MMUC:        mmu.DefaultCosts(),
		cluster:     cfg.Cluster,
		cache:       map[pagetable.VPN]*scEntry{},
		space:       placement.New(placement.Config{Nodes: 1}),
		dir:         1,
		offloadTick: cfg.OffloadPeriod,
		MajorFaults: stats.Counter{Name: "fastswap.major_faults"},
		MinorFaults: stats.Counter{Name: "fastswap.minor_faults"},
		DirectRecl:  stats.Counter{Name: "fastswap.direct_reclaims"},
		KswapdRecl:  stats.Counter{Name: "fastswap.kswapd_reclaims"},
		SyncWrites:  stats.Counter{Name: "fastswap.sync_writes"},
		FaultLat:    stats.NewHistogram("fastswap.fault_latency"),
		MinorFaultLat: stats.NewHistogram(
			"fastswap.minor_fault_latency"),
		Tel:         cfg.Tel,
		sampleEvery: cfg.SampleEvery,
		FreeG:       stats.Gauge{Name: "fastswap.free_frames"},
		CacheUsedG:  stats.Gauge{Name: "fastswap.cache_used_frames"},
		SwapCacheG:  stats.Gauge{Name: "fastswap.swap_cache_pages"},
		LowWaterG:   stats.Gauge{Name: "fastswap.low_water"},
		HighWaterG:  stats.Gauge{Name: "fastswap.high_water"},
	}
	for c := 0; c < cfg.Cores; c++ {
		s.qps = append(s.qps, link.MustQP(fmt.Sprintf("cpu%d.swap", c), node.ProtKey))
	}
	s.wbQP = link.MustQP("kswapd.wb", node.ProtKey)
	s.lowWater = cfg.CacheFrames / 16
	if s.lowWater < 16 {
		s.lowWater = 16
	}
	s.highWater = s.lowWater * 2
	// Direct reclamation triggers below the high watermark: kswapd (the
	// dedicated reclaim core) shares the work but, as the paper observes,
	// cannot absorb all of it under sustained fault pressure, so the
	// faulting core reclaims inline on most majors — the 29 %
	// "reclamation" segment of Figure 1's average case.
	s.directWater = s.highWater
	s.LowWaterG.Set(int64(s.lowWater))
	s.HighWaterG.Set(int64(s.highWater))
	if s.Tel != nil {
		for c := 0; c < cfg.Cores; c++ {
			s.telCore = append(s.telCore, s.Tel.Track(fmt.Sprintf("core%d", c)))
		}
		s.kswapdTrack = s.Tel.Track("kswapd")
		link.Tel = s.Tel
		link.TelTrack = s.Tel.Track("fabric.node0")
	}
	s.registry = s.buildRegistry()
	return s
}

// buildRegistry registers every metric the system owns at construction.
func (s *System) buildRegistry() *stats.Registry {
	r := stats.NewRegistry()
	r.RegisterCounter(&s.MajorFaults)
	r.RegisterCounter(&s.MinorFaults)
	r.RegisterCounter(&s.DirectRecl)
	r.RegisterCounter(&s.KswapdRecl)
	r.RegisterCounter(&s.SyncWrites)
	r.RegisterHistogram(s.FaultLat)
	r.RegisterHistogram(s.MinorFaultLat)
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
	r.RegisterGauge(&s.FreeG)
	r.RegisterGauge(&s.CacheUsedG)
	r.RegisterGauge(&s.SwapCacheG)
	r.RegisterGauge(&s.LowWaterG)
	r.RegisterGauge(&s.HighWaterG)
	s.Link.RxBacklog.Name = "link.node0.rx.backlog_ns"
	s.Link.TxBacklog.Name = "link.node0.tx.backlog_ns"
	r.RegisterGauge(&s.Link.RxBacklog)
	r.RegisterGauge(&s.Link.TxBacklog)
	return r
}

// SampleGauges refreshes every gauge from live state. The telemetry
// sampler calls it each tick; it only reads, so enabling sampling cannot
// perturb workload timing.
func (s *System) SampleGauges(now sim.Time) {
	s.FreeG.Set(int64(s.Pool.FreeCount()))
	s.CacheUsedG.Set(int64(s.Pool.Used()))
	s.SwapCacheG.Set(int64(len(s.cache)))
	s.Link.SampleBacklog(now)
}

// Telemetry exposes the recorder and sampler for trace export (both nil
// when telemetry was not configured).
func (s *System) Telemetry() (*telemetry.Recorder, *telemetry.Sampler) {
	return s.Tel, s.Sam
}

// Registry exposes every metric the system registered at construction.
func (s *System) Registry() *stats.Registry { return s.registry }

// Start launches the dedicated reclaim thread (Fastswap's offloaded
// reclamation).
func (s *System) Start() {
	if s.started {
		panic("fastswap: Start called twice")
	}
	s.started = true
	s.Eng.GoDaemon("fastswap.kswapd", s.kswapdLoop)
	// The sampler daemon spawns last so enabling it never reorders the
	// pre-existing daemons' scheduling.
	if s.Tel != nil && s.sampleEvery > 0 {
		s.Sam = &telemetry.Sampler{Interval: s.sampleEvery, Registry: s.registry, Collect: s.SampleGauges}
		s.Sam.Start(s.Eng)
	}
}

// MmapDDC reserves a swap-backed region of `pages` pages. Layout lives in
// the shared placement substrate (single node, striped → contiguous).
func (s *System) MmapDDC(pages uint64) (uint64, error) {
	reg, err := s.space.Map(pages, func(_ int, slots uint64) (uint64, error) {
		return s.Node.AllocRange(slots)
	})
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < pages; i++ {
		vpn := reg.BaseVPN + pagetable.VPN(i)
		sl, ok := s.space.Primary(vpn)
		if !ok {
			panic("fastswap: freshly mapped vpn did not resolve")
		}
		s.Table.Set(vpn, pagetable.Remote(sl.Off/PageSize))
	}
	return reg.Base, nil
}

func (s *System) remoteOf(v pagetable.VPN) (uint64, bool) {
	sl, ok := s.space.First(v)
	if !ok {
		return 0, false
	}
	return sl.Off, true
}

// Malloc is the same region-allocator compat layer as DiLOS'.
func (s *System) Malloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	align := uint64(16)
	if n >= PageSize {
		align = PageSize
	}
	n = (n + 15) &^ 15
	used := (s.heap.used + align - 1) &^ (align - 1)
	if s.heap.size == 0 || used+n > s.heap.size {
		pages := uint64(4096)
		if need := (n + PageSize - 1) / PageSize; need > pages {
			pages = need
		}
		base, err := s.MmapDDC(pages)
		if err != nil {
			return 0, err
		}
		s.heap.base, s.heap.size, s.heap.used = base, pages*PageSize, 0
		used = 0
	}
	s.heap.used = used + n
	return s.heap.base + used, nil
}

// Free is a no-op (region allocator).
func (s *System) Free(addr, n uint64) {}
