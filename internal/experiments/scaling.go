package experiments

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/pagemgr"
	"dilos/internal/sim"
)

// ext10 — per-core fault-path scaling (the sharded page manager vs the
// shared-structure baseline). Each leg runs the same weak-scaling workload:
// every core random-writes its own partition of the disaggregated region at
// a 25% cache ratio, so per-core fault demand is constant and ideal scaling
// doubles aggregate fault throughput with the core count. The "sharded" arm
// is the production configuration (Shards = cores: per-core LRU shards,
// per-shard cleaner/reclaimer pairs, CAS transitions); the "shared" arm
// models the coarse design the sharding replaces (Shards = 1 + WideLocks:
// one manager-wide lock held across daemon sweeps and every fault-path
// transition). Both arms charge the same TagCAS cost — the lock is the only
// difference.

// ScalingRow is one core count's measurement across both arms.
type ScalingRow struct {
	Cores          int
	SharedFaults   int64
	ShardedFaults  int64
	SharedElapsed  sim.Time
	ShardedElapsed sim.Time
	SharedRate     float64 // faults per second
	ShardedRate    float64
	SharedP99      sim.Time
	ShardedP99     sim.Time
}

// ScalingResult is the full ext10 artifact plus the headline speedups the
// acceptance gates read (aggregate fault throughput at 4 cores over 1).
type ScalingResult struct {
	Rows           []ScalingRow
	SharedSpeedup  float64
	ShardedSpeedup float64
}

// Each core keeps a hot window of scalingHotPages resident pages at the
// start of its partition and re-dirties scalingHotStride of them per
// iteration, so write-back pressure scales with the core count.
const (
	scalingHotPages  = 32
	scalingHotStride = 32
)

// scalingPartPages sizes one core's partition from the Scale knob.
func scalingPartPages(sc Scale) uint64 {
	pp := sc.SeqPages / 4
	if pp < 256 {
		pp = 256
	}
	return pp
}

// runScalingLeg runs one (cores, arm) cell and returns the aggregate major
// faults, the elapsed virtual time (slowest core), and the fault p99.
func (r *Run) runScalingLeg(cores int, sharded bool) (int64, sim.Time, sim.Time) {
	partPages := scalingPartPages(r.Scale)
	ws := partPages * uint64(cores)
	cfg := core.Config{
		CacheFrames: frames(ws, 0.25),
		Cores:       cores,
		RemoteBytes: partPages*core.PageSize + (16 << 20),
		Fabric:      fabric.DefaultParams(),
		// Eight memory nodes so the links never become the scaling wall:
		// the experiment isolates the software path, not the fabric.
		MemNodes: 8,
		// Two replicas double every write-back's wire work, which lands on
		// the cleaner/reclaimer daemons — parallel per-shard work in the
		// sharded arm, lock-hold time in the shared arm.
		Replicas: 2,
		Batch:    true,
	}
	cfg.Tel, cfg.SampleEvery = r.telemetry()
	// Both arms run the same daemon tuning; a tighter cleaner period keeps
	// the write-back backlog bounded under this write-heavy workload.
	mcfg := pagemgr.DefaultConfig(cfg.CacheFrames)
	mcfg.CleanerPeriod = 10 * sim.Microsecond
	cfg.Mgr = &mcfg
	if sharded {
		cfg.Shards = cores
	} else {
		cfg.Shards = 1
		cfg.WideLocks = true
	}
	eng := sim.New()
	sys := core.New(eng, cfg)
	sys.Start()
	base, err := sys.MmapDDC(ws)
	if err != nil {
		panic(err)
	}
	var elapsed sim.Time
	for c := 0; c < cores; c++ {
		c := c
		sys.Launch(fmt.Sprintf("app%d", c), c, func(sp *core.DDCProc) {
			t0 := sp.Now()
			// Two random passes over the partition (LCG page order, distinct
			// stream per core): pass one faults ~everything in, pass two
			// keeps faulting against a full cache, so the steady state the
			// row reports includes cleaner and reclaimer pressure.
			lcg := uint64(c)*0x9e3779b97f4a7c15 + 0xd1705
			pbase := base + uint64(c)*partPages*core.PageSize
			n := int(partPages) * 2
			for i := 0; i < n; i++ {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				page := (lcg >> 33) % partPages
				sp.StoreU64(pbase+page*core.PageSize, lcg)
				// Re-dirty a stripe of the hot window every iteration. The
				// hot pages stay resident (their accessed bits win the
				// clock's second chance), so these are cache hits that feed
				// the cleaner a steady per-core write-back load — the
				// pressure a shared cleaner serializes behind one lock and
				// sharded cleaners drain in parallel.
				for h := uint64(0); h < scalingHotStride; h++ {
					hp := (uint64(i)*scalingHotStride + h) % scalingHotPages
					sp.StoreU64(pbase+hp*core.PageSize+8, lcg)
				}
			}
			if d := sp.Now() - t0; d > elapsed {
				elapsed = d
			}
		})
	}
	eng.Run()
	arm := "shared"
	if sharded {
		arm = "sharded"
	}
	r.collect(fmt.Sprintf("ext10/%s/%dc", arm, cores), sys)
	return sys.MajorFaults.N, elapsed, sys.FaultLat.P99()
}

// ExtScaling runs ext10: the ScalingCores sweep over both arms.
func ExtScaling(r *Run) ScalingResult {
	var res ScalingResult
	for _, cores := range r.ScalingCores {
		row := ScalingRow{Cores: cores}
		row.SharedFaults, row.SharedElapsed, row.SharedP99 = r.runScalingLeg(cores, false)
		row.ShardedFaults, row.ShardedElapsed, row.ShardedP99 = r.runScalingLeg(cores, true)
		row.SharedRate = rate(row.SharedFaults, row.SharedElapsed)
		row.ShardedRate = rate(row.ShardedFaults, row.ShardedElapsed)
		res.Rows = append(res.Rows, row)
	}
	base, at4 := res.Rows[0], res.Rows[0]
	for _, row := range res.Rows {
		if row.Cores == 4 {
			at4 = row
		}
	}
	if base.SharedRate > 0 {
		res.SharedSpeedup = at4.SharedRate / base.SharedRate
	}
	if base.ShardedRate > 0 {
		res.ShardedSpeedup = at4.ShardedRate / base.ShardedRate
	}
	return res
}

func rate(n int64, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / (float64(d) / float64(sim.Second))
}
