package experiments

import (
	"dilos/internal/chaos"
	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/sim"
)

// This file holds ext4, the chaos extension: DiLOS (and this repository's
// replication + health-monitor extensions) under deterministic fault
// injection. The paper assumes a lossless fabric and healthy memory nodes;
// ext4 measures what the failure-handling stack (internal/chaos,
// fabric.ReliableQP, core.HealthMonitor, placement's node states) costs and
// buys when that assumption breaks: a whole memory node crashes mid-run and
// later returns.

// ChaosResult is the ext4 outcome: the timeline of a replicated system
// riding through a scheduled node crash, plus the counters that prove the
// failure-handling stack — not luck — carried it.
type ChaosResult struct {
	Seed       uint64
	Pages      uint64
	CrashAt    sim.Time // scheduled outage start (node 1)
	CrashUntil sim.Time // scheduled outage end

	DetectedAt  sim.Time // health monitor tripped the breaker (0 = never)
	RecoveredAt sim.Time // recovery (incl. re-replication) completed (0 = never)
	RunFor      sim.Time // total run length (scales with the working set)

	// Application throughput by phase, GB/s of pages touched (whole
	// 1 ms buckets inside each phase).
	BaselineGBs  float64 // before the crash
	OutageGBs    float64 // crash start → recovery complete
	DipGBs       float64 // worst single bucket inside the outage
	RecoveredGBs float64 // after recovery

	// Series is the full per-millisecond throughput timeline (GB/s).
	Series []float64

	// Fault-handling counters.
	InjectedFails  int64 // ops the injector failed (node-down here)
	Retries        int64 // fetch-path op re-issues (retry/backoff layer)
	Timeouts       int64 // retried ops abandoned on budget
	GaveUp         int64 // retried ops abandoned on attempts
	ReplicaFetches int64 // fetches served by a non-primary replica
	WriteFails     int64 // write-backs that failed and stayed dirty
	ReReplicated   int64 // pages copied back onto the recovered node
	NodeFails      int64 // breaker trips
	NodeRecoveries int64 // completed recoveries
}

// Ext4 timeline: the crash window sits well inside the run so the result
// captures a clean baseline, the dip, and the recovered steady state. The
// run length grows with the working set, because recovery re-replicates
// every page sequentially and must complete on-screen.
const (
	chaosBucket     = sim.Millisecond
	chaosCrashAt    = 3 * sim.Millisecond
	chaosCrashUntil = 8 * sim.Millisecond
)

// chaosRunFor sizes the run: outage end + probe cooldowns + sequential
// re-replication of the whole working set (≈4.5 µs/page) + a post-recovery
// observation tail, rounded up to whole buckets.
func chaosRunFor(pages uint64) sim.Time {
	d := chaosCrashUntil + 2*sim.Millisecond + sim.Time(pages)*6*sim.Microsecond + 4*sim.Millisecond
	return (d + chaosBucket - 1) / chaosBucket * chaosBucket
}

// ExtChaos runs ext4: a 2-node, fully replicated (Replicas: 2) DiLOS system
// under a scheduled crash of memory node 1, with the health monitor armed.
// The workload cycles a working set 8× its cache for a fixed span of
// virtual time, so the throughput series shows the crash dip and the
// recovery. Same ChaosSeed ⇒ identical result, byte for byte.
func ExtChaos(r *Run) ChaosResult {
	seed := r.ChaosSeed
	pages := r.Scale.SeqPages / 8
	if pages < 1024 {
		pages = 1024
	}
	inj := chaos.NewInjector(chaos.Config{
		Seed: seed,
		Crashes: []chaos.CrashWindow{
			{Node: 1, At: chaosCrashAt, Until: chaosCrashUntil},
		},
	})
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: frames(pages, 0.125),
		Cores:       2,
		RemoteBytes: pages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		MemNodes:    2,
		Replicas:    2,
		Chaos:       inj,
	})
	sys.Start()

	runFor := chaosRunFor(pages)
	buckets := make([]int64, runFor/chaosBucket)
	sys.Launch("chaos-app", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			panic(err)
		}
		i := uint64(0)
		for {
			now := sp.Proc().Now()
			if now >= runFor {
				return
			}
			// Read-modify-write sweep: reads exercise fetch failover, the
			// stores keep the cleaner writing back (and failing over) too.
			v := sp.LoadU64(base + i*core.PageSize)
			if i%4 == 0 {
				sp.StoreU64(base+i*core.PageSize, v+1)
			}
			if b := int(now / chaosBucket); b < len(buckets) {
				buckets[b] += core.PageSize
			}
			i = (i + 1) % pages
		}
	})
	eng.Run()
	r.collect("ext4/crash", sys)

	res := ChaosResult{
		Seed:           seed,
		Pages:          pages,
		CrashAt:        chaosCrashAt,
		CrashUntil:     chaosCrashUntil,
		RunFor:         runFor,
		DetectedAt:     sys.Health.LastFailAt[1],
		RecoveredAt:    sys.Health.LastRecoverAt[1],
		InjectedFails:  sys.Chaos.Fails.N,
		Retries:        sys.FetchRetries.Retries.N,
		Timeouts:       sys.FetchRetries.Timeouts.N,
		GaveUp:         sys.FetchRetries.GaveUp.N,
		ReplicaFetches: sys.ReplicaFetches.N,
		WriteFails:     sys.Mgr.WriteFails.N,
		ReReplicated:   sys.ReReplicated.N,
		NodeFails:      sys.Health.NodeFails.N,
		NodeRecoveries: sys.Health.NodeRecoveries.N,
	}
	for _, b := range buckets {
		res.Series = append(res.Series, float64(b)/1e9/chaosBucket.Seconds())
	}
	res.BaselineGBs = phaseGBs(buckets, 0, chaosCrashAt)
	end := res.RecoveredAt
	if end == 0 || end > runFor {
		end = runFor
	}
	res.OutageGBs = phaseGBs(buckets, chaosCrashAt, end)
	res.RecoveredGBs = phaseGBs(buckets, end, runFor)
	res.DipGBs = res.OutageGBs
	for i, b := range buckets {
		at := sim.Time(i) * chaosBucket
		if at >= chaosCrashAt && at+chaosBucket <= end {
			if g := float64(b) / 1e9 / chaosBucket.Seconds(); g < res.DipGBs {
				res.DipGBs = g
			}
		}
	}
	return res
}

// phaseGBs averages the buckets lying entirely inside [from, to) into a
// GB/s figure — partial buckets at the phase edges are dropped rather than
// diluting the average.
func phaseGBs(buckets []int64, from, to sim.Time) float64 {
	var bytes int64
	n := 0
	for i, b := range buckets {
		at := sim.Time(i) * chaosBucket
		if at >= from && at+chaosBucket <= to {
			bytes += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(bytes) / 1e9 / (sim.Time(n) * chaosBucket).Seconds()
}
