package experiments

import (
	"sort"
	"strings"

	"dilos/internal/chaos"
	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/migrate"
	"dilos/internal/placement"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// This file holds ext7, the elastic-pool extension: live page migration
// under load. The paper's pool membership is fixed at boot; ext7 drains a
// memory node out of a 3-node replicated pool while the workload keeps
// faulting through it, and measures what the copy-then-flip protocol
// (internal/migrate) costs the fault path — windowed p99 latency during
// the drain versus before it — and proves it loses nothing: every load is
// checked against a host-side shadow of the stores. A second leg crashes
// the draining node mid-evacuation (chaos + health monitor) and the drain
// still completes off the surviving replicas.

// ElasticResult is the ext7 outcome.
type ElasticResult struct {
	Pages uint64
	Node  int // drained node

	DrainAt     sim.Time
	DrainDoneAt sim.Time // node Removed (0 = never)
	RunFor      sim.Time

	// Migration-engine counters for the clean leg.
	PagesMoved   int64
	CopyRestarts int64 // copy rounds restarted by racing write-backs
	Stranded     int64 // moves aborted after MaxRounds (re-collected later)
	Forwarded    int   // forwarding entries live at the end

	// Windowed major-fault latency: before the drain, during it, after.
	BaselineP50, BaselineP99 sim.Time
	DrainP50, DrainP99       sim.Time
	AfterP99                 sim.Time
	P99Ratio                 float64 // DrainP99 / BaselineP99 (target ≤ 2×)

	// Application throughput by phase (GB/s of pages touched) and the
	// full per-millisecond series.
	BaselineGBs, DrainGBs, AfterGBs float64
	Series                          []float64

	// Corruptions counts loads that contradicted the host-side shadow of
	// every store — the zero-loss acceptance gate.
	Corruptions int64

	// Chaos leg: same drain, but the draining node crashes mid-copy.
	ChaosSeed        uint64
	ChaosDrainDoneAt sim.Time
	ChaosPagesMoved  int64
	ChaosStranded    int64
	ChaosNodeFails   int64
	ChaosCorruptions int64
}

const (
	elasticBucket  = sim.Millisecond
	elasticDrainAt = 3 * sim.Millisecond
)

// elasticRunFor sizes the run: baseline, the drain of ~2/3 of the slot
// population at the engine's pace, and a post-drain observation tail.
func elasticRunFor(pages uint64) sim.Time {
	d := elasticDrainAt + sim.Time(pages)*3*sim.Microsecond + 5*sim.Millisecond
	return (d + elasticBucket - 1) / elasticBucket * elasticBucket
}

// elasticLeg runs one drain-under-load simulation. inj is nil for the
// clean leg; with chaos the health monitor is armed automatically.
type elasticLeg struct {
	drainDoneAt sim.Time
	sys         *core.System
	rec         *telemetry.Recorder
	buckets     []int64
	corruptions int64
	runFor      sim.Time
}

func (r *Run) runElasticLeg(pages uint64, inj *chaos.Injector) elasticLeg {
	node := r.MigrateDrainNode
	eng := sim.New()
	// The recorder is always on here (unlike the other experiments): the
	// windowed p99 needs per-fault spans. Recording adds no virtual time,
	// so the clean and chaos legs stay comparable to every other run.
	rec := telemetry.NewRecorder(1 << 15)
	// Half the default batch size: a 64 KiB burst per doorbell keeps the
	// worst-case head-of-line wait a demand fault can land behind inside
	// the 2× p99 budget, at the cost of a slower (still background) drain.
	tun := migrate.Tuning{BatchPages: 16, Watermark: r.MigrateWatermark}
	sys := core.New(eng, core.Config{
		CacheFrames: frames(pages, 0.125),
		Cores:       2,
		RemoteBytes: pages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		MemNodes:    3,
		Replicas:    2,
		Chaos:       inj,
		Migrate:     &tun,
		Tel:         rec,
		SampleEvery: r.SampleEvery,
	})
	sys.Start()

	leg := elasticLeg{sys: sys, rec: rec, runFor: elasticRunFor(pages)}
	leg.buckets = make([]int64, leg.runFor/elasticBucket)
	shadow := make([]uint64, pages)
	sys.Launch("elastic-app", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			panic(err)
		}
		touch := func() {
			if b := int(sp.Proc().Now() / elasticBucket); b < len(leg.buckets) {
				leg.buckets[b] += core.PageSize
			}
		}
		for i := range shadow {
			shadow[i] = uint64(i) * 2654435761
			sp.StoreU64(base+uint64(i)*core.PageSize, shadow[i])
			touch()
		}
		i := uint64(0)
		for {
			now := sp.Proc().Now()
			if now >= leg.runFor {
				return
			}
			// Read-modify-write sweep checked against the shadow: any page
			// a migration flip, crash, or write-back race garbled shows up
			// as a corruption, not a silent pass.
			v := sp.LoadU64(base + i*core.PageSize)
			if v != shadow[i] {
				leg.corruptions++
			}
			if i%4 == 0 {
				shadow[i] = v + 1
				sp.StoreU64(base+i*core.PageSize, shadow[i])
			}
			touch()
			i = (i + 1) % pages
		}
	})
	eng.Go("elastic-driver", func(p *sim.Proc) {
		p.Sleep(elasticDrainAt)
		if err := sys.Drain(node); err != nil {
			panic(err)
		}
		for p.Now() < leg.runFor {
			if sys.Space().State(node) == placement.Removed {
				leg.drainDoneAt = p.Now()
				return
			}
			p.Sleep(50 * sim.Microsecond)
		}
	})
	eng.Run()
	return leg
}

// faultQuantiles pulls the major-fault spans that started inside
// [from, to) off the per-core tracks and returns the p50/p99 durations.
func faultQuantiles(rec *telemetry.Recorder, from, to sim.Time) (p50, p99 sim.Time) {
	var durs []sim.Time
	for id, name := range rec.Tracks() {
		if !strings.HasPrefix(name, "fault/core") {
			continue
		}
		for _, s := range rec.Spans(id) {
			if s.Kind == telemetry.KindMajorFault && s.Start >= from && s.Start < to {
				durs = append(durs, s.Dur())
			}
		}
	}
	if len(durs) == 0 {
		return 0, 0
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	q := func(p float64) sim.Time {
		i := int(p * float64(len(durs)-1))
		return durs[i]
	}
	return q(0.50), q(0.99)
}

// ExtElastic runs ext7: a 3-node, 2-replica DiLOS pool at 12.5% local
// cache drains MigrateDrainNode mid-run (clean leg), then repeats the
// drain with the draining node crashing mid-copy (chaos leg). Same
// inputs ⇒ identical result, byte for byte.
func ExtElastic(r *Run) ElasticResult {
	pages := r.Scale.SeqPages / 4
	if pages < 1024 {
		pages = 1024
	}
	node, seed := r.MigrateDrainNode, r.ChaosSeed

	clean := r.runElasticLeg(pages, nil)
	r.collect("ext7/drain", clean.sys)

	res := ElasticResult{
		Pages:        pages,
		Node:         node,
		DrainAt:      elasticDrainAt,
		DrainDoneAt:  clean.drainDoneAt,
		RunFor:       clean.runFor,
		PagesMoved:   clean.sys.Mig.PagesMoved.N,
		CopyRestarts: clean.sys.Mig.CopyRestarts.N,
		Stranded:     clean.sys.Mig.Stranded.N,
		Forwarded:    clean.sys.Space().Forwarded(),
		Corruptions:  clean.corruptions,
	}
	for _, b := range clean.buckets {
		res.Series = append(res.Series, float64(b)/1e9/elasticBucket.Seconds())
	}
	drainEnd := res.DrainDoneAt
	if drainEnd == 0 {
		drainEnd = res.RunFor
	}
	// The first millisecond warms the cache; skip it in the baseline.
	res.BaselineP50, res.BaselineP99 = faultQuantiles(clean.rec, elasticBucket, elasticDrainAt)
	res.DrainP50, res.DrainP99 = faultQuantiles(clean.rec, elasticDrainAt, drainEnd)
	_, res.AfterP99 = faultQuantiles(clean.rec, drainEnd, res.RunFor)
	if res.BaselineP99 > 0 {
		res.P99Ratio = float64(res.DrainP99) / float64(res.BaselineP99)
	}
	res.BaselineGBs = phaseGBs(clean.buckets, elasticBucket, elasticDrainAt)
	res.DrainGBs = phaseGBs(clean.buckets, elasticDrainAt, drainEnd)
	res.AfterGBs = phaseGBs(clean.buckets, drainEnd, res.RunFor)

	// Chaos leg: the draining node dies shortly after the drain starts
	// and stays down past most of the evacuation; the engine rolls
	// forward off the surviving replicas.
	inj := chaos.NewInjector(chaos.Config{
		Seed: seed,
		Crashes: []chaos.CrashWindow{
			{Node: node, At: elasticDrainAt + 500*sim.Microsecond, Until: clean.runFor - 3*sim.Millisecond},
		},
	})
	crash := r.runElasticLeg(pages, inj)
	r.collect("ext7/drain-crash", crash.sys)
	res.ChaosSeed = seed
	res.ChaosDrainDoneAt = crash.drainDoneAt
	res.ChaosPagesMoved = crash.sys.Mig.PagesMoved.N
	res.ChaosStranded = crash.sys.Mig.Stranded.N
	res.ChaosNodeFails = crash.sys.Health.NodeFails.N
	res.ChaosCorruptions = crash.corruptions
	return res
}
