package experiments

import (
	"bytes"

	"dilos/internal/chaos"
	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/obs"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
	"dilos/internal/workloads"
)

// This file holds ext11: the price and the payoff of the always-on
// observability plane (internal/obs). Three questions, three legs:
//
//   - Overhead: the ext5 sequential-read throughput plane with the full
//     plane attached (SLO monitor + journal + tail-sampled flight
//     recorder) versus plane-off. The plane runs entirely in host time,
//     so the virtual-time throughput must be *identical*, not merely
//     within 1 % — the leg gates on equality. (Host-time cost is measured
//     separately by BenchmarkFaultPathObs.)
//   - Determinism: two same-seed plane-on runs must render byte-identical
//     /metrics, /statusz, and /journalz pages — observability output is
//     part of the reproducibility contract.
//   - Detection: a chaos tail storm (TailAt mid-run) must raise the
//     burn-rate alert within the detection budget, and the storm-free
//     twin of the same run must never alert.

// Ext11's SLO tuning compresses the SRE multi-window shape to the
// simulator's µs–ms timescale: the budget sits ~7× above DiLOS's clean
// fault p99 (≈3.5 µs, Figure 6) so a healthy run never burns, while a
// ×30 tail amplification blows it on every affected fault.
const (
	ext11Budget  = 25 * sim.Microsecond
	ext11Target  = 0.99
	ext11MaxBurn = 8
	ext11Long    = 500 * sim.Microsecond
	ext11Short   = 100 * sim.Microsecond
	ext11Eval    = 50 * sim.Microsecond

	// The detection leg's timeline: a fixed-span cyclic read with the
	// tail storm switching on mid-run.
	ext11RunFor = 10 * sim.Millisecond
	ext11TailAt = 5 * sim.Millisecond

	// DetectBudget is the gate on alert latency: one long window (the
	// burn must sustain across it) plus evaluation slack.
	ext11DetectBudget = ext11Long + 4*ext11Eval
)

// Ext11TailAt exposes the storm onset for the CLI banner.
func Ext11TailAt() sim.Time { return ext11TailAt }

// Ext11DetectBudget exposes the detection-latency gate.
func Ext11DetectBudget() sim.Time { return ext11DetectBudget }

// ObsResult is the ext11 outcome.
type ObsResult struct {
	Seed uint64

	// Overhead leg: ext5-style sequential read at 12.5 % cache.
	OffElapsed sim.Time // plane off
	OnElapsed  sim.Time // plane on (monitor + journal + sampled recorder)
	OffGBs     float64
	OnGBs      float64

	// Determinism leg: two same-seed plane-on runs.
	Deterministic bool
	PageBytes     int // rendered metrics+status+journal size
	SampledOut    int64
	JournalEvents int

	// Alert legs.
	CleanAlerts   int64    // raised on the storm-free runs (must stay 0)
	TailAt        sim.Time // storm onset
	Detected      bool
	DetectedAt    sim.Time // first raised alert on the storm run
	DetectLatency sim.Time // DetectedAt - TailAt
	TailsInjected int64
	StormRaised   int64 // alert raises on the storm run
}

// ext11Plane builds the full plane with the µs-scale objective template.
func ext11Plane() *obs.Plane {
	pl := obs.NewPlane()
	pl.Objective = obs.Objective{
		Budget: ext11Budget,
		Target: ext11Target,
		Rules:  []obs.BurnRule{{Long: ext11Long, Short: ext11Short, MaxBurn: ext11MaxBurn}},
	}
	pl.EvalEvery = ext11Eval
	return pl
}

// ext11Seq runs the ext5 sequential-read leg (12.5 % cache, 31-page
// readahead) with the given plane (nil = plane off) and returns elapsed
// virtual time plus the system for post-run inspection.
func (r *Run) ext11Seq(pl *obs.Plane) (sim.Time, *core.System) {
	sc := r.Scale
	eng := sim.New()
	cfg := core.Config{
		CacheFrames: frames(sc.SeqPages, 0.125),
		Cores:       4,
		RemoteBytes: sc.SeqPages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  prefetch.NewReadahead(31),
		Obs:         pl,
	}
	if pl != nil {
		// The always-on shape: tail-sampled flight recorder — keep every
		// over-budget span, 1 in 16 of the rest.
		cfg.Tel = telemetry.NewRecorder(0)
		cfg.Tel.SetPolicy(telemetry.SamplePolicy{Threshold: ext11Budget, KeepEvery: 16})
	}
	r.applyCores(&cfg)
	sys := core.New(eng, cfg)
	sys.Start()
	var d sim.Time
	sys.Launch("seq", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(sc.SeqPages)
		if err != nil {
			panic(err)
		}
		d = workloads.SeqRead(sp, base, sc.SeqPages)
	})
	eng.Run()
	return d, sys
}

// ext11Render produces the full observability output of a finished run —
// the bytes the determinism leg compares.
func ext11Render(sys *core.System, pl *obs.Plane) []byte {
	page := obs.AppendMetrics(nil, sys.Registry().Snapshot(), sys.Tel)
	page = sys.AppendStatus(page, sys.Eng.Now())
	if pl != nil && pl.Journal != nil {
		page = pl.Journal.AppendJSONL(page)
	}
	return page
}

// ext11Detect runs the detection leg: a fixed-span cyclic read under a
// seeded injector whose tail storm (×30 amplification on 60 % of ops)
// switches on at ext11TailAt — or never, when storm is false. The
// storm-free twin consumes the identical PRNG sequence (the window gate
// is draw-free), so the two runs differ only in injected latency.
func (r *Run) ext11Detect(storm bool) (*obs.Plane, *chaos.Injector) {
	pages := r.Scale.SeqPages / 8
	if pages < 1024 {
		pages = 1024
	}
	ccfg := chaos.Config{Seed: r.ChaosSeed}
	if storm {
		ccfg.TailProb = 0.6
		ccfg.TailFactor = 30
		ccfg.TailAt = ext11TailAt
	}
	inj := chaos.NewInjector(ccfg)
	pl := ext11Plane()
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: frames(pages, 0.125),
		Cores:       2,
		RemoteBytes: pages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Chaos:       inj,
		Obs:         pl,
	})
	sys.Start()
	sys.Launch("obs-app", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			panic(err)
		}
		i := uint64(0)
		for sp.Proc().Now() < ext11RunFor {
			sp.LoadU64(base + i*core.PageSize)
			i = (i + 1) % pages
		}
	})
	eng.Run()
	label := "ext11/detect-clean"
	if storm {
		label = "ext11/detect-storm"
	}
	r.collect(label, sys)
	return pl, inj
}

// ExtObs runs ext11. Same ChaosSeed ⇒ identical result, byte for byte —
// including every page the plane publishes.
func ExtObs(r *Run) ObsResult {
	res := ObsResult{Seed: r.ChaosSeed, TailAt: ext11TailAt}

	// Overhead: plane off, then two same-seed plane-on runs (the second
	// feeds the determinism comparison).
	var offSys, onSys, onSys2 *core.System
	res.OffElapsed, offSys = r.ext11Seq(nil)
	r.collect("ext11/seq-off", offSys)
	plOn := ext11Plane()
	res.OnElapsed, onSys = r.ext11Seq(plOn)
	r.collect("ext11/seq-on", onSys)
	plOn2 := ext11Plane()
	on2, sys2 := r.ext11Seq(plOn2)
	onSys2 = sys2
	bytesRead := float64(r.Scale.SeqPages * 4096)
	res.OffGBs = stats.GBps(bytesRead / res.OffElapsed.Seconds())
	res.OnGBs = stats.GBps(bytesRead / res.OnElapsed.Seconds())

	pageA := ext11Render(onSys, plOn)
	pageB := ext11Render(onSys2, plOn2)
	res.Deterministic = bytes.Equal(pageA, pageB) && res.OnElapsed == on2
	res.PageBytes = len(pageA)
	res.SampledOut = onSys.Tel.SampledOutTotal()
	res.JournalEvents = len(plOn.Journal.Events())
	res.CleanAlerts = plOn.Monitor.Raised.N + plOn2.Monitor.Raised.N

	// Detection: storm and storm-free twins.
	plStorm, inj := r.ext11Detect(true)
	res.TailsInjected = inj.Tails.N
	res.StormRaised = plStorm.Monitor.Raised.N
	if at, ok := plStorm.Monitor.FirstRaise(""); ok {
		res.Detected = true
		res.DetectedAt = at
		res.DetectLatency = at - ext11TailAt
	}
	plClean, _ := r.ext11Detect(false)
	res.CleanAlerts += plClean.Monitor.Raised.N
	return res
}
