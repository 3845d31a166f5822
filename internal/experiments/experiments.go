// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): one constructor per artifact, each returning structured
// rows that cmd/dilosbench prints in the paper's format. DESIGN.md's
// per-experiment index maps each function here to its paper artifact,
// workload, and modules; EXPERIMENTS.md records paper-vs-measured.
//
// Scale: the paper's working sets are 8–40 GB; these runs default to
// MiB-scale working sets with the same local-cache *fractions*
// (12.5/25/50/100 %), which preserve every shape the paper reports (see
// DESIGN.md §2). Scale can be raised via the Scale struct.
//
// Every experiment takes a *Run: the Options of one invocation plus the
// memo of the simulations its entries share. The package keeps no run
// state of its own, so two runs never observe each other.
package experiments

import (
	"fmt"
	"strconv"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/guide"
	"dilos/internal/pagemgr"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/stats"
	"dilos/internal/telemetry"
)

// Options configures one invocation of the experiments. DefaultOptions
// holds the published configuration; cmd/dilosbench binds each field to a
// flag.
type Options struct {
	Scale Scale

	// Collect, when set, receives a labeled stats.Snapshot for every system
	// an experiment runs (-stats). Snapshots are taken after the simulation
	// finishes, so they cover the whole run.
	Collect func(label string, snap stats.Snapshot)
	// TelemetrySink, when set, boots every system with a flight recorder and
	// receives each labeled run's recorder and sampler after the simulation
	// finishes (sam may be nil) (-trace-out). Recording never perturbs
	// simulated time.
	TelemetrySink func(label string, rec *telemetry.Recorder, sam *telemetry.Sampler)
	// SampleEvery is the gauge-sampling interval of every recorded run;
	// zero keeps the recorders but disables periodic sampling.
	SampleEvery sim.Time

	// Batch boots every DiLOS system the experiments construct with
	// doorbell-batched submission (core.Config.Batch). Ext5 measures both
	// modes regardless.
	Batch bool
	// Cores, when positive, overrides the 4-core default of the systems the
	// figure/table experiments boot and switches DiLOS to the per-core
	// sharded page manager (Shards = Cores). Zero keeps every experiment's
	// committed configuration (legacy unsharded manager).
	Cores int
	// ScalingCores are the core counts ext10 sweeps.
	ScalingCores []int

	// ChaosSeed drives the deterministic fault injection and determinism
	// legs of the seeded experiments (ext4, ext7, ext11, ext12).
	ChaosSeed uint64
	// MigrateDrainNode is the memory node ext7 drains (0-2).
	MigrateDrainNode int
	// MigrateWatermark, when positive, arms continuous auto-rebalancing on
	// ext7's migration engine.
	MigrateWatermark float64
	// KVLayers, KVSeqs and KVDecode shape ext12's KV cache: transformer
	// depth (regions per sequence), concurrently live sequences, and decode
	// rounds (tokens per sequence).
	KVLayers, KVSeqs, KVDecode int
}

// DefaultOptions is the configuration the published numbers come from.
func DefaultOptions() Options {
	return Options{
		Scale:            DefaultScale(),
		ScalingCores:     []int{1, 2, 4, 8},
		ChaosSeed:        42,
		MigrateDrainNode: 2,
		KVLayers:         8,
		KVSeqs:           16,
		KVDecode:         32,
	}
}

// Run is one invocation: its Options plus the memo of the sequential
// sweeps already simulated (see seqRun). A Run is not safe for concurrent
// use.
type Run struct {
	Options
	seq map[seqKey]runResult
}

// NewRun starts an invocation under o.
func NewRun(o Options) *Run {
	return &Run{Options: o, seq: map[seqKey]runResult{}}
}

// applyCores applies the Cores override to one DiLOS config.
func (r *Run) applyCores(cfg *core.Config) {
	if r.Cores > 0 {
		cfg.Cores, cfg.Shards = r.Cores, r.Cores
	}
}

// statsSource is any paging system exposing its metric registry.
type statsSource interface{ Registry() *stats.Registry }

// telemetrySource is any paging system exposing its flight recorder.
type telemetrySource interface {
	Telemetry() (*telemetry.Recorder, *telemetry.Sampler)
}

// collect feeds sys's snapshot to the Collect hook and its flight
// recording to the TelemetrySink, whichever are installed.
func (r *Run) collect(label string, sys statsSource) {
	if r.Cores > 0 {
		// One stats block per -cores setting: the label carries the sweep
		// point so blocks from different settings never alias.
		label = fmt.Sprintf("cores%d/%s", r.Cores, label)
	}
	if r.Collect != nil {
		r.Collect(label, sys.Registry().Snapshot())
	}
	if r.TelemetrySink != nil {
		if ts, ok := sys.(telemetrySource); ok {
			if rec, sam := ts.Telemetry(); rec != nil {
				r.TelemetrySink(label, rec, sam)
			}
		}
	}
}

// telemetry returns the flight recorder and sampling interval a system
// boots with: none unless a TelemetrySink will receive the recording.
func (r *Run) telemetry() (*telemetry.Recorder, sim.Time) {
	if r.TelemetrySink == nil {
		return nil, 0
	}
	return telemetry.NewRecorder(0), r.SampleEvery
}

// figureTelemetry is telemetry for the systems dilos and fswap boot: with
// no TelemetrySink they still carry a totals-only recorder (no rings, no
// sampler), whose stage totals runOn projects onto Figures 1 and 6. It
// costs no virtual time and no allocation per span.
func (r *Run) figureTelemetry() (*telemetry.Recorder, sim.Time) {
	if rec, every := r.telemetry(); rec != nil {
		return rec, every
	}
	return telemetry.NewTotals(), 0
}

// Scale sizes the workloads. Zero values select the defaults.
type Scale struct {
	SeqPages      uint64 // sequential read/write working set (pages)
	QuicksortN    uint64 // elements (u64)
	KMeansPoints  uint64
	SnappyBytes   uint64
	DataframeRows uint64
	GraphScale    int // RMAT scale (2^scale vertices)
	RedisKeys4K   int
	RedisKeys64K  int
	RedisKeysMix  int
	RedisQueries  int
	RedisLists    int
	RedisListElem int
}

// DefaultScale is used by the benchmarks and dilosbench unless overridden.
func DefaultScale() Scale {
	return Scale{
		SeqPages:      16384, // 64 MiB
		QuicksortN:    1 << 20,
		KMeansPoints:  150_000,
		SnappyBytes:   8 << 20,
		DataframeRows: 150_000,
		GraphScale:    13,
		RedisKeys4K:   1500,
		RedisKeys64K:  150,
		RedisKeysMix:  240,
		RedisQueries:  3000,
		RedisLists:    64,
		RedisListElem: 12000,
	}
}

// CacheFractions are the local-memory fractions the paper sweeps.
var CacheFractions = []float64{0.125, 0.25, 0.5, 1.0}

// FracLabel formats a cache fraction the way the paper's axes do
// (0.125 → "12.5%").
func FracLabel(f float64) string {
	return strconv.FormatFloat(f*100, 'g', -1, 64) + "%"
}

// SystemKind names an evaluated system configuration.
type SystemKind string

// The configurations the evaluation compares.
const (
	SysFastswap   SystemKind = "Fastswap"
	SysDiLOSNone  SystemKind = "DiLOS no-prefetch"
	SysDiLOSRA    SystemKind = "DiLOS readahead"
	SysDiLOSTrend SystemKind = "DiLOS trend-based"
	SysDiLOSApp   SystemKind = "DiLOS app-aware"
	SysDiLOSTCP   SystemKind = "DiLOS-TCP"
	SysAIFM       SystemKind = "AIFM"
)

// frames computes the cache size for a working set and fraction, with a
// floor so daemons have room to breathe.
func frames(workingSetPages uint64, frac float64) int {
	f := int(float64(workingSetPages) * frac)
	if f < 96 {
		f = 96
	}
	return f
}

// dilos boots a DiLOS node for a working set.
func (r *Run) dilos(eng *sim.Engine, wsPages uint64, frac float64, pf prefetch.Prefetcher,
	g guide.Guide, eg pagemgr.EvictionGuide, tcp bool) *core.System {
	params := fabric.DefaultParams()
	if tcp {
		params = fabric.TCPParams()
	}
	cfg := core.Config{
		CacheFrames:   frames(wsPages, frac),
		Cores:         4,
		RemoteBytes:   wsPages*core.PageSize + (64 << 20),
		Fabric:        params,
		Prefetcher:    pf,
		EvictionGuide: eg,
		Batch:         r.Batch,
	}
	cfg.Tel, cfg.SampleEvery = r.figureTelemetry()
	r.applyCores(&cfg)
	sys := core.New(eng, cfg)
	if g != nil {
		sys.AttachGuide(g)
	}
	sys.Start()
	return sys
}

// fswapCores is the core count of the Fastswap systems the run boots.
func (r *Run) fswapCores() int {
	if r.Cores > 0 {
		return r.Cores
	}
	return 4
}

// fswap boots a Fastswap node for a working set.
func (r *Run) fswap(eng *sim.Engine, wsPages uint64, frac float64) *fastswap.System {
	cfg := fastswap.Config{
		CacheFrames: frames(wsPages, frac),
		Cores:       r.fswapCores(),
		RemoteBytes: wsPages*fastswap.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
	}
	cfg.Tel, cfg.SampleEvery = r.figureTelemetry()
	sys := fastswap.New(eng, cfg)
	sys.Start()
	return sys
}

// pfFor builds the prefetcher for a DiLOS flavour.
func pfFor(kind SystemKind) prefetch.Prefetcher {
	switch kind {
	case SysDiLOSRA, SysDiLOSTCP:
		return prefetch.NewReadahead(0)
	case SysDiLOSTrend:
		return prefetch.NewTrend()
	default:
		return nil
	}
}

// spaceLike abbreviates space.Space in the experiment closures.
type spaceLike = space.Space

// runResult is what runOn reads off a finished system.
type runResult struct {
	elapsed      sim.Time
	major, minor int64
	bd           BreakdownRow // per-fault mean segments; Label unset
}

// breakdownRow projects a recording's major-fault stage totals onto the
// Figure 1/6 columns. StageIssue and StageGuide fall in no column: both are
// zero on the no-prefetch DiLOS the figures print, but Fastswap's
// readahead issue is fault time Figure 1 leaves out.
func breakdownRow(rec *telemetry.Recorder) BreakdownRow {
	t := rec.Totals(telemetry.KindMajorFault)
	row := BreakdownRow{
		Exception: t.Mean(telemetry.StageException),
		Software:  t.Mean(telemetry.StageLookup),
		Fetch:     t.Mean(telemetry.StageWait),
		Map:       t.Mean(telemetry.StageMap),
		Reclaim:   t.Mean(telemetry.StageReclaim),
	}
	row.Total = row.Exception + row.Software + row.Fetch + row.Map + row.Reclaim
	return row
}

// runOn runs fn on the named paging system and returns elapsed virtual
// time, the fault counters and the fault breakdown — the common harness
// for Figures 1 and 6–9 and Tables 1–3. The breakdown comes from the
// system's flight recorder (see figureTelemetry). The -stats label is
// id/kind/fraction.
func (r *Run) runOn(id string, kind SystemKind, wsPages uint64, frac float64,
	fn func(sp space.Space, mmap func(uint64) (uint64, error))) runResult {
	eng := sim.New()
	var res runResult
	label := id + "/" + string(kind) + "/" + FracLabel(frac)
	switch kind {
	case SysFastswap:
		sys := r.fswap(eng, wsPages, frac)
		sys.Launch("app", 0, func(sp *fastswap.FSProc) {
			t0 := sp.Now()
			fn(sp, sys.MmapDDC)
			res.elapsed = sp.Now() - t0
		})
		eng.Run()
		res.major, res.minor, res.bd = sys.MajorFaults.N, sys.MinorFaults.N, breakdownRow(sys.Tel)
		r.collect(label, sys)
	default:
		sys := r.dilos(eng, wsPages, frac, pfFor(kind), nil, nil, kind == SysDiLOSTCP)
		sys.Launch("app", 0, func(sp *core.DDCProc) {
			t0 := sp.Now()
			fn(sp, sys.MmapDDC)
			res.elapsed = sp.Now() - t0
		})
		eng.Run()
		res.major, res.minor, res.bd = sys.MajorFaults.N, sys.MinorFaults.N, breakdownRow(sys.Tel)
		r.collect(label, sys)
	}
	return res
}
