// Package dilos_bench is the benchmark harness required by the evaluation:
// one testing.B benchmark per paper table and figure. Each benchmark runs
// the corresponding experiment from internal/experiments at a reduced (but
// shape-preserving) scale and reports the headline values as custom
// metrics, so `go test -bench=. -benchmem` regenerates the whole
// evaluation. `go run ./cmd/dilosbench -exp all` prints the full
// paper-format rows at default scale.
package dilos_bench

import (
	"fmt"
	"testing"

	"dilos/internal/core"
	"dilos/internal/experiments"
	"dilos/internal/fabric"
	"dilos/internal/kvcache"
	"dilos/internal/obs"
	"dilos/internal/pagemgr"
	"dilos/internal/sim"
	"dilos/internal/telemetry"
)

// benchRun is a fresh run value (published options) per iteration, at a
// scale that keeps every benchmark iteration under a couple of seconds
// while preserving the cache-fraction ratios that drive the shapes.
func benchRun() *experiments.Run {
	o := experiments.DefaultOptions()
	o.Scale = experiments.Scale{
		SeqPages:      4096,
		QuicksortN:    256 << 10,
		KMeansPoints:  40_000,
		SnappyBytes:   2 << 20,
		DataframeRows: 40_000,
		GraphScale:    12,
		RedisKeys4K:   512,
		RedisKeys64K:  64,
		RedisKeysMix:  96,
		RedisQueries:  1000,
		RedisLists:    32,
		RedisListElem: 4000,
	}
	return experiments.NewRun(o)
}

// BenchmarkFig1FastswapFaultBreakdown regenerates Figure 1.
func BenchmarkFig1FastswapFaultBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig1(benchRun())
		b.ReportMetric(rows[0].Total.Micros(), "avg-fault-us")
		b.ReportMetric(rows[0].Reclaim.Micros(), "reclaim-us")
		b.ReportMetric(rows[1].Total.Micros(), "noreclaim-fault-us")
	}
}

// BenchmarkFig2RDMALatency regenerates Figure 2.
func BenchmarkFig2RDMALatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig2()
		for _, r := range rows {
			if r.Size == 128 || r.Size == 4096 {
				b.ReportMetric(r.ReadLat.Micros(), fmt.Sprintf("read-%dB-us", r.Size))
			}
		}
	}
}

// BenchmarkTab1FastswapFaultCounts regenerates Table 1.
func BenchmarkTab1FastswapFaultCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Tab1(benchRun())
		b.ReportMetric(100*float64(r.Major)/float64(r.Total), "major-pct")
		b.ReportMetric(float64(r.Minor), "minor-faults")
	}
}

// BenchmarkTab2SequentialThroughput regenerates Table 2.
func BenchmarkTab2SequentialThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Tab2(benchRun()) {
			tag := map[experiments.SystemKind]string{
				experiments.SysFastswap:   "fastswap",
				experiments.SysDiLOSNone:  "dilos-none",
				experiments.SysDiLOSRA:    "dilos-ra",
				experiments.SysDiLOSTrend: "dilos-trend",
			}[r.System]
			b.ReportMetric(r.ReadGBs, tag+"-read-GBs")
			b.ReportMetric(r.WriteGBs, tag+"-write-GBs")
		}
	}
}

// BenchmarkFig6FaultBreakdownComparison regenerates Figure 6.
func BenchmarkFig6FaultBreakdownComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(benchRun())
		var fs, dl float64
		for _, r := range rows {
			switch r.Label {
			case "Fastswap":
				fs = r.Total.Micros()
			case "DiLOS":
				dl = r.Total.Micros()
			}
		}
		b.ReportMetric(fs, "fastswap-fault-us")
		b.ReportMetric(dl, "dilos-fault-us")
		b.ReportMetric(100*(1-dl/fs), "reduction-pct")
	}
}

// BenchmarkTab3FaultCounts regenerates Table 3.
func BenchmarkTab3FaultCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Tab3(benchRun()) {
			if r.System == experiments.SysDiLOSRA {
				b.ReportMetric(float64(r.Major), "dilos-ra-major")
				b.ReportMetric(float64(r.Minor), "dilos-ra-minor")
			}
			if r.System == experiments.SysFastswap {
				b.ReportMetric(float64(r.Minor), "fastswap-minor")
			}
		}
	}
}

// reportSpeedup reports DiLOS' advantage over Fastswap at 12.5% local.
func reportSpeedup(b *testing.B, rows []experiments.CompletionRow) {
	var fs, dl float64
	for _, r := range rows {
		if r.Fraction != 0.125 {
			continue
		}
		switch r.System {
		case experiments.SysFastswap:
			fs = r.Elapsed.Seconds()
		case experiments.SysDiLOSRA:
			dl = r.Elapsed.Seconds()
		}
	}
	b.ReportMetric(fs*1000, "fastswap-12.5pct-ms")
	b.ReportMetric(dl*1000, "dilos-12.5pct-ms")
	if dl > 0 {
		b.ReportMetric(fs/dl, "dilos-speedup-x")
	}
}

// BenchmarkFig7aQuicksort regenerates Figure 7(a).
func BenchmarkFig7aQuicksort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpeedup(b, experiments.Fig7a(benchRun()))
	}
}

// BenchmarkFig7bKMeans regenerates Figure 7(b).
func BenchmarkFig7bKMeans(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpeedup(b, experiments.Fig7b(benchRun()))
	}
}

// BenchmarkFig7cSnappyCompression regenerates Figure 7(c).
func BenchmarkFig7cSnappyCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7c(benchRun())
		reportSpeedup(b, rows)
		for _, r := range rows {
			if r.System == experiments.SysAIFM && r.Fraction == 0.125 {
				b.ReportMetric(r.Elapsed.Seconds()*1000, "aifm-12.5pct-ms")
			}
		}
	}
}

// BenchmarkFig7dSnappyDecompression regenerates Figure 7(d).
func BenchmarkFig7dSnappyDecompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpeedup(b, experiments.Fig7d(benchRun()))
	}
}

// BenchmarkFig8DataFrame regenerates Figure 8.
func BenchmarkFig8DataFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(benchRun())
		reportSpeedup(b, rows)
		var aifm, dilos float64
		for _, r := range rows {
			if r.Fraction == 1.0 {
				switch r.System {
				case experiments.SysAIFM:
					aifm = r.Elapsed.Seconds()
				case experiments.SysDiLOSRA:
					dilos = r.Elapsed.Seconds()
				}
			}
		}
		if dilos > 0 {
			// The paper's headline: AIFM 50–83% slower at 100% local.
			b.ReportMetric(100*(aifm/dilos-1), "aifm-tax-at-100pct-pct")
		}
	}
}

// BenchmarkFig9aPageRank regenerates Figure 9(a).
func BenchmarkFig9aPageRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpeedup(b, experiments.Fig9a(benchRun()))
	}
}

// BenchmarkFig9bBetweennessCentrality regenerates Figure 9(b).
func BenchmarkFig9bBetweennessCentrality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSpeedup(b, experiments.Fig9b(benchRun()))
	}
}

func reportRedis(b *testing.B, rows []experiments.RedisRow) {
	var fs, none, app float64
	for _, r := range rows {
		if r.Fraction != 0.125 {
			continue
		}
		switch r.System {
		case experiments.SysFastswap:
			fs = r.OpsPerS
		case experiments.SysDiLOSNone:
			none = r.OpsPerS
		case experiments.SysDiLOSApp:
			app = r.OpsPerS
		}
	}
	b.ReportMetric(fs, "fastswap-ops")
	b.ReportMetric(none, "dilos-none-ops")
	b.ReportMetric(app, "dilos-app-ops")
	if fs > 0 {
		b.ReportMetric(app/fs, "app-vs-fastswap-x")
	}
}

// BenchmarkFig10aRedisGET4K regenerates Figure 10(a).
func BenchmarkFig10aRedisGET4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRedis(b, experiments.Fig10a(benchRun()))
	}
}

// BenchmarkFig10bRedisGET64K regenerates Figure 10(b).
func BenchmarkFig10bRedisGET64K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRedis(b, experiments.Fig10b(benchRun()))
	}
}

// BenchmarkFig10cRedisGETMixed regenerates Figure 10(c).
func BenchmarkFig10cRedisGETMixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRedis(b, experiments.Fig10c(benchRun()))
	}
}

// BenchmarkFig10dRedisLRANGE regenerates Figure 10(d).
func BenchmarkFig10dRedisLRANGE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportRedis(b, experiments.Fig10d(benchRun()))
	}
}

// BenchmarkTab4TailLatency regenerates Table 4.
func BenchmarkTab4TailLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Tab4(benchRun()) {
			switch r.System {
			case experiments.SysFastswap:
				b.ReportMetric(r.GetP99.Micros(), "fastswap-get-p99-us")
				b.ReportMetric(r.LRangeP99.Micros(), "fastswap-lrange-p99-us")
			case experiments.SysDiLOSApp:
				b.ReportMetric(r.GetP99.Micros(), "dilos-app-get-p99-us")
				b.ReportMetric(r.LRangeP99.Micros(), "dilos-app-lrange-p99-us")
			}
		}
	}
}

// BenchmarkFig12GuidedPagingBandwidth regenerates Figure 12.
func BenchmarkFig12GuidedPagingBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig12(benchRun())
		def, guided := rows[0], rows[1]
		b.ReportMetric(100*(1-guided.DelTxMB/def.DelTxMB), "del-saving-pct")
		b.ReportMetric(100*(1-guided.GetRxMB/def.GetRxMB), "get-saving-pct")
	}
}

// BenchmarkAblationEagerEviction quantifies §4.4's eager background
// reclamation against an on-demand variant.
func BenchmarkAblationEagerEviction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationEagerEviction(benchRun())
		b.ReportMetric(rows[0].WriteGBs, "eager-write-GBs")
		b.ReportMetric(rows[1].WriteGBs, "ondemand-write-GBs")
	}
}

// BenchmarkAblationSharedQueue quantifies §4.5's shared-nothing queues
// against one queue per core (head-of-line blocking).
func BenchmarkAblationSharedQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationSharedQueue(benchRun())
		b.ReportMetric(rows[0].WriteGBs, "shared-nothing-write-GBs")
		b.ReportMetric(rows[1].WriteGBs, "shared-queue-write-GBs")
		b.ReportMetric(rows[0].FaultP99.Micros(), "shared-nothing-p99-us")
		b.ReportMetric(rows[1].FaultP99.Micros(), "shared-queue-p99-us")
	}
}

// BenchmarkExtMultiNode quantifies the §5.1 sharding extension.
func BenchmarkExtMultiNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.ExtMultiNode(benchRun())
		for _, r := range rows {
			b.ReportMetric(r.ReadGBs, fmt.Sprintf("nodes%d-read-GBs", r.Nodes))
		}
	}
}

// BenchmarkFaultPath measures the host-side (real CPU) cost of one major
// fault through the sharded manager — simulator overhead, not simulated
// latency. The working set is 8× the cache, so every touch in the cycle
// is a major fault with eviction pressure behind it.
func BenchmarkFaultPath(b *testing.B) {
	const pages = 8192
	eng := sim.New()
	sys := core.New(eng, core.Config{
		CacheFrames: pages / 8,
		Cores:       2,
		Shards:      2,
		RemoteBytes: pages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Batch:       true,
	})
	sys.Start()
	sys.Launch("bench", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			b.Fatal(err)
		}
		// Warm up: size the slot table and scratch arenas.
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*core.PageSize, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.LoadU64(base + uint64(i)%pages*core.PageSize)
		}
		b.StopTimer()
	})
	eng.Run()
	if sys.MajorFaults.N < int64(b.N) {
		b.Fatalf("only %d major faults for %d iterations — not exercising the fault path", sys.MajorFaults.N, b.N)
	}
}

// BenchmarkFaultPathObs is BenchmarkFaultPath with the full always-on
// observability plane attached: SLO burn-rate monitor, event journal, and
// a tail-sampled flight recorder (keep every over-budget span, 1 in 16 of
// the rest). The delta against BenchmarkFaultPath is the host-side cost of
// the plane per fault.
func BenchmarkFaultPathObs(b *testing.B) {
	const pages = 8192
	eng := sim.New()
	pl := obs.NewPlane()
	pl.Objective = obs.Objective{
		Budget: 25 * sim.Microsecond,
		Target: 0.99,
		Rules:  []obs.BurnRule{{Long: 500 * sim.Microsecond, Short: 100 * sim.Microsecond, MaxBurn: 8}},
	}
	pl.EvalEvery = 50 * sim.Microsecond
	tel := telemetry.NewRecorder(0)
	tel.SetPolicy(telemetry.SamplePolicy{Threshold: 25 * sim.Microsecond, KeepEvery: 16})
	sys := core.New(eng, core.Config{
		CacheFrames: pages / 8,
		Cores:       2,
		Shards:      2,
		RemoteBytes: pages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Batch:       true,
		Obs:         pl,
		Tel:         tel,
	})
	sys.Start()
	sys.Launch("bench", 0, func(sp *core.DDCProc) {
		base, err := sys.MmapDDC(pages)
		if err != nil {
			b.Fatal(err)
		}
		for i := uint64(0); i < pages; i++ {
			sp.StoreU64(base+i*core.PageSize, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp.LoadU64(base + uint64(i)%pages*core.PageSize)
		}
		b.StopTimer()
	})
	eng.Run()
	if sys.MajorFaults.N < int64(b.N) {
		b.Fatalf("only %d major faults for %d iterations — not exercising the fault path", sys.MajorFaults.N, b.N)
	}
}

// BenchmarkKVDecodeStep measures the host-side cost of one guided KV
// decode step — the full per-token path: layerwise guide notifications,
// prefetch issue on the guide daemon, the token-scan reads with their
// faults, and the append writes. Sequences that fill up are finished and
// recycled off the timer, so steady state includes region reuse.
func BenchmarkKVDecodeStep(b *testing.B) {
	p := kvcache.DefaultParams()
	ws := int(uint64(p.Layers) * p.RegionPages())
	eng := sim.New()
	frames := ws * 3 / 4
	mcfg := pagemgr.DefaultConfig(frames)
	mcfg.LowWater = frames / 4
	mcfg.HighWater = frames / 2
	sys := core.New(eng, core.Config{
		CacheFrames: frames, // smaller than one sequence: decode always pages
		Cores:       2,
		RemoteBytes: 256 << 20,
		Fabric:      fabric.DefaultParams(),
		Batch:       true,
		Mgr:         &mcfg,
	})
	g := kvcache.NewGuide(sys)
	sys.Start()
	var cache *kvcache.Cache
	sys.Launch("bench", 0, func(sp *core.DDCProc) {
		c, err := kvcache.New(sys, p, 1)
		if err != nil {
			b.Fatal(err)
		}
		cache = c
		prefill := func() *kvcache.Sequence {
			s, err := c.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Prefill(sp, s, p.MaxTokens/2, g); err != nil {
				b.Fatal(err)
			}
			return s
		}
		s := prefill()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Tokens() >= p.MaxTokens {
				b.StopTimer()
				c.Finish(sp, s)
				s = prefill()
				b.StartTimer()
			}
			if _, err := c.DecodeStep(sp, s, g); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
	})
	eng.Run()
	if cache.BadReads.N != 0 {
		b.Fatalf("%d bad reads during the benchmark", cache.BadReads.N)
	}
}
