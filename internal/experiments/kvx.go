package experiments

import (
	"bytes"
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/kvcache"
	"dilos/internal/obs"
	"dilos/internal/pagemgr"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
)

// This file holds ext12: the KV-cache tiering workload (internal/kvcache)
// over the pool. The inference phase driver — prefill streams each
// completed layer out through the batched write-back path, decode walks
// the layers reading every past token — runs on three arms per cache
// ratio:
//
//   - none:      demand paging only; every cold layer pays its faults in
//     the decode critical path.
//   - readahead: the kernel's sequential prefetcher. Regions are handed
//     out bit-reversed, so layer-to-layer jumps defeat address-pattern
//     prediction — this arm shows why semantic knowledge is needed.
//   - guided:    the layerwise guide (kvcache.Guide) prefetches layer
//     L+1's pages while layer L computes.
//
// Sequence lifetime drives eviction mid-run: half the sequences finish
// (DiscardRange frees their frames en masse), fresh sequences recycle the
// regions, and one long-lived survivor spills its cold early layers.

// KVFractions are the local-memory ratios ext12 sweeps.
var KVFractions = []float64{0.125, 0.25, 0.5}

// KVRow is one arm × cache-ratio measurement. All fields are comparable,
// so the determinism leg checks rows with ==.
type KVRow struct {
	Arm      string
	Fraction float64

	TTFT     sim.Time // mean prefill (time-to-first-token) latency
	TPOTMean sim.Time // mean decode-step (time-per-output-token) latency
	TPOTP99  sim.Time

	DecodeToks int      // tokens generated across all sequences
	DecodeTime sim.Time // summed decode-step latency
	TokPerSec  float64  // decode throughput

	Prefills     int
	Majors       int64
	BadReads     int64
	GuidePages   int64 // pages covered by guide prefetches (guided arm)
	FreedPages   int64 // frames discarded by mid-run Finish
	SpilledPages int64 // frames pushed out by SpillEarlyLayers
}

// KVResult is the ext12 outcome.
type KVResult struct {
	Seed                 uint64
	Layers, Seqs, Rounds int
	Rows                 []KVRow

	// SpeedupSmallest gates the guide: guided ÷ none decode throughput at
	// the smallest cache ratio (must be ≥ 1.5).
	SpeedupSmallest float64
	// Deterministic is the same-seed rerun check: identical row and
	// byte-identical /metrics + /statusz pages.
	Deterministic bool
	// MetricsHasKV asserts the kvcache.* stat families reached /metrics.
	MetricsHasKV bool
	PageBytes    int
}

// kvRand is splitmix64 — the jitter source for per-sequence prefill
// lengths, seeded from the experiment seed so runs replay exactly.
func kvRand(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ext12Run executes the full phase-driver lifecycle on one arm at one
// cache ratio and returns the measured row plus the rendered
// observability page (the determinism leg's comparison bytes).
func (r *Run) ext12Run(arm string, frac float64) (KVRow, []byte) {
	p := kvcache.DefaultParams()
	p.Layers = r.KVLayers
	nSeqs, rounds := r.KVSeqs, r.KVDecode
	wsPages := uint64(nSeqs) * uint64(p.Layers) * p.RegionPages()

	eng := sim.New()
	var pf prefetch.Prefetcher
	if arm == "readahead" {
		pf = prefetch.NewReadahead(0)
	}
	cfg := core.Config{
		CacheFrames: frames(wsPages, frac),
		Cores:       4,
		RemoteBytes: wsPages*core.PageSize + (64 << 20),
		Fabric:      fabric.DefaultParams(),
		Prefetcher:  pf,
		Batch:       true,
	}
	cfg.Tel, cfg.SampleEvery = r.telemetry()
	// Prefetch never forces reclamation (it drops targets when the pool
	// has no free frame), so the reclaimer's watermarks must cover a full
	// layerwise burst — the vm.watermark tuning every inference box does.
	// All three arms share the sizing, so the comparison stays fair.
	mcfg := pagemgr.DefaultConfig(cfg.CacheFrames)
	mcfg.LowWater = cfg.CacheFrames / 4
	mcfg.HighWater = cfg.CacheFrames / 2
	cfg.Mgr = &mcfg
	r.applyCores(&cfg)
	sys := core.New(eng, cfg)
	var g *kvcache.Guide
	if arm == "guided" {
		g = kvcache.NewGuide(sys)
	}
	sys.Start()

	row := KVRow{Arm: arm, Fraction: frac}
	var cache *kvcache.Cache
	sys.Launch("kv", 0, func(sp *core.DDCProc) {
		c, err := kvcache.New(sys, p, nSeqs)
		if err != nil {
			panic(err)
		}
		cache = c
		rng := r.ChaosSeed

		// Prefill lengths leave room for every decode round: a sequence
		// admitted at any point can still append every decode round's token.
		avail := p.MaxTokens - rounds
		if avail < 2 {
			panic(fmt.Sprintf("ext12: %d decode rounds leave no room in %d-token regions",
				rounds, p.MaxTokens))
		}
		var ttft sim.Time
		prefill := func() *kvcache.Sequence {
			s, err := c.Begin()
			if err != nil {
				panic(err)
			}
			n := avail/2 + int(kvRand(&rng)%uint64(avail-avail/2))
			t0 := sp.Now()
			if err := c.Prefill(sp, s, n, g); err != nil {
				panic(err)
			}
			ttft += sp.Now() - t0
			row.Prefills++
			return s
		}

		seqs := make([]*kvcache.Sequence, 0, nSeqs)
		for i := 0; i < nSeqs; i++ {
			seqs = append(seqs, prefill())
		}
		for round := 0; round < rounds; round++ {
			if round == rounds/2 {
				// Churn: even-index sequences finish (frames freed en
				// masse, no write-back) and fresh sequences recycle their
				// regions.
				for i := 0; i < len(seqs); i += 2 {
					row.FreedPages += int64(c.Finish(sp, seqs[i]))
				}
				for i := 0; i < len(seqs); i += 2 {
					seqs[i] = prefill()
				}
			}
			for i, s := range seqs {
				d, err := c.DecodeStep(sp, s, g)
				if err != nil {
					panic(err)
				}
				row.DecodeTime += d
				row.DecodeToks++
				if round == rounds/2 && i == 1 {
					// The long-lived survivor spills its cold early layers
					// while they are still resident from this step's reads —
					// decode won't touch layer 0 again for a full model
					// depth, so they are the coldest KV in DRAM.
					row.SpilledPages = int64(c.SpillEarlyLayers(sp, s, 2))
				}
			}
		}
		for _, s := range seqs {
			c.Finish(sp, s)
		}
		row.TTFT = ttft / sim.Time(row.Prefills)
	})
	eng.Run()

	row.TPOTMean = cache.DecodeStepH.Mean()
	row.TPOTP99 = cache.DecodeStepH.P99()
	row.TokPerSec = float64(row.DecodeToks) / row.DecodeTime.Seconds()
	row.Majors = sys.MajorFaults.N
	row.BadReads = cache.BadReads.N
	if g != nil {
		row.GuidePages = g.PrefetchPages.N
	}
	r.collect("ext12/"+arm+"@"+FracLabel(frac), sys)
	page := obs.AppendMetrics(nil, sys.Registry().Snapshot(), sys.Tel)
	page = sys.AppendStatus(page, sys.Eng.Now())
	return row, page
}

// ExtKV runs ext12: three arms across KVFractions, the guided-vs-none
// throughput gate at the smallest ratio, and a same-seed guided rerun
// that must reproduce its row and observability page byte for byte.
func ExtKV(r *Run) KVResult {
	res := KVResult{Seed: r.ChaosSeed, Layers: r.KVLayers, Seqs: r.KVSeqs, Rounds: r.KVDecode}
	var gRow KVRow
	var gPage []byte
	for _, f := range KVFractions {
		for _, arm := range []string{"none", "readahead", "guided"} {
			row, page := r.ext12Run(arm, f)
			res.Rows = append(res.Rows, row)
			if arm == "guided" && f == KVFractions[0] {
				gRow, gPage = row, page
			}
		}
	}
	for _, row := range res.Rows {
		if row.Fraction == KVFractions[0] && row.Arm == "none" && row.TokPerSec > 0 {
			res.SpeedupSmallest = gRow.TokPerSec / row.TokPerSec
		}
	}
	row2, page2 := r.ext12Run("guided", KVFractions[0])
	res.Deterministic = row2 == gRow && bytes.Equal(gPage, page2)
	res.MetricsHasKV = bytes.Contains(gPage, []byte("kvcache_"))
	res.PageBytes = len(gPage)
	return res
}

func printExt12(r KVResult) {
	fmt.Println("Extension — KV-cache tiering over the pool (ext12)")
	fmt.Printf("  [%d layers × %d seqs × %d decode rounds; prefill flushes layers through the\n",
		r.Layers, r.Seqs, r.Rounds)
	fmt.Println("   batched write path; guided arm prefetches layer L+1 behind layer L's compute]")
	fmt.Println("  arm        cache    TTFT(µs)  TPOT(µs)  p99(µs)   tok/s     majors")
	for _, row := range r.Rows {
		fmt.Printf("  %-9s  %-6s  %s  %s  %s  %9.0f  %7d\n",
			row.Arm, FracLabel(row.Fraction), us(row.TTFT), us(row.TPOTMean),
			us(row.TPOTP99), row.TokPerSec, row.Majors)
	}
	fmt.Printf("  guided/none decode throughput at %s: %.2fx (gate ≥1.5x)\n",
		FracLabel(KVFractions[0]), r.SpeedupSmallest)
	fmt.Printf("  same-seed rerun byte-identical: %v (%d page bytes); kvcache metrics exported: %v\n",
		r.Deterministic, r.PageBytes, r.MetricsHasKV)
}

func init() {
	Register("ext12", "extension: KV-cache tiering — TTFT/TPOT across cache ratios, guided vs readahead", false, ExtKV, printExt12)
}
