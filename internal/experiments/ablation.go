package experiments

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/pagemgr"
	"dilos/internal/placement"
	"dilos/internal/prefetch"
	"dilos/internal/sim"
	"dilos/internal/stats"
	"dilos/internal/workloads"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out (§6's bullet list of DiLOS' choices): what each mechanism buys
// when it is switched off on an otherwise identical system.

// AblationRow is one ablation configuration's outcome.
type AblationRow struct {
	Label     string
	ReadGBs   float64
	WriteGBs  float64
	FaultP99  sim.Time
	AllocWait int64
}

// AblationEagerEviction compares DiLOS' eager background reclamation
// (§4.4) against an on-demand variant whose reclaimer only runs when the
// free list is empty — quantifying how much "hide reclamation in the fetch
// window" buys on the write path.
func AblationEagerEviction(r *Run) []AblationRow {
	sc := r.Scale
	run := func(label string, mcfg *pagemgr.Config) AblationRow {
		row := AblationRow{Label: label}
		for pass, write := range map[int]bool{0: false, 1: true} {
			eng := sim.New()
			sys := core.New(eng, core.Config{
				CacheFrames: frames(sc.SeqPages, 0.125),
				Cores:       2,
				RemoteBytes: sc.SeqPages*4096 + (64 << 20),
				Fabric:      fabric.DefaultParams(),
				Prefetcher:  prefetch.NewReadahead(0),
				Mgr:         mcfg,
			})
			sys.Start()
			var d sim.Time
			sys.Launch("seq", 0, func(sp *core.DDCProc) {
				base, _ := sys.MmapDDC(sc.SeqPages)
				if write {
					d = workloads.SeqWrite(sp, base, sc.SeqPages)
				} else {
					d = workloads.SeqRead(sp, base, sc.SeqPages)
				}
			})
			eng.Run()
			if write {
				r.collect("abl1/"+label+"/write", sys)
			} else {
				r.collect("abl1/"+label+"/read", sys)
			}
			gbs := stats.GBps(float64(sc.SeqPages*4096) / d.Seconds())
			if write {
				row.WriteGBs = gbs
				row.AllocWait += sys.Mgr.AllocWaits.N
			} else {
				row.ReadGBs = gbs
				row.FaultP99 = sys.FaultLat.P99()
			}
			_ = pass
		}
		return row
	}
	lazy := pagemgr.DefaultConfig(frames(sc.SeqPages, 0.125))
	lazy.LowWater = 1
	lazy.HighWater = 2
	lazy.CleanerPeriod = 500 * sim.Microsecond
	return []AblationRow{
		run("eager (DiLOS default)", nil),
		run("on-demand reclamation", &lazy),
	}
}

// AblationSharedQueue compares §4.5's shared-nothing per-module queues
// against one shared queue per core. The tax shows where the paper says it
// does: a module with a deep backlog — the cleaner, flushing dirty pages
// in batches — shares a FIFO with the fault handler's fetches, so demand
// fetches complete behind write-backs they have nothing to do with.
// Sequential write at 12.5 % cache keeps the cleaner saturated.
func AblationSharedQueue(r *Run) []AblationRow {
	sc := r.Scale
	run := func(label string, shared bool) AblationRow {
		eng := sim.New()
		sys := core.New(eng, core.Config{
			CacheFrames: frames(sc.SeqPages, 0.125),
			Cores:       2,
			RemoteBytes: sc.SeqPages*4096 + (64 << 20),
			Fabric:      fabric.DefaultParams(),
			Prefetcher:  prefetch.NewReadahead(0),
			SharedQP:    shared,
		})
		sys.Start()
		var d sim.Time
		sys.Launch("seq", 0, func(sp *core.DDCProc) {
			base, _ := sys.MmapDDC(sc.SeqPages)
			d = workloads.SeqWrite(sp, base, sc.SeqPages)
		})
		eng.Run()
		r.collect("abl2/"+label, sys)
		return AblationRow{
			Label:     label,
			WriteGBs:  stats.GBps(float64(sc.SeqPages*4096) / d.Seconds()),
			FaultP99:  sys.FaultLat.P99(),
			AllocWait: sys.Mgr.AllocWaits.N,
		}
	}
	return []AblationRow{
		run("shared-nothing (DiLOS default)", false),
		run("one queue per core", true),
	}
}

// MultiNodeRow is one sharding configuration's outcome (the §5.1
// future-work extension implemented here).
type MultiNodeRow struct {
	Nodes   int
	ReadGBs float64
	PerLink []float64 // RX GB moved per memory node
}

// ExtMultiNode measures sequential-read bandwidth as the remote backing is
// sharded across 1, 2, and 4 memory nodes (page-round-robin striping).
func ExtMultiNode(r *Run) []MultiNodeRow {
	sc := r.Scale
	var rows []MultiNodeRow
	for _, nodes := range []int{1, 2, 4} {
		eng := sim.New()
		sys := core.New(eng, core.Config{
			CacheFrames: frames(sc.SeqPages, 0.125),
			Cores:       2,
			RemoteBytes: sc.SeqPages*4096 + (64 << 20),
			Fabric:      fabric.DefaultParams(),
			Prefetcher:  prefetch.NewTrend(), // deep window: wire-bound
			MemNodes:    nodes,
		})
		sys.Start()
		var d sim.Time
		sys.Launch("seq", 0, func(sp *core.DDCProc) {
			base, _ := sys.MmapDDC(sc.SeqPages)
			d = workloads.SeqRead(sp, base, sc.SeqPages)
		})
		eng.Run()
		r.collect(fmt.Sprintf("ext1/nodes=%d", nodes), sys)
		row := MultiNodeRow{
			Nodes:   nodes,
			ReadGBs: stats.GBps(float64(sc.SeqPages*4096) / d.Seconds()),
		}
		for _, link := range sys.Links {
			row.PerLink = append(row.PerLink, float64(link.RxBytes.N)/1e9)
		}
		rows = append(rows, row)
	}
	return rows
}

// PlacementRow is one placement policy's outcome on the ext3 extension:
// sequential-read bandwidth over four memory nodes, plus how evenly the
// policy spread the fetch traffic across the links.
type PlacementRow struct {
	Policy  string
	ReadGBs float64
	PerLink []float64 // RX GB moved per memory node
	Spread  float64   // max/min per-link RX; 1.0 is perfectly even
}

// ExtPlacement compares the placement policies end-to-end: the ext1
// sequential read, fixed at four memory nodes, once per policy. Striping
// interleaves consecutive pages (even under any access pattern); blocked
// placement keeps runs contiguous (one hot node at a time on a sweep);
// hashed placement scatters pages pseudo-randomly (even in expectation).
func ExtPlacement(r *Run) []PlacementRow {
	sc := r.Scale
	const nodes = 4
	var rows []PlacementRow
	for _, pol := range placement.Policies() {
		eng := sim.New()
		sys := core.New(eng, core.Config{
			CacheFrames: frames(sc.SeqPages, 0.125),
			Cores:       2,
			RemoteBytes: sc.SeqPages*4096 + (64 << 20),
			Fabric:      fabric.DefaultParams(),
			Prefetcher:  prefetch.NewTrend(),
			MemNodes:    nodes,
			Placement:   pol,
		})
		sys.Start()
		var d sim.Time
		sys.Launch("seq", 0, func(sp *core.DDCProc) {
			base, _ := sys.MmapDDC(sc.SeqPages)
			d = workloads.SeqRead(sp, base, sc.SeqPages)
		})
		eng.Run()
		r.collect("ext3/"+pol.Name(), sys)
		row := PlacementRow{
			Policy:  pol.Name(),
			ReadGBs: stats.GBps(float64(sc.SeqPages*4096) / d.Seconds()),
		}
		minRx, maxRx := -1.0, 0.0
		for _, link := range sys.Links {
			gb := float64(link.RxBytes.N) / 1e9
			row.PerLink = append(row.PerLink, gb)
			if minRx < 0 || gb < minRx {
				minRx = gb
			}
			if gb > maxRx {
				maxRx = gb
			}
		}
		if minRx > 0 {
			row.Spread = maxRx / minRx
		}
		rows = append(rows, row)
	}
	return rows
}

// ThreadScaleRow is one thread count's PageRank outcome.
type ThreadScaleRow struct {
	Workers int
	Elapsed sim.Time
	Check   uint64
}

// ExtThreadScaling runs PageRank on DiLOS at 12.5 % local memory with 1,
// 2, and 4 worker threads — per-core queue pairs and per-core prefetch
// mappers are what let fault handling scale with the cores (§4.5).
func ExtThreadScaling(r *Run) []ThreadScaleRow {
	var rows []ThreadScaleRow
	for _, w := range []int{1, 2, 4} {
		elapsed, check := r.gapbsRun(SysDiLOSRA, false, 0.125, w)
		rows = append(rows, ThreadScaleRow{Workers: w, Elapsed: elapsed, Check: check})
	}
	return rows
}
