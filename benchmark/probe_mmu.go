package main

import (
	"time"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/sim"
)

// mmuProbes time the hit path: DDCProc.LoadU64 over a region that is fully
// resident, so every load is a translation and a frame read, never a fault.
func mmuProbes() []probe {
	const pages = 1024
	return []probe{
		{metric: "mmu.hit_load_ns", per: 1, fn: func(n int) time.Duration {
			eng := sim.New()
			sys := core.New(eng, core.Config{CacheFrames: 4 * pages, Cores: 2, Shards: 2,
				RemoteBytes: 16 << 20, Fabric: fabric.DefaultParams()})
			sys.Start()
			base, err := sys.MmapDDC(pages)
			if err != nil {
				panic(err)
			}
			var took time.Duration
			sys.Launch("hit", 0, func(sp *core.DDCProc) {
				for pg := uint64(0); pg < pages; pg++ {
					sp.StoreU64(base+pg*pageSize, pg)
				}
				var sink uint64
				t0 := time.Now()
				for i := 0; i < n; i++ {
					sink += sp.LoadU64(base + uint64(i)%pages*pageSize)
				}
				took = time.Since(t0)
				if sink == 0 && n > pages {
					panic("benchmark: resident region read back as zeros")
				}
			})
			eng.Run()
			return took
		}},
	}
}

func (w *simWorkload) probes(c *config, tr *tracer, ms metricSet) error {
	runProbes(c, tr, ms, simLayerProbes(c, ms))
	return nil
}

// simLayerProbes are the probes of every layer the simulated stack is made
// of; the sim workloads and paper_suite run them.
func simLayerProbes(c *config, ms metricSet) []probe {
	var ps []probe
	ps = append(ps, simProbes()...)
	ps = append(ps, pagetableProbes(c.seed)...)
	ps = append(ps, mmuProbes()...)
	ps = append(ps, dramProbes()...)
	ps = append(ps, fabricProbes(ms)...)
	ps = append(ps, memnodeProbes()...)
	return ps
}
