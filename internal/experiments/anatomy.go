package experiments

import (
	"fmt"

	"dilos/internal/core"
	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/sim"
	"dilos/internal/space"
	"dilos/internal/telemetry"
	"dilos/internal/workloads"
)

// This file adds ext6: fault anatomy from the flight recorder. Figure 1/6
// project the recorder's stage totals onto five columns; ext6 reports all
// eight stages, plus tails from the recorded per-fault spans.

// Ext6Row is one system × cache-fraction cell: the per-stage latency
// anatomy of every major fault the run recorded.
type Ext6Row struct {
	System   SystemKind
	Fraction float64
	Anatomy  telemetry.Anatomy
}

// ext6Fractions sweeps the paging-pressure regimes; 100 % is omitted — a
// fully cached run has almost no faults to attribute.
var ext6Fractions = []float64{0.125, 0.25, 0.5}

// ExtAnatomy runs a sequential write-then-read sweep on Fastswap and two
// DiLOS flavours under its own flight recorders (independent of the
// TelemetrySink) and attributes every major fault to stages.
func ExtAnatomy(r *Run) []Ext6Row {
	pages := r.Scale.SeqPages / 4
	if pages < 1024 {
		pages = 1024
	}
	systems := []SystemKind{SysFastswap, SysDiLOSNone, SysDiLOSRA}
	var rows []Ext6Row
	for _, frac := range ext6Fractions {
		for _, kind := range systems {
			rows = append(rows, Ext6Row{
				System:   kind,
				Fraction: frac,
				Anatomy:  r.runAnatomy(kind, pages, frac),
			})
		}
	}
	return rows
}

// runAnatomy boots one system with a recorder sized to hold every fault of
// the run (write sweep + read sweep + readahead-induced minors) and
// returns the recording's fault anatomy. A Cores override above one
// splits the sweep into one worker per core over disjoint slices, so the
// anatomy reflects concurrent fault handlers — the regime where the
// sharded manager and the wide-lock baseline diverge.
func (r *Run) runAnatomy(kind SystemKind, pages uint64, frac float64) telemetry.Anatomy {
	rec := telemetry.NewRecorder(int(3*pages) + 1024)
	eng := sim.New()
	workers := 1
	if r.Cores > 1 {
		workers = r.Cores
	}
	slice := func(c int) (lo, n uint64) {
		per := pages / uint64(workers)
		lo = uint64(c) * per
		hi := lo + per
		if c == workers-1 {
			hi = pages
		}
		return lo, hi - lo
	}
	sweep := func(sp space.Space, base uint64, c int) {
		lo, n := slice(c)
		workloads.SeqWrite(sp, base+lo*core.PageSize, n)
		workloads.SeqRead(sp, base+lo*core.PageSize, n)
	}
	switch kind {
	case SysFastswap:
		sys := fastswap.New(eng, fastswap.Config{
			CacheFrames: frames(pages, frac),
			Cores:       r.fswapCores(),
			RemoteBytes: pages*fastswap.PageSize + (64 << 20),
			Fabric:      fabric.DefaultParams(),
			Tel:         rec,
			SampleEvery: r.SampleEvery,
		})
		sys.Start()
		if workers == 1 {
			sys.Launch("seq", 0, func(sp *fastswap.FSProc) {
				base, err := sys.MmapDDC(pages)
				if err != nil {
					panic(err)
				}
				sweep(sp, base, 0)
			})
		} else {
			base, err := sys.MmapDDC(pages)
			if err != nil {
				panic(err)
			}
			for c := 0; c < workers; c++ {
				c := c
				sys.Launch(fmt.Sprintf("seq%d", c), c, func(sp *fastswap.FSProc) { sweep(sp, base, c) })
			}
		}
		eng.Run()
		r.collect("ext6/"+string(kind)+"/"+FracLabel(frac), sys)
	default:
		cfg := core.Config{
			CacheFrames: frames(pages, frac),
			Cores:       4,
			RemoteBytes: pages*core.PageSize + (64 << 20),
			Fabric:      fabric.DefaultParams(),
			Prefetcher:  pfFor(kind),
			Batch:       r.Batch,
			Tel:         rec,
			SampleEvery: r.SampleEvery,
		}
		r.applyCores(&cfg)
		sys := core.New(eng, cfg)
		sys.Start()
		if workers == 1 {
			sys.Launch("seq", 0, func(sp *core.DDCProc) {
				base, err := sys.MmapDDC(pages)
				if err != nil {
					panic(err)
				}
				sweep(sp, base, 0)
			})
		} else {
			base, err := sys.MmapDDC(pages)
			if err != nil {
				panic(err)
			}
			for c := 0; c < workers; c++ {
				c := c
				sys.Launch(fmt.Sprintf("seq%d", c), c, func(sp *core.DDCProc) { sweep(sp, base, c) })
			}
		}
		eng.Run()
		r.collect("ext6/"+string(kind)+"/"+FracLabel(frac), sys)
	}
	return telemetry.FaultAnatomy(rec)
}
