package experiments

import (
	"dilos/internal/aifm"
	"dilos/internal/core"
	"dilos/internal/dataframe"
	"dilos/internal/fabric"
	"dilos/internal/fastswap"
	"dilos/internal/gapbs"
	"dilos/internal/sim"
	"dilos/internal/snappy"
	"dilos/internal/space"
	"dilos/internal/workloads"
)

// This file regenerates the application benchmarks: Figures 7, 8, 9
// (§6.2).

// CompletionRow is one bar of Figures 7–9: a system × cache-fraction cell.
type CompletionRow struct {
	System   SystemKind
	Fraction float64
	Elapsed  sim.Time
	Check    uint64 // workload self-check value (must agree across systems)
}

// Fig7a reproduces Figure 7(a): quicksort completion time.
func Fig7a(r *Run) []CompletionRow {
	sc := r.Scale
	wsPages := sc.QuicksortN * 8 / 4096
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA} {
		for _, frac := range CacheFractions {
			var check uint64
			elapsed := r.runOn("fig7a", kind, wsPages, frac,
				func(sp spaceLike, mmap func(uint64) (uint64, error)) {
					base, _ := mmap(wsPages + 16)
					workloads.FillRandomU64(sp, base, sc.QuicksortN, 7)
					workloads.Quicksort(sp, base, sc.QuicksortN)
					if !workloads.IsSorted(sp, base, sc.QuicksortN) {
						panic("fig7a: sort failed")
					}
					check = sp.LoadU64(base) ^ sp.LoadU64(base+(sc.QuicksortN-1)*8)
				}).elapsed
			rows = append(rows, CompletionRow{kind, frac, elapsed, check})
		}
	}
	return rows
}

// Fig7b reproduces Figure 7(b): k-means completion time.
func Fig7b(r *Run) []CompletionRow {
	cfg := workloads.DefaultKMeans(r.Scale.KMeansPoints)
	pb, ab, db := workloads.KMeansLayout(cfg)
	wsPages := (pb + ab + db) / 4096
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA} {
		for _, frac := range CacheFractions {
			var check uint64
			var elapsed sim.Time
			r.runOn("fig7b", kind, wsPages, frac,
				func(sp spaceLike, mmap func(uint64) (uint64, error)) {
					base, _ := mmap(wsPages + 16)
					workloads.KMeansInit(sp, base, cfg)
					elapsed, check = workloads.KMeans(sp, base, base+pb, base+pb+ab, cfg)
				})
			rows = append(rows, CompletionRow{kind, frac, elapsed, check})
		}
	}
	return rows
}

// snappyInput writes a compressible corpus of n bytes at base.
func snappyInput(sp space.Space, base, n uint64) {
	pattern := make([]byte, 4096)
	for i := range pattern {
		pattern[i] = byte((i / 7) % 251)
	}
	for off := uint64(0); off < n; off += 4096 {
		chunk := n - off
		if chunk > 4096 {
			chunk = 4096
		}
		sp.Store(base+off, pattern[:chunk])
	}
}

// Fig7c reproduces Figure 7(c): snappy compression completion time,
// including the AIFM port.
func Fig7c(r *Run) []CompletionRow {
	n := r.Scale.SnappyBytes
	wsPages := (3 * n) / 4096 // src + generous dst
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA, SysDiLOSTCP} {
		for _, frac := range CacheFractions {
			var check uint64
			elapsed := r.runOn("fig7c", kind, wsPages, frac,
				func(sp spaceLike, mmap func(uint64) (uint64, error)) {
					base, _ := mmap(wsPages + 16)
					src, dst := base, base+n+4096
					snappyInput(sp, src, n)
					check = snappy.Compress(sp, src, n, dst)
				}).elapsed
			rows = append(rows, CompletionRow{kind, frac, elapsed, check})
		}
	}
	rows = append(rows, r.aifmSnappy(false)...)
	return rows
}

// Fig7d reproduces Figure 7(d): snappy decompression completion time.
func Fig7d(r *Run) []CompletionRow {
	n := r.Scale.SnappyBytes
	wsPages := (3 * n) / 4096
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA, SysDiLOSTCP} {
		for _, frac := range CacheFractions {
			var check uint64
			var decompTime sim.Time
			r.runOn("fig7d", kind, wsPages, frac,
				func(sp spaceLike, mmap func(uint64) (uint64, error)) {
					base, _ := mmap(wsPages + 16)
					src, comp, back := base, base+n+4096, base+2*(n+4096)
					snappyInput(sp, src, n)
					cn := snappy.Compress(sp, src, n, comp)
					t0 := sp.Now()
					check = snappy.Decompress(sp, comp, cn, back)
					decompTime = sp.Now() - t0
				})
			rows = append(rows, CompletionRow{kind, frac, decompTime, check})
		}
	}
	rows = append(rows, r.aifmSnappy(true)...)
	return rows
}

// aifmSnappy runs the AIFM port of the snappy workload: source and
// destination live in remoteable byte arrays.
func (r *Run) aifmSnappy(decompress bool) []CompletionRow {
	n := r.Scale.SnappyBytes
	var rows []CompletionRow
	for _, frac := range CacheFractions {
		eng := sim.New()
		sys := aifm.New(eng, aifm.Config{
			LocalBytes:  uint64(float64(3*n) * frac),
			RemoteBytes: 4*n + (64 << 20),
			Fabric:      fabric.TCPParams(),
		})
		sys.Start()
		var elapsed sim.Time
		var check uint64
		sys.Launch("snappy", func(th *aifm.Thread) {
			src, _ := sys.NewArray(1, n)
			dst, _ := sys.NewArray(1, n+n/2+4096)
			pattern := make([]byte, 4096)
			for i := range pattern {
				pattern[i] = byte((i / 7) % 251)
			}
			for off := uint64(0); off < n; off += 4096 {
				chunk := n - off
				if chunk > 4096 {
					chunk = 4096
				}
				src.WriteBytes(th, off, pattern[:chunk])
			}
			asp := &aifmByteSpace{src: src, dst: dst, t: th}
			t0 := th.Now()
			cn := snappy.Compress(asp, 0, n, 1<<40)
			if decompress {
				back, _ := sys.NewArray(1, n)
				asp2 := &aifmByteSpace{src: dst, dst: back, t: th}
				t0 = th.Now() // time the decompression alone
				check = snappy.Decompress(asp2, 0, cn, 1<<40)
			} else {
				check = cn
			}
			elapsed = th.Now() - t0
		})
		eng.Run()
		r.collect("aifm.snappy/"+FracLabel(frac), sys)
		rows = append(rows, CompletionRow{SysAIFM, frac, elapsed, check})
	}
	return rows
}

// aifmByteSpace adapts two AIFM byte arrays to the snappy codec's Space
// usage: addresses below 1<<40 read the source array; addresses at or
// above it write the destination (this is the kind of porting shim AIFM
// applications actually need — the codec itself is unchanged).
type aifmByteSpace struct {
	src *aifm.Array
	dst *aifm.Array
	t   *aifm.Thread
}

const aifmDstBase = uint64(1) << 40

func (a *aifmByteSpace) Load(addr uint64, p []byte) {
	if addr >= aifmDstBase {
		a.dst.ReadBytes(a.t, addr-aifmDstBase, p)
		return
	}
	a.src.ReadBytes(a.t, addr, p)
}
func (a *aifmByteSpace) Store(addr uint64, p []byte) {
	if addr >= aifmDstBase {
		a.dst.WriteBytes(a.t, addr-aifmDstBase, p)
		return
	}
	a.src.WriteBytes(a.t, addr, p)
}
func (a *aifmByteSpace) LoadU64(addr uint64) uint64 {
	var b [8]byte
	a.Load(addr, b[:])
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
func (a *aifmByteSpace) StoreU64(addr uint64, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	a.Store(addr, b[:])
}
func (a *aifmByteSpace) LoadU32(addr uint64) uint32 {
	var b [4]byte
	a.Load(addr, b[:])
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func (a *aifmByteSpace) StoreU32(addr uint64, v uint32) {
	var b [4]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	a.Store(addr, b[:])
}
func (a *aifmByteSpace) LoadU8(addr uint64) byte {
	var b [1]byte
	a.Load(addr, b[:])
	return b[0]
}
func (a *aifmByteSpace) Malloc(n uint64) uint64 { panic("aifm shim: no malloc") }
func (a *aifmByteSpace) Free(addr, n uint64)    {}
func (a *aifmByteSpace) Compute(d sim.Time)     { a.t.Compute(d) }
func (a *aifmByteSpace) Now() sim.Time          { return a.t.Now() }

// Fig8 reproduces Figure 8: the DataFrame NYC-taxi analysis across AIFM,
// DiLOS, DiLOS-TCP, and Fastswap.
func Fig8(r *Run) []CompletionRow {
	rows8 := r.Scale.DataframeRows
	wsPages := rows8 * 7 * 8 / 4096
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA, SysDiLOSTCP} {
		for _, frac := range CacheFractions {
			var check uint64
			var analysis sim.Time
			// Time only the analysis (the paper reports query completion),
			// not the data-set generation.
			r.runOn("fig8", kind, wsPages, frac,
				func(sp spaceLike, mmap func(uint64) (uint64, error)) {
					f := dataframe.NewSpaceFrame(sp, rows8)
					dataframe.Generate(f, 21)
					res := dataframe.RunTaxiAnalysis(sp, f)
					analysis = res.Elapsed
					check = res.Checksum
				})
			rows = append(rows, CompletionRow{kind, frac, analysis, check})
		}
	}
	// AIFM port.
	for _, frac := range CacheFractions {
		eng := sim.New()
		sys := aifm.New(eng, aifm.Config{
			LocalBytes:  uint64(float64(rows8*7*8) * frac),
			RemoteBytes: rows8*7*8 + (64 << 20),
			Fabric:      fabric.TCPParams(),
		})
		sys.Start()
		var analysis sim.Time
		var check uint64
		sys.Launch("df", func(th *aifm.Thread) {
			f, err := dataframe.NewAIFMFrame(sys, th, rows8)
			if err != nil {
				panic(err)
			}
			dataframe.Generate(f, 21)
			res := dataframe.RunTaxiAnalysis(th, f)
			analysis = res.Elapsed
			check = res.Checksum
		})
		eng.Run()
		r.collect("aifm.dataframe/"+FracLabel(frac), sys)
		rows = append(rows, CompletionRow{SysAIFM, frac, analysis, check})
	}
	return rows
}

// gapbsRun executes PR or BC with the given worker thread count on a
// paging system (Figure 9 runs 4; ext2 sweeps it).
func (r *Run) gapbsRun(kind SystemKind, bc bool, frac float64, workers int) (sim.Time, uint64) {
	eng := sim.New()
	scale := r.Scale.GraphScale
	n := uint64(1) << scale
	// Working set: offsets + neighbours + kernel arrays.
	wsPages := (n*16*4+(n+1)*8)/4096 + n*8*uint64(3*workers+workers+2)/4096

	var graph *gapbs.Graph
	var scoreBase, contribBase, centralBase, workBase uint64
	spaces := make([]space.Space, workers)
	barrier := sim.NewBarrier(workers)
	ready := sim.NewBarrier(workers + 1)
	var elapsed sim.Time
	var check uint64
	start := sim.NewBarrier(workers)

	launch := func(launchFn func(name string, coreID int, fn func(sp space.Space))) {
		launchFn("builder", 0, func(sp space.Space) {
			graph = gapbs.BuildRMAT(sp, scale, 16, 31)
			scoreBase = sp.Malloc(n * 8)
			contribBase = sp.Malloc(n * 8)
			centralBase = sp.Malloc(uint64(workers) * n * 8)
			workBase = sp.Malloc(uint64(workers) * 3 * n * 8)
			ready.Wait(procOf(sp))
		})
		for w := 0; w < workers; w++ {
			w := w
			launchFn("worker", w, func(sp space.Space) {
				spaces[w] = sp
				ready.Wait(procOf(sp))
				start.Wait(procOf(sp))
				t0 := sp.Now()
				if bc {
					res := gapbs.BC(spaces, barrier, graph,
						[]uint64{3, 17, 29, 41}, centralBase, workBase, w)
					check += res.SumCentrality
				} else {
					_, sum := gapbs.PageRank(spaces, barrier, graph, 5, scoreBase, contribBase, w)
					check += sum
				}
				if d := sp.Now() - t0; d > elapsed {
					elapsed = d
				}
			})
		}
	}

	var src statsSource
	switch kind {
	case SysFastswap:
		sys := r.fswap(eng, wsPages, frac)
		src = sys
		launch(func(name string, coreID int, fn func(space.Space)) {
			sys.Launch(name, coreID, func(sp *fastswap.FSProc) { fn(sp) })
		})
	default:
		sys := r.dilos(eng, wsPages, frac, pfFor(kind), nil, nil, false)
		src = sys
		launch(func(name string, coreID int, fn func(space.Space)) {
			sys.Launch(name, coreID, func(sp *core.DDCProc) { fn(sp) })
		})
	}
	eng.Run()
	r.collect("gapbs/"+string(kind)+"/"+FracLabel(frac), src)
	return elapsed, check
}

func procOf(sp space.Space) *sim.Proc {
	type hasProc interface{ Proc() *sim.Proc }
	return sp.(hasProc).Proc()
}

// Fig9a reproduces Figure 9(a): GAPBS PageRank processing time, 4 threads.
func Fig9a(r *Run) []CompletionRow {
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA} {
		for _, frac := range CacheFractions {
			elapsed, check := r.gapbsRun(kind, false, frac, 4)
			rows = append(rows, CompletionRow{kind, frac, elapsed, check})
		}
	}
	return rows
}

// Fig9b reproduces Figure 9(b): GAPBS betweenness centrality, 4 threads.
func Fig9b(r *Run) []CompletionRow {
	var rows []CompletionRow
	for _, kind := range []SystemKind{SysFastswap, SysDiLOSRA} {
		for _, frac := range CacheFractions {
			elapsed, check := r.gapbsRun(kind, true, frac, 4)
			rows = append(rows, CompletionRow{kind, frac, elapsed, check})
		}
	}
	return rows
}
