// Package gapbs reimplements the slice of the GAP Benchmark Suite the
// paper evaluates (Figure 9): PageRank and betweenness centrality over a
// CSR graph whose offset, neighbour, and score arrays live in the
// simulated disaggregated address space. The graph generator is an R-MAT
// (Kronecker) sampler, the same family as GAPBS's synthetic inputs and a
// stand-in for the Twitter data-set's power-law degree distribution.
//
// Both kernels run on multiple cores (sim processes) with barrier-
// synchronized phases, matching the paper's 4-thread runs. PageRank's
// pull-direction gather makes mostly-sequential sweeps with random reads
// into the contributions array; betweenness centrality's BFS + dependency
// accumulation is one indirection more random — which is exactly why the
// paper sees DiLOS' advantage grow from PR to BC.
package gapbs

import (
	"math/rand"

	"dilos/internal/sim"
	"dilos/internal/space"
)

// Graph is a CSR graph in simulated memory (undirected: edges stored both
// ways). Offsets are u64, neighbour ids u32.
type Graph struct {
	N, M    uint64 // vertices, directed edge slots (2x undirected edges)
	OffBase uint64 // (N+1) u64 offsets
	NbrBase uint64 // M u32 neighbour ids
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(sp space.Space, v uint64) uint64 {
	return sp.LoadU64(g.OffBase+(v+1)*8) - sp.LoadU64(g.OffBase+v*8)
}

// Neighbors iterates v's neighbours, calling fn for each.
func (g *Graph) Neighbors(sp space.Space, v uint64, fn func(u uint64)) {
	start := sp.LoadU64(g.OffBase + v*8)
	end := sp.LoadU64(g.OffBase + (v+1)*8)
	for e := start; e < end; e++ {
		fn(uint64(sp.LoadU32(g.NbrBase + e*4)))
	}
}

// BuildRMAT generates an R-MAT graph with 2^scale vertices and avgDeg
// average (undirected) degree, builds the CSR host-side, and writes it
// through sp. Self-loops and duplicate edges are kept (as GAPBS's -u
// generator does before optional dedup).
func BuildRMAT(sp space.Space, scale int, avgDeg int, seed int64) *Graph {
	n := uint64(1) << scale
	edges := n * uint64(avgDeg) / 2
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19 // Graph500 parameters
	srcs := make([]uint32, 0, edges*2)
	dsts := make([]uint32, 0, edges*2)
	for e := uint64(0); e < edges; e++ {
		var u, v uint64
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		srcs = append(srcs, uint32(u), uint32(v))
		dsts = append(dsts, uint32(v), uint32(u))
	}
	// Count degrees, prefix-sum, fill.
	deg := make([]uint64, n+1)
	for _, s := range srcs {
		deg[s+1]++
	}
	for i := uint64(1); i <= n; i++ {
		deg[i] += deg[i-1]
	}
	m := deg[n]
	cursor := make([]uint64, n)
	nbrs := make([]uint32, m)
	for i, s := range srcs {
		pos := deg[s] + cursor[s]
		cursor[s]++
		nbrs[pos] = dsts[i]
	}
	g := &Graph{N: n, M: m}
	g.OffBase = sp.Malloc((n + 1) * 8)
	g.NbrBase = sp.Malloc(m * 4)
	for i := uint64(0); i <= n; i++ {
		sp.StoreU64(g.OffBase+i*8, deg[i])
	}
	for i := uint64(0); i < m; i++ {
		sp.StoreU32(g.NbrBase+i*4, nbrs[i])
	}
	return g
}

// prShift is the fixed-point scale for PageRank scores (Q32.32-ish).
const prShift = 32

// PageRank runs `iters` pull-direction iterations across the given worker
// spaces (one per core), with damping 0.85. Scores and contributions are
// u64 fixed-point arrays in simulated memory (allocated from spaces[0]).
// Returns the final score of vertex 0 (a determinism checksum) and the sum
// of all scores.
func PageRank(spaces []space.Space, barrier *sim.Barrier, g *Graph, iters int,
	scoreBase, contribBase uint64, worker int) (v0 uint64, sum uint64) {
	sp := spaces[worker]
	nw := uint64(len(spaces))
	lo := g.N * uint64(worker) / nw
	hi := g.N * uint64(worker+1) / nw

	init := uint64((1 << prShift)) / g.N
	for v := lo; v < hi; v++ {
		sp.StoreU64(scoreBase+v*8, init)
	}
	barrier.Wait(procOf(sp))

	const damp = 85
	base := (uint64(1<<prShift) / g.N) * (100 - damp) / 100
	for it := 0; it < iters; it++ {
		// Phase 1: contributions (sequential pass over own range).
		for v := lo; v < hi; v++ {
			d := g.Degree(sp, v)
			if d == 0 {
				sp.StoreU64(contribBase+v*8, 0)
				continue
			}
			sp.StoreU64(contribBase+v*8, sp.LoadU64(scoreBase+v*8)/d)
		}
		barrier.Wait(procOf(sp))
		// Phase 2: gather (random reads into contributions).
		for v := lo; v < hi; v++ {
			var acc uint64
			g.Neighbors(sp, v, func(u uint64) {
				acc += sp.LoadU64(contribBase + u*8)
			})
			sp.StoreU64(scoreBase+v*8, base+acc*damp/100)
		}
		barrier.Wait(procOf(sp))
	}
	for v := lo; v < hi; v++ {
		sum += sp.LoadU64(scoreBase + v*8)
	}
	if lo == 0 {
		v0 = sp.LoadU64(scoreBase)
	}
	return v0, sum
}

// procOf extracts the sim process from a Space implementation (all our
// Space implementations expose Proc()).
func procOf(sp space.Space) *sim.Proc {
	type hasProc interface{ Proc() *sim.Proc }
	return sp.(hasProc).Proc()
}

// BCResult is a betweenness-centrality run's output.
type BCResult struct {
	SumCentrality uint64
	MaxCentrality uint64
}

// BC computes approximate betweenness centrality from `sources` sample
// roots (Brandes' algorithm), the sources partitioned across workers. The
// depth, sigma, and delta arrays live in simulated memory; frontier queues
// are core-local. Each worker accumulates into its own centrality stripe
// (centralBase holds workers×N u64) to avoid read-modify-write races; the
// final reduction sums the stripes. Returns per-worker partials that the
// caller sums.
//
// Layout at workBase (per worker w, stride 3*N*8 bytes):
//
//	depth  N u64  (^0 = unvisited)
//	sigma  N u64
//	delta  N u64  (fixed point, prShift)
func BC(spaces []space.Space, barrier *sim.Barrier, g *Graph, sources []uint64,
	centralBase, workBase uint64, worker int) BCResult {
	sp := spaces[worker]
	nw := len(spaces)
	stride := g.N * 8
	depthBase := workBase + uint64(worker)*3*stride
	sigmaBase := depthBase + stride
	deltaBase := sigmaBase + stride
	myCentral := centralBase + uint64(worker)*stride

	for v := uint64(0); v < g.N; v++ {
		sp.StoreU64(myCentral+v*8, 0)
	}
	barrier.Wait(procOf(sp))

	const unvisited = ^uint64(0)
	for si := worker; si < len(sources); si += nw {
		root := sources[si]
		for v := uint64(0); v < g.N; v++ {
			sp.StoreU64(depthBase+v*8, unvisited)
			sp.StoreU64(sigmaBase+v*8, 0)
			sp.StoreU64(deltaBase+v*8, 0)
		}
		sp.StoreU64(depthBase+root*8, 0)
		sp.StoreU64(sigmaBase+root*8, 1)
		// Forward BFS, recording the visit order.
		order := []uint64{root}
		frontier := []uint64{root}
		depth := uint64(0)
		for len(frontier) > 0 {
			var next []uint64
			for _, v := range frontier {
				g.Neighbors(sp, v, func(u uint64) {
					du := sp.LoadU64(depthBase + u*8)
					if du == unvisited {
						sp.StoreU64(depthBase+u*8, depth+1)
						sp.StoreU64(sigmaBase+u*8, sp.LoadU64(sigmaBase+v*8))
						next = append(next, u)
						order = append(order, u)
					} else if du == depth+1 {
						sp.StoreU64(sigmaBase+u*8,
							sp.LoadU64(sigmaBase+u*8)+sp.LoadU64(sigmaBase+v*8))
					}
				})
			}
			frontier = next
			depth++
		}
		// Backward dependency accumulation.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			dv := sp.LoadU64(depthBase + v*8)
			sigV := sp.LoadU64(sigmaBase + v*8)
			deltaV := sp.LoadU64(deltaBase + v*8)
			g.Neighbors(sp, v, func(u uint64) {
				if sp.LoadU64(depthBase+u*8) == dv+1 {
					sigU := sp.LoadU64(sigmaBase + u*8)
					if sigU == 0 {
						return
					}
					contrib := (sigV * ((1 << prShift) + sp.LoadU64(deltaBase+u*8))) / sigU
					deltaV += contrib
				}
			})
			sp.StoreU64(deltaBase+v*8, deltaV)
			if v != root {
				sp.StoreU64(myCentral+v*8, sp.LoadU64(myCentral+v*8)+deltaV)
			}
		}
	}
	barrier.Wait(procOf(sp))

	// Reduction over all stripes, striped by vertex range per worker.
	lo := g.N * uint64(worker) / uint64(nw)
	hi := g.N * uint64(worker+1) / uint64(nw)
	var res BCResult
	for v := lo; v < hi; v++ {
		var c uint64
		for w := 0; w < nw; w++ {
			c += sp.LoadU64(centralBase + uint64(w)*stride + v*8)
		}
		res.SumCentrality += c
		if c > res.MaxCentrality {
			res.MaxCentrality = c
		}
	}
	return res
}
